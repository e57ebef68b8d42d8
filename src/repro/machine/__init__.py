"""Analytical performance model of the paper's multicore CPU."""
