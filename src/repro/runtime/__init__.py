"""Parallel execution of the spg-CNN engines over pluggable backends."""
