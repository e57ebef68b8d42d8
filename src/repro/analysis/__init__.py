"""Experiment regeneration and reporting."""
