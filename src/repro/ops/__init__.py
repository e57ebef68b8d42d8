"""Convolution execution engines and shared tensor operations."""
