"""Layer implementations."""
