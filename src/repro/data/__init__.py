"""Benchmark tables, synthetic datasets and sparsity measurement."""
