"""Sparse-Kernel code generation and CT-CSR (paper Sec. 4.2)."""
