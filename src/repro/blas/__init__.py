"""A small BLAS: blocked GEMM, Parallel-GEMM and CSR sparse routines."""
