"""Stencil-Kernel code generation (paper Sec. 4.3)."""
