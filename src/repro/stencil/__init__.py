"""Stencil-Kernel code generation (paper Sec. 4.3)."""

from repro.stencil.basic_block import optimize_register_tile
from repro.stencil.engine import StencilEngine
from repro.stencil.schedule import generate_schedule

__all__ = [
    "optimize_register_tile",
    "generate_schedule",
    "StencilEngine",
]
