"""The sparse BP kernels' error layout (paper Sec. 4.2, Eqs. 11-15).

The sparse convolution is composed, in place and without unfolding, as a
series of small dense MMs -- one per kernel tap ``(ky, kx)`` -- whose
sparse operand is the output error as the matrix ``EO_mat [Ny*Nx, Nf]``
(Eq. 13), compressed to CT-CSR.  The kernels themselves are generated C
(:mod:`repro.sparse.codegen_c`), which compresses inside the kernel;
these helpers build the same operand in numpy, which is what the
compression benchmarks and the host book's probes time.
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError
from repro.sparse.ctcsr import CTCSRMatrix, DEFAULT_TILE_COLS, ctcsr_from_dense


def error_matrix(spec: ConvSpec, out_error: np.ndarray) -> np.ndarray:
    """Layout-transform EO ``[Nf, Ny, Nx]`` to the matrix ``[Ny*Nx, Nf]``.

    Rows are output positions, columns output features; ``f`` becomes the
    fastest-varying dimension as Sec. 4.2 requires.
    """
    if out_error.shape != spec.output_shape:
        raise ShapeError(f"out_error shape {out_error.shape} != {spec.output_shape}")
    return np.ascontiguousarray(
        np.moveaxis(out_error, 0, 2).reshape(spec.out_ny * spec.out_nx, spec.nf)
    )


def compress_error(
    spec: ConvSpec, out_error: np.ndarray, tile_cols: int = DEFAULT_TILE_COLS
) -> CTCSRMatrix:
    """Build the CT-CSR representation of an output-error tensor."""
    return ctcsr_from_dense(error_matrix(spec, out_error), tile_cols=tile_cols)
