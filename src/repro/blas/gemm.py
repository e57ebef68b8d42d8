"""A small GEMM library: the repo's stand-in for OpenBLAS/MKL.

Provides the cache-blocked single-threaded GEMM (the building block of
GEMM-in-Parallel) and :func:`partition_rows`, the balanced contiguous
split the worker pool assigns image ranges with.  How Parallel-GEMM
splits one multiplication across cores, and what that costs in per-core
arithmetic intensity (Sec. 3.2), is the machine model's
(:mod:`repro.machine.gemm_model`).

Blocking follows the classic Goto/van de Geijn structure: the K dimension
is split into panels sized for cache residency, M into panels per block of
A, and the inner macro-kernel multiplies an A-panel by a B-panel.  The
macro-kernel itself delegates to ``numpy.dot`` (this is a reproduction of
the *algorithm structure*; raw flop rates come from the machine model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError

#: Default blocking parameters, sized so an A-panel (MC x KC floats) fits a
#: 256 KiB L2 cache with room for B streaming -- the Xeon E5-2650 geometry.
DEFAULT_MC = 128
DEFAULT_KC = 256
DEFAULT_NC = 1024


@dataclass(frozen=True)
class BlockingParams:
    """Cache-blocking parameters of the single-threaded GEMM."""

    mc: int = DEFAULT_MC
    kc: int = DEFAULT_KC
    nc: int = DEFAULT_NC

    def __post_init__(self) -> None:
        if min(self.mc, self.kc, self.nc) <= 0:
            raise ValueError(f"blocking parameters must be positive: {self}")


def _check_operands(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"gemm operands must be 2-d, got {a.shape} and {b.shape}")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ShapeError(f"inner dimensions disagree: {a.shape} . {b.shape}")
    return m, k, n


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    blocking: BlockingParams | None = None,
) -> np.ndarray:
    """Single-threaded cache-blocked ``C (+)= A . B``.

    When ``out`` is given the product is accumulated into it; otherwise a
    fresh zero-initialized result is returned.
    """
    m, k, n = _check_operands(a, b)
    params = blocking or BlockingParams()
    if out is None:
        out = np.zeros((m, n), dtype=np.result_type(a, b))
    elif out.shape != (m, n):
        raise ShapeError(f"out shape {out.shape} != ({m}, {n})")
    for j0 in range(0, n, params.nc):
        j1 = min(j0 + params.nc, n)
        for k0 in range(0, k, params.kc):
            k1 = min(k0 + params.kc, k)
            b_panel = b[k0:k1, j0:j1]
            for i0 in range(0, m, params.mc):
                i1 = min(i0 + params.mc, m)
                # Macro-kernel: A-panel resident, B-panel streamed.
                out[i0:i1, j0:j1] += a[i0:i1, k0:k1] @ b_panel
    return out


def partition_rows(m: int, parts: int) -> list[tuple[int, int]]:
    """Split ``m`` rows into ``parts`` contiguous, balanced half-open ranges.

    Ranges can be empty when ``parts > m``; callers skip empty slices.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    base, extra = divmod(m, parts)
    bounds = [0]
    for i in range(parts):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]

