"""Benchmark-local float64 convolution oracle.

Deliberately imports nothing from ``repro``: the three convolution
computations are restated from the paper's Eqs. 2-4 with
``sliding_window_view`` + ``einsum`` so that a bug shared by every
engine (they all lean on ``repro.ops``) still shows.  Batches are
``[B, C, Y, X]``, weights ``[F, C, Ky, Kx]``, pre-padded (pad = 0).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _windows(inputs: np.ndarray, fy: int, fx: int, sy: int, sx: int):
    """``[B, C, oy, ox, Ky, Kx]`` view of every filter window."""
    view = sliding_window_view(inputs, (fy, fx), axis=(2, 3))
    return view[:, :, ::sy, ::sx]


def forward(inputs, weights, sy: int = 1, sx: int = 1) -> np.ndarray:
    x = inputs.astype(np.float64)
    w = weights.astype(np.float64)
    win = _windows(x, w.shape[2], w.shape[3], sy, sx)
    return np.einsum("bcyxij,fcij->bfyx", win, w)


def backward_weights(out_error, inputs, fy: int, fx: int,
                     sy: int = 1, sx: int = 1) -> np.ndarray:
    eo = out_error.astype(np.float64)
    win = _windows(inputs.astype(np.float64), fy, fx, sy, sx)
    return np.einsum("bfyx,bcyxij->fcij", eo, win)


def backward_data(out_error, weights, input_shape: tuple[int, int, int],
                  sy: int = 1, sx: int = 1) -> np.ndarray:
    eo = out_error.astype(np.float64)
    w = weights.astype(np.float64)
    batch, _, oy, ox = eo.shape
    ei = np.zeros((batch,) + tuple(input_shape), dtype=np.float64)
    for ky in range(w.shape[2]):
        for kx in range(w.shape[3]):
            ei[:, :, ky:ky + oy * sy:sy, kx:kx + ox * sx:sx] += np.einsum(
                "bfyx,fc->bcyx", eo, w[:, :, ky, kx])
    return ei


def close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-4) -> bool:
    """Agreement to ``rtol`` of the oracle's largest magnitude.

    Elementwise relative error is meaningless where the true value is
    near zero (sparse errors make most of EI exactly that), so the
    tolerance is anchored on the tensor's scale.
    """
    if got.shape != want.shape or not np.isfinite(got).all():
        return False
    scale = float(np.abs(want).max()) or 1.0
    return bool(np.abs(got.astype(np.float64) - want).max() <= rtol * scale)
