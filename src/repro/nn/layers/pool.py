"""Max-pooling layer.

Besides down-sampling, max pooling is one of the two mechanisms (with
ReLU) that make back-propagated error gradients sparse: each pooling
window routes its entire gradient to the single position that won the
max, zeroing the rest -- the effect behind the paper's Fig. 3b sparsity
measurements.

The max is *separable*: the forward pass reduces every window along x,
then the row maxima along y, ``2*kernel`` strided passes (most of them
over the x-reduced plane) instead of ``kernel**2`` over the full one.
Each stage is a running max with strict ``>``, so a stage keeps its
first maximum; the y stage therefore picks the first row that holds the
window's maximum and the x stage the first column within that row --
the first maximum in row-major window order, what ``argmax`` over the
flattened window returns.  What is cached for backward is the two stage
selectors (``kx`` per input row and output column, ``ky`` per output
position), not a per-window argmax.

Backward retraces the two stages, y then x.  When windows do not overlap
(``stride >= kernel``) every input position belongs to at most one
window, so each stage *writes* ``error * (selector == k)`` into its tap
of the wider plane rather than accumulating into a zeroed one.  When
they overlap (``stride < kernel``) several windows can route to one
input and the order of those additions is part of the contract: the
layer keeps the tap walk -- rebuilding the per-window argmax from the
two selectors and adding the taps last to first -- which sums in
row-major window order, the order of an ``np.add.at`` scatter over the
output positions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer, LayerStructure


class MaxPoolLayer(Layer):
    """Non-overlapping-or-strided max pooling over ``[B, C, Y, X]``."""

    kind = "maxpool"

    def __init__(self, kernel: int, stride: int | None = None, name: str = ""):
        super().__init__(name)
        if kernel <= 0:
            raise ShapeError(f"pool kernel must be positive, got {kernel}")
        self.kernel = kernel
        self.stride = stride or kernel
        if self.stride <= 0:
            raise ShapeError(f"pool stride must be positive, got {self.stride}")
        self._cached_input_shape: tuple[int, ...] | None = None
        # ``(kx per [B, C, row, ox], ky per [B, C, oy, ox])`` of the last
        # training forward.
        self._cached_selectors: tuple[np.ndarray, np.ndarray] | None = None

    def structure(self) -> LayerStructure:
        return (self.kind, self.name,
                (("kernel", self.kernel), ("stride", self.stride)))

    def _out_extent(self, extent: int) -> int:
        if extent < self.kernel:
            raise ShapeError(
                f"pool kernel {self.kernel} larger than input extent {extent}"
            )
        return (extent - self.kernel) // self.stride + 1

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, y, x = input_shape
        return (c, self._out_extent(y), self._out_extent(x))

    def _covered(self, out_extent: int) -> int:
        """Input rows (columns) the windows of ``out_extent`` outputs span."""
        return (out_extent - 1) * self.stride + self.kernel

    def _taps(self, plane: np.ndarray, axis: int,
              out_extent: int) -> list[np.ndarray]:
        """The ``kernel`` window taps of ``plane`` along ``axis``.

        Tap ``k`` is the strided view of the element every window holds
        at offset ``k`` along that axis; its extent there is
        ``out_extent``, the other axes are untouched.
        """
        span = (out_extent - 1) * self.stride + 1
        index: list[slice] = [slice(None)] * plane.ndim
        taps = []
        for k in range(self.kernel):
            index[axis] = slice(k, k + span, self.stride)
            taps.append(plane[tuple(index)])
        return taps

    @staticmethod
    def _first_max(taps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Running max over ``taps`` and the index of the first maximum."""
        if len(taps) == 1:
            return taps[0].copy(), np.zeros(taps[0].shape, np.uint8)
        selector = (taps[1] > taps[0]).view(np.uint8)
        best = np.maximum(taps[0], taps[1])
        for k, tap in enumerate(taps[2:], start=2):
            better = tap > best
            np.maximum(best, tap, out=best)
            np.putmask(selector, better, k)
        return best, selector

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"expected [B, C, Y, X] input, got {inputs.shape}")
        oy, ox = self._out_extent(inputs.shape[2]), self._out_extent(inputs.shape[3])
        rows = inputs[:, :, : self._covered(oy)]
        row_max, select_x = self._first_max(self._taps(rows, 3, ox))
        out, select_y = self._first_max(self._taps(row_max, 2, oy))
        if training:
            self._cached_input_shape = inputs.shape
            self._cached_selectors = (select_x, select_y)
        return out

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_selectors is None or self._cached_input_shape is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        b, c, y, x = self._cached_input_shape
        select_x, select_y = self._cached_selectors
        oy, ox = select_y.shape[2:]
        if out_error.shape != (b, c, oy, ox):
            raise ShapeError(
                f"pool backward shape {out_error.shape} != {(b, c, oy, ox)}"
            )
        if self.stride < self.kernel:
            return self._scatter_overlapping(out_error, select_x, select_y)
        rows, cols = self._covered(oy), self._covered(ox)
        # A plane the windows tile exactly is written in full; otherwise
        # the gaps and the dropped trailing rows/columns stay zero.
        tiled = self.stride == self.kernel
        row_error = (np.empty if tiled else np.zeros)(
            (b, c, rows, ox), dtype=out_error.dtype)
        for ky, tap in enumerate(self._taps(row_error, 2, oy)):
            np.multiply(out_error, select_y == ky, out=tap)
        in_error = (np.empty if tiled and (rows, cols) == (y, x) else np.zeros)(
            self._cached_input_shape, dtype=out_error.dtype)
        for kx, tap in enumerate(self._taps(in_error[:, :, :rows], 3, ox)):
            np.multiply(row_error, select_x == kx, out=tap)
        # ``0 + error * mask`` as the accumulating form computes it: the
        # ``-0.0`` a negative error leaves at a losing tap becomes ``0.0``.
        in_error += 0
        return in_error

    def _scatter_overlapping(self, out_error: np.ndarray, select_x: np.ndarray,
                             select_y: np.ndarray) -> np.ndarray:
        """The tap walk: each tap receives the error of the windows it won.

        Walking the ``kernel**2`` taps last to first adds overlapping
        windows' contributions in row-major window order, the order of a
        ``np.add.at`` scatter over the output positions.
        """
        oy, ox = select_y.shape[2:]
        # argmax = ky * kernel + kx, with kx read from the winning row.
        argmax = select_y.astype(np.intp) * self.kernel
        for ky, row_kx in enumerate(self._taps(select_x, 2, oy)):
            np.add(argmax, row_kx, out=argmax, where=select_y == ky)
        in_error = np.zeros(self._cached_input_shape, dtype=out_error.dtype)
        taps = [tap for rows in self._taps(in_error, 2, oy)
                for tap in self._taps(rows, 3, ox)]
        for t in reversed(range(len(taps))):
            taps[t] += out_error * (argmax == t)
        return in_error
