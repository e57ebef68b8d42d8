"""Max-pooling layer.

Besides down-sampling, max pooling is one of the two mechanisms (with
ReLU) that make back-propagated error gradients sparse: each pooling
window routes its entire gradient to the single position that won the
max, zeroing the rest -- the effect behind the paper's Fig. 3b sparsity
measurements.
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
        self._cached_argmax: np.ndarray | None = None

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

    def _taps(self, plane: np.ndarray, oy: int, ox: int) -> list[np.ndarray]:
        """The ``kernel**2`` window taps of ``plane`` as strided views.

        Tap ``t = ky * kernel + kx`` is the ``[B, C, oy, ox]`` view of the
        element every window holds at offset ``(ky, kx)``.
        """
        span_y = (oy - 1) * self.stride + 1
        span_x = (ox - 1) * self.stride + 1
        return [
            plane[:, :, ky : ky + span_y : self.stride,
                  kx : kx + span_x : self.stride]
            for ky in range(self.kernel)
            for kx in range(self.kernel)
        ]

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"expected [B, C, Y, X] input, got {inputs.shape}")
        oy, ox = self._out_extent(inputs.shape[2]), self._out_extent(inputs.shape[3])
        taps = self._taps(inputs, oy, ox)
        # Running max over the taps.  Strict ``>`` keeps the first tap in
        # row-major window order on ties, as ``argmax`` does.
        out = taps[0].copy()
        argmax = np.zeros(
            out.shape, dtype=np.min_scalar_type(self.kernel ** 2 - 1)
        )
        for t, tap in enumerate(taps[1:], start=1):
            better = tap > out
            np.maximum(out, tap, out=out)
            np.putmask(argmax, better, t)
        if training:
            self._cached_input_shape = inputs.shape
            self._cached_argmax = argmax
        return out

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_argmax is None or self._cached_input_shape is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        b, c, y, x = self._cached_input_shape
        argmax = self._cached_argmax
        oy, ox = argmax.shape[2:]
        if out_error.shape != (b, c, oy, ox):
            raise ShapeError(
                f"pool backward shape {out_error.shape} != {(b, c, oy, ox)}"
            )
        in_error = np.zeros(self._cached_input_shape, dtype=out_error.dtype)
        # Each tap receives the error of the windows it won.  Overlapping
        # windows (stride < kernel) accumulate; walking the taps last to
        # first adds them in row-major window order, the order of a
        # ``np.add.at`` scatter over the output positions.
        taps = self._taps(in_error, oy, ox)
        for t in reversed(range(len(taps))):
            taps[t] += out_error * (argmax == t)
        return in_error
