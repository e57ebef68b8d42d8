"""Activation layers.

ReLU is the second source of error-gradient sparsity (with max pooling):
the gradient is zeroed wherever the forward activation was clamped, so as
training progresses and activations polarize, back-propagated errors grow
sparser -- the dynamic the paper measures in Fig. 3b and exploits with
the sparse kernels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer


class ReLULayer(Layer):
    """Elementwise ``max(0, x)``.

    Both passes are single arithmetic sweeps (``np.maximum`` and a
    multiply by the boolean mask) rather than ``np.where`` selects, so
    non-finite values are *not* laundered into zeros: a ``NaN``
    activation stays ``NaN`` in the output (``+inf`` passes, ``-inf``
    clamps to 0), and a masked ``inf``/``NaN`` error comes back as
    ``NaN`` (``inf * 0``).  Poison therefore reaches the loss, where the
    SGD non-finite guard drops the batch, instead of vanishing here.  On
    finite values the results equal the select formulation's; a masked
    negative error reads ``-0.0``, which compares and counts as zero.
    """

    kind = "relu"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._cached_mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._cached_mask = inputs > 0
        return np.maximum(inputs, 0)

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_mask is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        if out_error.shape != self._cached_mask.shape:
            raise ShapeError(
                f"relu backward shape {out_error.shape} != "
                f"{self._cached_mask.shape}"
            )
        return out_error * self._cached_mask


class FlattenLayer(Layer):
    """Flatten per-image activations to vectors for fully connected layers."""

    kind = "flatten"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._cached_shape: tuple[int, ...] | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        size = 1
        for extent in input_shape:
            size *= extent
        return (size,)

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._cached_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_shape is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        return out_error.reshape(self._cached_shape)
