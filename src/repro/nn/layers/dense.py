"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer, LayerStructure


class DenseLayer(Layer):
    """Affine layer ``y = x . W^T + b`` over flattened activations."""

    kind = "dense"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"feature counts must be positive: {in_features}, {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.weights = (
            rng.standard_normal((out_features, in_features)) * scale
        ).astype(np.float32)
        self.bias = np.zeros(out_features, dtype=np.float32)
        self.d_weights = np.zeros_like(self.weights)
        self.d_bias = np.zeros_like(self.bias)
        self._cached_input: np.ndarray | None = None
        # Where backward's ``out_error.T @ x`` lands before it is added.
        self._dw_scratch: np.ndarray | None = None

    def structure(self) -> LayerStructure:
        return (self.kind, self.name,
                (("in_features", self.in_features),
                 ("out_features", self.out_features)))

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weights": self.d_weights, "bias": self.d_bias}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ShapeError(
                f"layer {self.name}: input shape {input_shape} != "
                f"({self.in_features},)"
            )
        return (self.out_features,)

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"layer {self.name}: batch input shape {inputs.shape} != "
                f"(B, {self.in_features})"
            )
        if training:
            self._cached_input = inputs
        return inputs @ self.weights.T + self.bias

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_input is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        if out_error.shape != (self._cached_input.shape[0], self.out_features):
            raise ShapeError(
                f"dense backward shape {out_error.shape} incompatible with "
                f"({self._cached_input.shape[0]}, {self.out_features})"
            )
        dtype = np.result_type(out_error, self._cached_input)
        product = self._dw_scratch
        if product is None or product.dtype != dtype:
            product = self._dw_scratch = np.empty(self.weights.shape, dtype)
        np.matmul(out_error.T, self._cached_input, out=product)
        self.d_weights += product
        self.d_bias += out_error.sum(axis=0)
        return out_error @ self.weights
