"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer, LayerStructure


class DenseLayer(Layer):
    """Affine layer ``y = x . W^T + b`` over flattened activations."""

    kind = "dense"
    param_keys = ("weights", "bias")

    def __init__(
        self,
        in_features: int,
        out_features: int,
        name: str = "",
        rng: np.random.Generator | None = None,
        params: dict[str, np.ndarray] | None = None,
        grads: dict[str, np.ndarray] | None = None,
    ):
        """``params`` / ``grads``: arrays to bind instead of drawing the
        parameters from ``rng`` and allocating zeroed gradients (see
        :meth:`repro.nn.network.Network.replica`)."""
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"feature counts must be positive: {in_features}, {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        if params is None:
            rng = rng or np.random.default_rng(0)
            scale = np.sqrt(2.0 / in_features)
            params = {
                "weights": (rng.standard_normal((out_features, in_features))
                            * scale).astype(np.float32),
                "bias": np.zeros(out_features, dtype=np.float32),
            }
        self.bind_params(params, grads or {
            key: np.zeros_like(array) for key, array in params.items()})
        # Owed: the first backward may write its product.
        self._dw_owed = True
        self._cached_input: np.ndarray | None = None

    # ``d_weights`` after :meth:`zero_grads` is *owed* zeros: the next
    # backward writes ``out_error.T @ x`` straight into it, so the weight
    # gradient is neither cleared nor added to.  Whoever reads it before
    # that gets the zeros (and the next backward adds to them).
    @property
    def d_weights(self) -> np.ndarray:
        if self._dw_owed:
            self._d_weights[...] = 0.0
            self._dw_owed = False
        return self._d_weights

    @d_weights.setter
    def d_weights(self, array: np.ndarray) -> None:
        self._d_weights = array
        self._dw_owed = False

    def zero_grads(self) -> None:
        self.d_bias[...] = 0.0
        self._dw_owed = True

    def structure(self) -> LayerStructure:
        return (self.kind, self.name,
                (("in_features", self.in_features),
                 ("out_features", self.out_features)))

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
        # ``W @ x^T`` is the faster orientation of the same BLAS product
        # (2x at MNIST's 8x2880 . 2880x100); the bias add lays the result
        # out C-ordered, as ``x @ W^T + b`` would, so what reduces over it
        # downstream runs in the same order.
        out = np.empty((inputs.shape[0], self.out_features),
                       np.result_type(inputs, self.weights, self.bias))
        np.add(np.matmul(self.weights, inputs.T).T, self.bias, out=out)
        return out

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_input is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        if out_error.shape != (self._cached_input.shape[0], self.out_features):
            raise ShapeError(
                f"dense backward shape {out_error.shape} incompatible with "
                f"({self._cached_input.shape[0]}, {self.out_features})"
            )
        x = self._cached_input
        if self._dw_owed and \
                self._d_weights.dtype == np.result_type(out_error, x):
            np.matmul(out_error.T, x, out=self._d_weights)
            self._dw_owed = False
        else:
            grad = self.d_weights
            grad += out_error.T @ x
        self.d_bias += out_error.sum(axis=0)
        return out_error @ self.weights
