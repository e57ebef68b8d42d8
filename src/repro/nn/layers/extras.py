"""Additional layers of the AlexNet-era networks the paper benchmarks.

AlexNet (the paper's ImageNet-1K benchmark) interleaves its convolutions
with local response normalization, and the CIFAR-10 reference models use
dropout; average pooling rounds out the pooling family.  These layers
make the zoo's trainable variants structurally faithful to the original
networks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer, LayerStructure


class AvgPoolLayer(Layer):
    """Average pooling over ``[B, C, Y, X]``."""

    kind = "avgpool"

    def __init__(self, kernel: int, stride: int | None = None, name: str = ""):
        super().__init__(name)
        if kernel <= 0:
            raise ShapeError(f"pool kernel must be positive, got {kernel}")
        self.kernel = kernel
        self.stride = stride or kernel
        if self.stride <= 0:
            raise ShapeError(f"pool stride must be positive, got {self.stride}")
        self._cached_input_shape: tuple[int, ...] | None = None

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

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"expected [B, C, Y, X] input, got {inputs.shape}")
        b, c, y, x = inputs.shape
        oy, ox = self._out_extent(y), self._out_extent(x)
        bs, cs, ys, xs = inputs.strides
        windows = np.lib.stride_tricks.as_strided(
            inputs,
            shape=(b, c, oy, ox, self.kernel, self.kernel),
            strides=(bs, cs, ys * self.stride, xs * self.stride, ys, xs),
        )
        if training:
            self._cached_input_shape = inputs.shape
        return windows.mean(axis=(4, 5)).astype(inputs.dtype, copy=False)

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_input_shape is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        b, c, y, x = self._cached_input_shape
        oy, ox = out_error.shape[2:]
        share = out_error / (self.kernel * self.kernel)
        in_error = np.zeros(self._cached_input_shape, dtype=out_error.dtype)
        for ky in range(self.kernel):
            for kx in range(self.kernel):
                ys = slice(ky, ky + (oy - 1) * self.stride + 1, self.stride)
                xs = slice(kx, kx + (ox - 1) * self.stride + 1, self.stride)
                in_error[:, :, ys, xs] += share
        return in_error


class LocalResponseNormLayer(Layer):
    """AlexNet's cross-channel local response normalization.

    ``out[c] = in[c] / (k + alpha/n * sum_{c'} in[c']^2) ** beta`` with the
    sum over a window of ``n`` adjacent channels.
    """

    kind = "lrn"

    def __init__(self, size: int = 5, alpha: float = 1e-4, beta: float = 0.75,
                 k: float = 2.0, name: str = ""):
        super().__init__(name)
        if size <= 0 or size % 2 == 0:
            raise ShapeError(f"LRN size must be a positive odd int, got {size}")
        if alpha <= 0 or beta <= 0 or k <= 0:
            raise ShapeError("LRN alpha, beta and k must be positive")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self._cached: tuple[np.ndarray, np.ndarray] | None = None

    def structure(self) -> LayerStructure:
        return (self.kind, self.name,
                (("size", self.size), ("alpha", self.alpha),
                 ("beta", self.beta), ("k", self.k)))

    def _window_sums(self, squares: np.ndarray) -> np.ndarray:
        half = self.size // 2
        c = squares.shape[1]
        padded = np.pad(squares, ((0, 0), (half, half), (0, 0), (0, 0)))
        cumsum = np.concatenate(
            [np.zeros_like(padded[:, :1]), np.cumsum(padded, axis=1)], axis=1
        )
        return cumsum[:, self.size : self.size + c] - cumsum[:, :c]

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"expected [B, C, Y, X] input, got {inputs.shape}")
        sums = self._window_sums(inputs.astype(np.float64) ** 2)
        scale = self.k + (self.alpha / self.size) * sums
        out = inputs * (scale ** -self.beta)
        if training:
            self._cached = (inputs, scale)
        return out.astype(inputs.dtype, copy=False)

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        inputs, scale = self._cached
        if out_error.shape != inputs.shape:
            raise ShapeError(
                f"LRN backward shape {out_error.shape} != {inputs.shape}"
            )
        # d out[c]/d in[c'] = scale^-beta * delta(c,c')
        #   - 2*alpha*beta/n * in[c] * in[c'] * scale^-(beta+1)  (c' in window)
        direct = out_error * (scale ** -self.beta)
        weighted = out_error * inputs * (scale ** -(self.beta + 1.0))
        window = self._window_sums(weighted)
        coupling = (2.0 * self.alpha * self.beta / self.size) * inputs * window
        return (direct - coupling).astype(out_error.dtype, copy=False)


class DropoutLayer(Layer):
    """Inverted dropout: active in training, identity at inference."""

    kind = "dropout"

    def __init__(self, rate: float = 0.5, name: str = "", seed: int = 0):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._seed = seed
        # Made at the first draw: a replica's never draws.
        self._rng: np.random.Generator | None = None
        self._cached_mask: np.ndarray | None = None
        self._preset_keep: np.ndarray | None = None

    def structure(self) -> LayerStructure:
        # No seed: a replica never draws, it is handed the parent's rows.
        return (self.kind, self.name, (("rate", self.rate),))

    def draw_noise(self, shape: tuple[int, ...]) -> np.ndarray | None:
        """The boolean keep-mask of one training forward over ``shape``."""
        if self.rate == 0.0:
            return None
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng.random(shape) < 1.0 - self.rate

    def preset_noise(self, noise: np.ndarray) -> None:
        self._preset_keep = noise

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._cached_mask = None
            return inputs
        keep, self._preset_keep = self._preset_keep, None
        if keep is None:
            keep = self.draw_noise(inputs.shape)
        self._cached_mask = (keep / (1.0 - self.rate)).astype(inputs.dtype)
        return inputs * self._cached_mask

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if self._cached_mask is None:
            # Forward ran in inference mode or with rate 0: identity.
            return out_error
        if out_error.shape != self._cached_mask.shape:
            raise ShapeError(
                f"dropout backward shape {out_error.shape} != "
                f"{self._cached_mask.shape}"
            )
        return out_error * self._cached_mask
