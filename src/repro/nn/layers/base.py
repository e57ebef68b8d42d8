"""Layer base class of the training framework.

Layers consume and produce batched activations (leading batch dimension)
and cache whatever forward state their backward pass needs.  Parameters
and gradients are exposed as name->array dictionaries so the SGD trainer
can update any layer uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

#: ``(kind, name, constructor options)`` -- see :meth:`Layer.structure`.
LayerStructure = tuple[str, str, tuple[tuple[str, Any], ...]]


class Layer(ABC):
    """One stage of the network's forward/backward computation."""

    #: Human-readable layer-type name; subclasses override.
    kind = "layer"
    #: The trainable parameters, by name: each lives in the attribute of
    #: its name and its gradient in ``d_<name>``.
    param_keys: tuple[str, ...] = ()

    def __init__(self, name: str = ""):
        self.name = name or self.kind

    @abstractmethod
    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer's output activations for a batch."""

    @abstractmethod
    def backward(self, out_error: np.ndarray) -> np.ndarray:
        """Back-propagate the output error; accumulate parameter gradients.

        Must be called after :meth:`forward` with ``training=True`` so the
        cached activations are available.
        """

    def structure(self) -> LayerStructure:
        """What rebuilds this layer without its parameters or its pool.

        A picklable, hashable ``(kind, name, options)`` triple:
        ``LAYER_KINDS[kind](name=name, **dict(options))``
        (:data:`repro.nn.network.LAYER_KINDS`), given the parameter and
        gradient arrays where the layer has :attr:`param_keys`
        (``params=`` / ``grads=``, see
        :meth:`repro.nn.network.Network.replica`), constructs an inline
        layer computing the same function.  The sharded training step ships
        it to the workers, whose replicas are cached under
        it -- so it must change whenever the computation does (a conv
        layer's options carry the engines deployed right now).
        """
        return (self.kind, self.name, ())

    def params(self) -> dict[str, np.ndarray]:
        """Trainable parameter arrays, by :attr:`param_keys`."""
        return {key: getattr(self, key) for key in self.param_keys}

    def grads(self) -> dict[str, np.ndarray]:
        """Gradient arrays matching :meth:`params` keys."""
        return {key: getattr(self, f"d_{key}") for key in self.param_keys}

    def bind_params(self, params: dict[str, np.ndarray],
                    grads: dict[str, np.ndarray] | None = None) -> None:
        """Rebind parameter (and gradient) arrays, e.g. to shared views.

        Keys are those of :attr:`param_keys`.
        """
        for key, array in params.items():
            setattr(self, key, array)
        for key, array in (grads or {}).items():
            setattr(self, f"d_{key}", array)

    def draw_noise(self, shape: tuple[int, ...]) -> np.ndarray | None:
        """Draw this step's random state for a batch of ``shape``.

        ``None`` for deterministic layers.  A stochastic layer advances
        its generator exactly as its ``forward`` would; the sharded step
        draws the whole batch's noise in the parent, in layer order, and
        hands each shard its rows through :meth:`preset_noise`.
        """
        return None

    def preset_noise(self, noise: np.ndarray) -> None:
        """Use ``noise`` (rows of :meth:`draw_noise`) in the next forward."""
        raise NotImplementedError(f"{self.kind} layers draw no noise")

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero before a new batch."""
        for g in self.grads().values():
            g[...] = 0.0

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-image output shape given the per-image input shape.

        Shape-preserving layers inherit this default.
        """
        return input_shape

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
