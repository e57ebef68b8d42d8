"""Convolution execution engines: the common interface and registry.

An *engine* is a functional implementation of the three convolution
computations of CNN training -- forward (Eq. 2), backward-data (Eq. 3) and
backward-weights (Eq. 4) -- over a *batch* of images.  Engines correspond
to the paper's execution techniques:

* ``"parallel-gemm"``   -- Unfold + one Parallel-GEMM per image (baseline)
* ``"gemm-in-parallel"`` -- Unfold + single-threaded GEMMs, one image per
  core (Sec. 4.1)
* ``"stencil"``          -- generated direct-convolution kernels (Sec. 4.3)
* ``"sparse"``           -- generated CT-CSR sparse BP kernels (Sec. 4.2)

All engines produce bit-identical layer semantics (verified against
:mod:`repro.ops.reference`); they differ in how the work is organized,
which the machine model (:mod:`repro.machine`) prices.  Batches are
``[B, C, Y, X]`` arrays; engines receive pre-padded inputs and pad=0 specs
(the conv layer handles padding).

The one place the layer's padding shows through is ``backward_data``'s
``crop``: the layer discards the input error of its zero border, so it
asks for the interior only and an engine that can avoid computing the
border does (the GEMM engines, see :mod:`repro.ops.gemm_conv`); the
others compute the full plane and return :meth:`ConvEngine._cropped` of
it.

A layer's backward pass is one :meth:`ConvEngine.backward` call: dW and,
when asked, the cropped input error.  By default that is the two calls
above; an engine whose two computations can share an operand overrides
it (the GEMM engines unfold each image's zero-bordered error once for
both, see :mod:`repro.ops.gemm_conv`).
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import PlanError, ShapeError


class ConvEngine(ABC):
    """Batched convolution FP/BP executor."""

    #: Registry key; subclasses override.
    name = "abstract"
    #: What serves the engine's generated kernels (``"c"`` /
    #: ``"reference"``) and, when that is compiled code, what names the
    #: loaded unit; ``None`` for engines with a single form.
    lowering: str | None = None
    artifact: str | None = None
    #: The phases (``"fp"`` / ``"bp"``) whose kernels those two describe;
    #: an engine's other phase has one form, whatever they say.
    lowered_phases: tuple[str, ...] = ()

    def __init__(self, spec: ConvSpec):
        if spec.pad != 0:
            raise ShapeError(
                f"engines expect pre-padded specs (pad=0), got pad={spec.pad}; "
                "padding is applied by the conv layer"
            )
        self.spec = spec

    # -- forward -------------------------------------------------------

    @abstractmethod
    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Compute output activations for a ``[B, Nc, Ny, Nx]`` batch."""

    # -- backward ------------------------------------------------------

    @abstractmethod
    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        """Compute input-error activations EI (Eq. 3) for a batch.

        Returns ``[B, *spec.cropped_input_shape(crop)]``: the input error
        without its outermost ``crop`` pixels per side, each element
        equal to the one the full (``crop=0``) result holds there.
        """

    @abstractmethod
    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Compute the summed weight gradient dW (Eq. 4) over the batch."""

    def backward(self, out_error: np.ndarray, inputs: np.ndarray,
                 weights: np.ndarray, crop: int = 0,
                 need_input_error: bool = True
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """dW and, with ``need_input_error``, the input error of a batch.

        ``crop`` is :meth:`backward_data`'s and also names the layer's
        pad border: ``inputs`` hold zeros in their outermost ``crop``
        pixels per side, which an engine may rely on.  Returns
        ``(backward_weights(...), backward_data(..., crop) or None)``,
        each element equal to what those calls return (an override may
        sum dW in another order, within rounding).
        """
        d_weights = self.backward_weights(out_error, inputs)
        in_error = (self.backward_data(out_error, weights, crop)
                    if need_input_error else None)
        return d_weights, in_error

    # -- shared helpers --------------------------------------------------

    def _cropped(self, in_error: np.ndarray, crop: int) -> np.ndarray:
        """The interior of a full ``[B, Nc, Ny, Nx]`` input error."""
        self.spec.cropped_input_shape(crop)  # validates crop
        if crop == 0:
            return in_error
        return in_error[:, :, crop:-crop, crop:-crop]

    def _check_batch_inputs(self, inputs: np.ndarray) -> None:
        if inputs.ndim != 4 or inputs.shape[1:] != self.spec.input_shape:
            raise ShapeError(
                f"batch input shape {inputs.shape} != (B, *{self.spec.input_shape})"
            )

    def _check_batch_out_error(self, out_error: np.ndarray) -> None:
        if out_error.ndim != 4 or out_error.shape[1:] != self.spec.output_shape:
            raise ShapeError(
                f"batch output-error shape {out_error.shape} != "
                f"(B, *{self.spec.output_shape})"
            )

    def _check_weights(self, weights: np.ndarray) -> None:
        if weights.shape != self.spec.weight_shape:
            raise ShapeError(
                f"weight shape {weights.shape} != spec {self.spec.weight_shape}"
            )


class NativeLowering:
    """Mixin for an engine whose generated kernels are C units.

    One fallback rule: every call a C unit does not serve is served by
    :mod:`repro.ops.reference`.  Which one serves is decided by what can
    be observed, never by an option.  At construction: a compiler was
    found, the geometry is one the printer covers, the unit built (or
    was cached), loaded, and a fresh build agreed with the reference on
    random and edge-position operands -- ``lowering == "c"``; anything
    else leaves ``"reference"`` and the reason in
    :attr:`lowering_reason`.  Per call: the C kernels take C-contiguous
    ``float32`` operands, anything else goes to the reference, as does
    every phase outside :attr:`ConvEngine.lowered_phases`.  Equal
    :attr:`artifact`, equal bits.
    """

    #: The loaded C kernels (or None) and, if None, why.
    _native: Any = None
    lowering_reason = ""

    def _native_loader(self) -> tuple[Any, ...]:
        """``(loader, *key)`` for :func:`repro.native.kernels_for`."""
        raise NotImplementedError

    def _resolve_native(self) -> None:
        from repro import native

        self._native, self.lowering_reason = native.kernels_for(
            *self._native_loader())

    def __getstate__(self) -> dict[str, Any]:
        # Loaded code does not pickle; the far side loads its own.
        return {key: value for key, value in self.__dict__.items()
                if key not in ("_native", "lowering_reason")}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._resolve_native()

    @property
    def lowering(self) -> str:
        """``"c"`` when the compiled kernels serve, else ``"reference"``."""
        return "c" if self._native is not None else "reference"

    @property
    def artifact(self) -> str | None:
        """What names the loaded machine code, if any is loaded."""
        return self._native.artifact if self._native is not None else None

    @staticmethod
    def _native_operands(*arrays: np.ndarray) -> bool:
        """Whether the C kernels can read ``arrays`` as they are."""
        return all(a.dtype == np.float32 and a.flags.c_contiguous
                   for a in arrays)


_ENGINE_FACTORIES: dict[str, Callable[..., ConvEngine]] = {}

#: The modules whose ``@register_engine`` classes fill the registry.
#: :func:`engine_names` and :func:`make_engine` import them before they
#: read it, so no caller has to know where an engine is defined.
ENGINE_MODULES = ("repro.ops.gemm_conv", "repro.ops.reference_engine",
                  "repro.sparse.engine", "repro.stencil.engine")


def _factories() -> dict[str, Callable[..., ConvEngine]]:
    """The registry, every engine module imported."""
    for module in ENGINE_MODULES:
        importlib.import_module(module)
    return _ENGINE_FACTORIES


def register_engine(name: str) -> Callable[[type], type]:
    """Class decorator registering an engine under ``name``."""

    def decorator(cls: type) -> type:
        cls.name = name
        _ENGINE_FACTORIES[name] = cls
        return cls

    return decorator


def engine_names() -> tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_factories()))


def make_engine(name: str, spec: ConvSpec) -> ConvEngine:
    """Instantiate the engine registered under ``name`` for ``spec``."""
    try:
        factory = _factories()[name]
    except KeyError:
        raise PlanError(f"unknown engine {name!r}; known: {engine_names()}") from None
    return factory(spec)
