"""The sparse back-propagation convolution engine (paper Sec. 4.2).

Deploys the generated pointer-shifting kernels for the two BP
computations: one C unit per spec (:mod:`repro.sparse.codegen_c`),
compiled at first use and loaded through ``ctypes``
(:mod:`repro.native`).  The paper uses Sparse-Kernel for BP only
(spg-CNN's autotuner never selects the sparse engine for FP, where
activations rather than error gradients flow and the paper exploits no
sparsity), so the forward pass -- like every call the unit cannot serve
-- is :mod:`repro.ops.reference`'s (:class:`repro.ops.engine.NativeLowering`).

Like GEMM-in-Parallel, the sparse engine parallelizes across training
inputs, one image's kernels per core.  Equal
:attr:`SparseBPEngine.artifact` means equal bits.
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops import reference
from repro.ops.engine import NativeLowering, register_engine
from repro.ops.reference_engine import ReferenceEngine
from repro.ops.workspace import Workspace
from repro.stencil.loopir import PoolWindow


def _self_check(kernels) -> None:
    """Differential check of a freshly built unit against
    :mod:`repro.ops.reference`: a random sparse batch, then an error
    that is non-zero only at the plane's corner positions (where an
    off-by-one tap offset or slice bound lands outside the image); then
    the pooled export (:func:`_check_pooled`)."""
    from repro.native import check_agrees

    spec = kernels.spec
    rng = np.random.default_rng(0)
    scratch = kernels.scratch(Workspace())
    inputs = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    random = rng.standard_normal((2,) + spec.output_shape).astype(np.float32)
    # 90% sparse, but never so sparse that a small plane is left with a
    # handful.
    keep = max(0.1, min(1.0, 512 / random.size))
    random[rng.random(random.shape) >= keep] = 0.0
    corners = np.zeros_like(random[:1])
    corners[:, :, ::max(spec.out_ny - 1, 1), ::max(spec.out_nx - 1, 1)] = 1.0
    crop = min(1, (min(spec.ny, spec.nx) - 1) // 2)

    for name, error in (("random", random), ("corner", corners)):
        where = f"({name}) for {spec.describe()}"
        full = reference.batch_backward_data(spec, error, weights)
        check_agrees(f"backward_data{where}",
                     kernels.backward_data(error, weights, 0, scratch), full)
        check_agrees(f"backward_data{where}, crop={crop}",
                     kernels.backward_data(error, weights, crop, scratch),
                     full[:, :, crop:spec.ny - crop, crop:spec.nx - crop])
        images = inputs[:error.shape[0]]
        check_agrees(f"backward_weights{where}",
                     kernels.backward_weights(error, images, scratch),
                     reference.batch_backward_weights(spec, error, images))
    _check_pooled(kernels, inputs, scratch, rng)


def _check_pooled(kernels, images: np.ndarray, scratch: np.ndarray,
                  rng: np.random.Generator) -> None:
    """The pooled export is admitted only bit for bit what it replaces:
    the fused unit's ``unpool`` (its contract, :func:`reference.unpool`)
    and then this unit's own ``dw`` -- conv error, dW and non-zero count
    -- on random operands and on an error non-zero only at the corner
    windows, each routed to its window's last element; for tiling,
    gapped and one-element windows where they fit.  A poisoned error and
    an argmax outside its window must be counted."""
    from repro.native import NativeBuildError

    spec = kernels.spec
    conv_shape = (len(images),) + spec.output_shape
    for window in (PoolWindow(2, 2), PoolWindow(2, 3), PoolWindow(1, 1)):
        if window.kernel > min(spec.out_ny, spec.out_nx):
            continue
        where = (f"for {spec.describe()}, window "
                 f"{window.kernel}/{window.stride}")
        shape = (len(images), spec.nf, window.out_extent(spec.out_ny),
                 window.out_extent(spec.out_nx))
        out = rng.standard_normal(shape).astype(np.float32)
        random = rng.standard_normal(shape).astype(np.float32)
        random[rng.random(shape) < 0.3] = 0.0
        corners = np.zeros_like(random)
        corners[:, :, ::max(shape[2] - 1, 1), ::max(shape[3] - 1, 1)] = -1.5
        last = np.full(shape, window.kernel ** 2 - 1, np.uint8)
        for name, pooled, error, argmax in (
                ("random", out, random,
                 rng.integers(0, window.kernel ** 2, shape, np.uint8)),
                ("corner", np.abs(out), corners, last)):
            conv_error, d_weights, nonzero, rejected = \
                kernels.pooled_backward(pooled, argmax, error, window,
                                        images, scratch)
            routed = reference.unpool(pooled, argmax, error, window.kernel,
                                      window.stride, conv_shape)
            if (conv_error.tobytes() != routed.tobytes()
                    or d_weights.tobytes() != kernels.backward_weights(
                        routed, images, scratch).tobytes()
                    or nonzero != np.count_nonzero(routed) or rejected):
                raise NativeBuildError(
                    f"native pooled export ({name}) disagrees with its "
                    f"chain {where}")
        error[0, 0, 0, 0] = np.nan
        argmax[-1, -1, -1, -1] = window.kernel ** 2
        if kernels.pooled_backward(out, argmax, error, window, images,
                                   scratch)[3] != 2:
            raise NativeBuildError(
                f"native pooled export miscounted a poisoned error or a "
                f"stray argmax {where}")


def _load_native(spec: ConvSpec):
    """Build or fetch, self-check and load ``spec``'s C kernels."""
    from repro import native
    from repro.sparse.codegen_c import NativeSparseKernels, emit_sparse_c_unit

    return native.load_kernels(NativeSparseKernels, spec,
                               emit_sparse_c_unit(spec), _self_check)


@register_engine("sparse")
class SparseBPEngine(NativeLowering, ReferenceEngine):
    """CT-CSR pointer-shifting sparse kernels for backward propagation."""

    lowered_phases = ("bp",)

    def __init__(self, spec: ConvSpec):
        super().__init__(spec)
        self._resolve_native()
        #: Reusable scratch: the C kernels' working memory.
        self.workspace = Workspace()

    def _native_loader(self) -> tuple:
        return (_load_native, self.spec)

    def release_workspace(self) -> None:
        """Drop the reusable scratch buffers."""
        self.workspace.release()

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_weights(weights)
        native = self._native
        if native is not None and self._native_operands(out_error, weights):
            return native.backward_data(out_error, weights, crop,
                                        native.scratch(self.workspace))
        return self._cropped(
            reference.batch_backward_data(self.spec, out_error, weights), crop)

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        native = self._native
        if native is not None and self._native_operands(out_error, inputs):
            return native.backward_weights(out_error, inputs,
                                           native.scratch(self.workspace))
        return reference.batch_backward_weights(self.spec, out_error, inputs)

    def pooled_backward(self, out: np.ndarray, argmax: np.ndarray,
                        error: np.ndarray, window: PoolWindow,
                        inputs: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, int, int] | None:
        """The ReLU + max-pool backward of a fused forward and Eq. 4 on
        it, in one C call (:meth:`NativeSparseKernels.pooled_backward`):
        ``(conv error, dW, its non-zeros, windows rejected)``; ``None``
        where the unit does not serve it -- no C lowering, operands it
        cannot read, windows that overlap."""
        native = self._native
        if native is None or window.stride < window.kernel \
                or not self._native_operands(out, error, inputs):
            return None
        return native.pooled_backward(out, argmax, error, window, inputs,
                                      native.scratch(self.workspace))
