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


def _self_check(kernels) -> None:
    """Differential check of a freshly built unit against
    :mod:`repro.ops.reference`: a random sparse batch, then an error
    that is non-zero only at the plane's corner positions (where an
    off-by-one tap offset or slice bound lands outside the image)."""
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

    def __init__(self, spec: ConvSpec, num_cores: int = 1):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
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
