"""The sparse back-propagation convolution engine (paper Sec. 4.2).

Deploys the generated pointer-shifting kernels for the two BP computations.
The paper uses Sparse-Kernel for BP only; for interface completeness the
forward pass delegates to the vectorized reference convolution (spg-CNN's
autotuner never selects the sparse engine for FP, where activations rather
than error gradients flow and the paper exploits no sparsity).

Like GEMM-in-Parallel, the sparse engine parallelizes across training
inputs, one image's kernels per core.

Two lowerings
-------------
The kernels exist as generated numpy statements
(:mod:`repro.sparse.codegen`) and as generated C
(:mod:`repro.sparse.codegen_c`), compiled at first use and loaded
through ``ctypes`` (:mod:`repro.native`).  Which one an engine runs is
decided by what it can observe, never by an option
(:class:`repro.ops.engine.NativeLowering`).

The two lowerings sum in different orders, so they agree to rounding
(both inside the shared tolerance against :mod:`repro.ops.reference`),
not bitwise.  Equal :attr:`SparseBPEngine.artifact` means equal bits.
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops import layout, reference
from repro.ops.engine import ConvEngine, NativeLowering, register_engine
from repro.ops.workspace import Workspace
from repro.sparse.codegen import emit_sparse_backward_data, emit_sparse_backward_weights
from repro.sparse.ctcsr import DEFAULT_TILE_COLS
from repro.sparse.kernels import compress_error


def _python_backward_data(spec: ConvSpec, out_error: np.ndarray,
                          weights: np.ndarray, workspace: Workspace,
                          tile_cols: int) -> np.ndarray:
    """Full (uncropped) input error through the Python lowering."""
    kernel = emit_sparse_backward_data(spec)
    w_layout = layout.weights_to_sparse_layout(spec, weights)
    batch = out_error.shape[0]
    in_err = np.empty((batch,) + spec.input_shape, dtype=out_error.dtype)
    for b in range(batch):
        eo = compress_error(spec, out_error[b], tile_cols=tile_cols)
        ei_hwc = workspace.zeros(
            "bp/ei_hwc", (spec.ny, spec.nx, spec.nc), out_error.dtype)
        kernel(eo, w_layout, ei_hwc)
        in_err[b] = layout.hwc_to_chw(ei_hwc)
    return in_err


def _python_backward_weights(spec: ConvSpec, out_error: np.ndarray,
                             inputs: np.ndarray, workspace: Workspace,
                             tile_cols: int) -> np.ndarray:
    """Batch-summed weight gradient through the Python lowering."""
    kernel = emit_sparse_backward_weights(spec)
    dw_layout = workspace.zeros(
        "bw/dw_layout", (spec.fy, spec.fx, spec.nf, spec.nc), out_error.dtype)
    for b in range(out_error.shape[0]):
        eo = compress_error(spec, out_error[b], tile_cols=tile_cols)
        kernel(eo, layout.chw_to_hwc(inputs[b]), dw_layout)
    # [Ky, Kx, Nf, Nc] -> [Nf, Nc, Ky, Kx]
    return np.ascontiguousarray(np.transpose(dw_layout, (2, 3, 0, 1)))


def _self_check(kernels) -> None:
    """Differential check of a freshly built unit against the Python
    lowering: a random sparse batch, then an error that is non-zero
    only at the plane's corner positions (where an off-by-one tap
    offset or slice bound lands outside the image)."""
    from repro.native import check_agrees

    spec = kernels.spec
    rng = np.random.default_rng(0)
    workspace = Workspace()
    scratch = kernels.scratch(workspace)
    inputs = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    random = rng.standard_normal((2,) + spec.output_shape).astype(np.float32)
    # 90% sparse (the Python oracle's cost is the non-zero count), but
    # never so sparse that a small plane is left with a handful.
    keep = max(0.1, min(1.0, 512 / random.size))
    random[rng.random(random.shape) >= keep] = 0.0
    corners = np.zeros_like(random[:1])
    corners[:, :, ::max(spec.out_ny - 1, 1), ::max(spec.out_nx - 1, 1)] = 1.0
    crop = min(1, (min(spec.ny, spec.nx) - 1) // 2)

    for name, error in (("random", random), ("corner", corners)):
        where = f"({name}) for {spec.describe()}"
        full = _python_backward_data(spec, error, weights, workspace,
                                     DEFAULT_TILE_COLS)
        check_agrees(f"backward_data{where}",
                     kernels.backward_data(error, weights, 0, scratch), full)
        check_agrees(f"backward_data{where}, crop={crop}",
                     kernels.backward_data(error, weights, crop, scratch),
                     full[:, :, crop:spec.ny - crop, crop:spec.nx - crop])
        images = inputs[:error.shape[0]]
        check_agrees(f"backward_weights{where}",
                     kernels.backward_weights(error, images, scratch),
                     _python_backward_weights(spec, error, images, workspace,
                                              DEFAULT_TILE_COLS))


def _load_native(spec: ConvSpec):
    """Build or fetch, self-check and load ``spec``'s C kernels."""
    from repro import native
    from repro.sparse.codegen_c import NativeSparseKernels, emit_sparse_c_unit

    return native.load_kernels(NativeSparseKernels, spec,
                               emit_sparse_c_unit(spec), _self_check)


@register_engine("sparse")
class SparseBPEngine(NativeLowering, ConvEngine):
    """CT-CSR pointer-shifting sparse kernels for backward propagation."""

    lowered_phases = ("bp",)

    def __init__(self, spec: ConvSpec, num_cores: int = 1,
                 tile_cols: int = DEFAULT_TILE_COLS):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.tile_cols = tile_cols
        # Emitted (and memoised) now, so a spec the generator rejects
        # fails at construction and no call pays for emission.
        emit_sparse_backward_data(spec)
        emit_sparse_backward_weights(spec)
        self._resolve_native()
        #: Reusable scratch (HWC error image, sparse dW layout, the C
        #: kernels' working memory).
        self.workspace = Workspace()

    def _native_loader(self) -> tuple:
        return (_load_native, self.spec)

    def release_workspace(self) -> None:
        """Drop the reusable scratch buffers."""
        self.workspace.release()

    @property
    def backward_data_source(self) -> str:
        """Source text of the generated (Python) EI kernel."""
        return emit_sparse_backward_data(self.spec).source

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        out = np.empty(
            (inputs.shape[0],) + self.spec.output_shape,
            dtype=np.result_type(inputs, weights),
        )
        for b, img in enumerate(inputs):
            out[b] = reference.forward(self.spec, img, weights)
        return out

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_weights(weights)
        native = self._native
        if native is not None and self._native_operands(out_error, weights):
            return native.backward_data(out_error, weights, crop,
                                        native.scratch(self.workspace))
        return self._cropped(
            _python_backward_data(self.spec, out_error, weights,
                                  self.workspace, self.tile_cols), crop)

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        native = self._native
        if native is not None and self._native_operands(out_error, inputs):
            return native.backward_weights(out_error, inputs,
                                           native.scratch(self.workspace))
        return _python_backward_weights(self.spec, out_error, inputs,
                                        self.workspace, self.tile_cols)
