"""The sparse back-propagation convolution engine (paper Sec. 4.2).

Deploys the generated pointer-shifting kernels for the two BP computations.
The paper uses Sparse-Kernel for BP only; for interface completeness the
forward pass delegates to the vectorized reference convolution (spg-CNN's
autotuner never selects the sparse engine for FP, where activations rather
than error gradients flow and the paper exploits no sparsity).

Like GEMM-in-Parallel, the sparse engine parallelizes across training
inputs, one image's kernels per core.
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops import layout, reference
from repro.ops.engine import ConvEngine, register_engine
from repro.ops.workspace import Workspace
from repro.sparse.codegen import emit_sparse_backward_data, emit_sparse_backward_weights
from repro.sparse.ctcsr import DEFAULT_TILE_COLS
from repro.sparse.kernels import compress_error


@register_engine("sparse")
class SparseBPEngine(ConvEngine):
    """CT-CSR pointer-shifting sparse kernels for backward propagation."""

    def __init__(self, spec: ConvSpec, num_cores: int = 1,
                 tile_cols: int = DEFAULT_TILE_COLS):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.tile_cols = tile_cols
        self._bp_kernel = emit_sparse_backward_data(spec)
        self._dw_kernel = emit_sparse_backward_weights(spec)
        #: Reusable scratch (HWC error image, sparse dW layout).
        self.workspace = Workspace()

    def release_workspace(self) -> None:
        """Drop the reusable scratch buffers."""
        self.workspace.release()

    @property
    def backward_data_source(self) -> str:
        """Source text of the generated EI kernel."""
        return self._bp_kernel.source

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
        w_layout = layout.weights_to_sparse_layout(self.spec, weights)
        batch = out_error.shape[0]
        in_err = np.empty((batch,) + self.spec.input_shape, dtype=out_error.dtype)
        for b in range(batch):
            eo = compress_error(self.spec, out_error[b], tile_cols=self.tile_cols)
            ei_hwc = self.workspace.zeros(
                "bp/ei_hwc", (self.spec.ny, self.spec.nx, self.spec.nc),
                out_error.dtype,
            )
            self._bp_kernel(eo, w_layout, ei_hwc)
            in_err[b] = layout.hwc_to_chw(ei_hwc)
        return self._cropped(in_err, crop)

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        dw_layout = self.workspace.zeros(
            "bw/dw_layout",
            (self.spec.fy, self.spec.fx, self.spec.nf, self.spec.nc),
            out_error.dtype,
        )
        for b in range(out_error.shape[0]):
            eo = compress_error(self.spec, out_error[b], tile_cols=self.tile_cols)
            inputs_hwc = layout.chw_to_hwc(inputs[b])
            self._dw_kernel(eo, inputs_hwc, dw_layout)
        # [Ky, Kx, Nf, Nc] -> [Nf, Nc, Ky, Kx]
        return np.ascontiguousarray(np.transpose(dw_layout, (2, 3, 0, 1)))
