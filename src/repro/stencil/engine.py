"""The stencil convolution engine (paper Sec. 4.3).

Combines the register-tile optimizer, the tiling schedule and the emitted
kernels into a :class:`repro.ops.engine.ConvEngine`.  The paper deploys the
stencil kernels for forward propagation (Stencil-Kernel (FP)); for
interface completeness this engine also provides the transposed-stencil
backward kernels, which spg-CNN's autotuner may use when they win.

Since the loop-IR refactor the engine is schedule-parameterized: each
kernel family accepts a :class:`repro.stencil.passes.SchedulePipeline`
(``None`` means the default pipeline, which reproduces the original
emission byte for byte).  Pipelines are frozen and picklable, so an
engine carrying a searched schedule crosses the process-backend spawn
boundary intact.

Like GEMM-in-Parallel, the stencil engine parallelizes across training
inputs: each core runs the generated single-threaded kernel on whole
images (the machine model prices the batch partitioning).
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops.engine import ConvEngine, register_engine
from repro.stencil.basic_block import (
    DEFAULT_NUM_REGISTERS,
    DEFAULT_VECTOR_WIDTH,
    TileChoice,
    optimize_register_tile,
)
from repro.stencil.emit import (
    emit_backward_data_kernel,
    emit_backward_weights_kernel,
    emit_forward_kernel,
)
from repro.stencil.passes import SchedulePipeline
from repro.stencil.schedule import StencilSchedule, generate_schedule


@register_engine("stencil")
class StencilEngine(ConvEngine):
    """Direct convolution via generated, shape-specialized stencil kernels."""

    def __init__(
        self,
        spec: ConvSpec,
        num_cores: int = 1,
        num_registers: int = DEFAULT_NUM_REGISTERS,
        vector_width: int = DEFAULT_VECTOR_WIDTH,
        cache_bytes: int = 256 * 1024,
        pipeline: SchedulePipeline | None = None,
        bp_pipeline: SchedulePipeline | None = None,
        dw_pipeline: SchedulePipeline | None = None,
    ):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.tile: TileChoice = optimize_register_tile(
            spec.fy, spec.fx, num_registers=num_registers, vector_width=vector_width
        )
        self.schedule: StencilSchedule = generate_schedule(spec, cache_bytes=cache_bytes)
        self.pipeline = pipeline
        self.bp_pipeline = bp_pipeline
        self.dw_pipeline = dw_pipeline
        self._fp_kernel = emit_forward_kernel(spec, pipeline)
        self._bp_kernel = emit_backward_data_kernel(spec, bp_pipeline)
        self._dw_kernel = emit_backward_weights_kernel(spec, dw_pipeline)

    # -- generated-code accessors (for tests and inspection) ------------

    @property
    def forward_source(self) -> str:
        """Source text of the generated FP kernel."""
        return self._fp_kernel.source

    def block_stats(self) -> dict[str, float]:
        """Instruction statistics of the optimized basic block."""
        return self.tile.block.summary()

    # -- ConvEngine interface -------------------------------------------

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        out = np.zeros((inputs.shape[0],) + self.spec.output_shape, dtype=inputs.dtype)
        for img, dst in zip(inputs, out):
            self._fp_kernel(img, weights, dst)
        return out

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_weights(weights)
        in_err = np.zeros(
            (out_error.shape[0],) + self.spec.input_shape, dtype=out_error.dtype
        )
        for err, dst in zip(out_error, in_err):
            self._bp_kernel(err, weights, dst)
        return self._cropped(in_err, crop)

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        dw = np.zeros(self.spec.weight_shape, dtype=out_error.dtype)
        for err, img in zip(out_error, inputs):
            self._dw_kernel(err, img, dw)
        return dw
