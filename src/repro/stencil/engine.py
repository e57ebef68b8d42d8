"""The stencil convolution engine (paper Sec. 4.3).

Wraps the emitted kernels into a :class:`repro.ops.engine.ConvEngine`.
The paper deploys the stencil kernels for forward propagation
(Stencil-Kernel (FP)); for interface completeness this engine also
provides the transposed-stencil backward kernels, which spg-CNN's
autotuner may use when they win.

The engine is schedule-parameterized: each kernel family accepts a
:class:`repro.stencil.passes.SchedulePipeline` (``None`` means the
default pipeline).  Pipelines are frozen and picklable, so an engine
carrying a searched schedule crosses the process-backend spawn boundary
intact.

The FP kernel has two lowerings: generated numpy statements
(:mod:`repro.stencil.emit`) and, for stride-1 specs, generated C
(:mod:`repro.stencil.emit_c`, compiled at first use through
:mod:`repro.native`); :class:`repro.ops.engine.NativeLowering` chooses,
and ``lowering`` / ``artifact`` name the FP kernel.  The two sum in
different orders, so they agree to rounding, not bitwise.  The backward
kernels have the Python form only.

Like GEMM-in-Parallel, the stencil engine parallelizes across training
inputs: each core runs the generated single-threaded kernel on whole
images (the machine model prices the batch partitioning).
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops.engine import ConvEngine, NativeLowering, register_engine
from repro.stencil.basic_block import TileChoice
from repro.stencil.emit import (
    emit_backward_data_kernel,
    emit_backward_weights_kernel,
    emit_forward_kernel,
)
from repro.stencil.passes import SchedulePipeline, default_pipeline


def python_forward(spec: ConvSpec, pipeline: SchedulePipeline | None,
                   inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The batch's convolution through the Python lowering."""
    kernel = emit_forward_kernel(spec, pipeline)
    out = np.zeros((inputs.shape[0],) + spec.output_shape, dtype=inputs.dtype)
    for img, dst in zip(inputs, out):
        kernel(img, weights, dst)
    return out


@register_engine("stencil")
class StencilEngine(NativeLowering, ConvEngine):
    """Direct convolution via generated, shape-specialized stencil kernels."""

    lowered_phases = ("fp",)

    def __init__(
        self,
        spec: ConvSpec,
        num_cores: int = 1,
        pipeline: SchedulePipeline | None = None,
        bp_pipeline: SchedulePipeline | None = None,
        dw_pipeline: SchedulePipeline | None = None,
    ):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.pipeline = pipeline
        self.bp_pipeline = bp_pipeline
        self.dw_pipeline = dw_pipeline
        self._fp_kernel = emit_forward_kernel(spec, pipeline)
        self._bp_kernel = emit_backward_data_kernel(spec, bp_pipeline)
        self._dw_kernel = emit_backward_weights_kernel(spec, dw_pipeline)
        self._resolve_native()

    def _native_loader(self) -> tuple:
        from repro.stencil.emit_c import load_stencil_kernels

        return (load_stencil_kernels, self.spec, self.pipeline)

    # -- generated-code accessors (for tests and inspection) ------------

    @property
    def forward_source(self) -> str:
        """Source text of the generated (Python) FP kernel."""
        return self._fp_kernel.source

    @property
    def tile(self) -> TileChoice:
        """The register-tiled block of the schedule the serving printer
        lowered (its ``vectorize`` pass's budget and width)."""
        pipeline = self.pipeline or default_pipeline("fp")
        if self._native is not None:
            from repro.stencil.emit_c import host_pipeline

            pipeline = host_pipeline(self.pipeline, "fp")
        return pipeline.vector_block(self.spec)

    def block_stats(self) -> dict[str, float]:
        """Instruction statistics of that basic block."""
        return self.tile.block.summary()

    # -- ConvEngine interface -------------------------------------------

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        if self._native is not None and self._native_operands(inputs, weights):
            return self._native.forward(inputs, weights)
        return python_forward(self.spec, self.pipeline, inputs, weights)

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
