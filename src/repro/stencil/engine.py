"""The stencil convolution engine (paper Sec. 4.3).

The paper deploys the stencil kernels for forward propagation
(Stencil-Kernel (FP)).  That kernel is the C unit
:mod:`repro.stencil.emit_c` prints from the scheduled nest of the
engine's :class:`repro.stencil.passes.SchedulePipeline` (``None`` means
the default pipeline) for stride-1 specs, compiled at first use through
:mod:`repro.native`; ``lowering`` / ``artifact`` name it.  Pipelines are
frozen and picklable, so an engine carrying a searched schedule crosses
the process-backend spawn boundary intact.

Everything else -- a spec the printer does not cover, a host without a
compiler, operands the C kernel cannot read, and the two backward
phases, which the tuner never deploys on this engine -- is served by
:mod:`repro.ops.reference` (:class:`repro.ops.engine.NativeLowering`).

Like GEMM-in-Parallel, the stencil engine parallelizes across training
inputs: each core runs the generated single-threaded kernel on whole
images (the machine model prices the batch partitioning).
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops import reference
from repro.ops.engine import NativeLowering, register_engine
from repro.ops.reference_engine import ReferenceEngine
from repro.stencil.basic_block import TileChoice
from repro.stencil.passes import SchedulePipeline, default_pipeline


@register_engine("stencil")
class StencilEngine(NativeLowering, ReferenceEngine):
    """Direct convolution via generated, shape-specialized stencil kernels."""

    lowered_phases = ("fp",)

    def __init__(self, spec: ConvSpec, num_cores: int = 1,
                 pipeline: SchedulePipeline | None = None):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.pipeline = pipeline
        self._resolve_native()

    def _native_loader(self) -> tuple:
        from repro.stencil.emit_c import load_stencil_kernels

        return (load_stencil_kernels, self.spec, self.pipeline)

    @property
    def tile(self) -> TileChoice:
        """The register-tiled block of the schedule the serving printer
        lowered (its ``vectorize`` pass's budget and width)."""
        pipeline = self.pipeline or default_pipeline("fp")
        if self._native is not None:
            from repro.stencil.emit_c import host_pipeline

            pipeline = host_pipeline(self.pipeline, "fp")
        return pipeline.vector_block(self.spec)

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        if self._native is not None and self._native_operands(inputs, weights):
            return self._native.forward(inputs, weights)
        return reference.batch_forward(self.spec, inputs, weights)
