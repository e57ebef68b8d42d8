"""The stencil convolution engine (paper Sec. 4.3).

The paper deploys the stencil kernels for forward propagation
(Stencil-Kernel (FP)).  That kernel is the C unit
:mod:`repro.stencil.emit_c` prints for stride-1 specs from the default
schedule vectorized for this host
(:func:`repro.stencil.emit_c.host_pipeline`), compiled at first use
through :mod:`repro.native`; ``lowering`` / ``artifact`` name it.
Loaded code does not pickle: an engine sent to a process-backend worker
loads the same unit there.

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


@register_engine("stencil")
class StencilEngine(NativeLowering, ReferenceEngine):
    """Direct convolution via generated, shape-specialized stencil kernels."""

    lowered_phases = ("fp",)

    def __init__(self, spec: ConvSpec):
        super().__init__(spec)
        self._resolve_native()

    def _native_loader(self) -> tuple:
        from repro.stencil.emit_c import load_stencil_kernels

        return (load_stencil_kernels, self.spec)

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        if self._native is not None and self._native_operands(inputs, weights):
            return self._native.forward(inputs, weights)
        return reference.batch_forward(self.spec, inputs, weights)
