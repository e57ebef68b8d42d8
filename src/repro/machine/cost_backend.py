"""The autotuner's cost backend for the paper's machine.

:class:`ModelCostBackend` prices each candidate with the analytical
model of this package, reproducing the paper's selections for the
paper's machine without running anything.  It serves the paper book --
``repro plan``, the figures and tables, the examples -- while
``repro train`` deploys by :class:`repro.core.autotuner.MeasuredCostBackend`
and never imports this package.
"""

from __future__ import annotations

from repro.core.autotuner import CostBackend, _check_phase
from repro.core.convspec import ConvSpec
from repro.errors import PlanError
from repro.machine.gemm_model import (
    DEFAULT_PROFILE,
    GemmProfile,
    gemm_in_parallel_conv_time,
    parallel_gemm_conv_time,
)
from repro.machine.sparse_model import sparse_bp_time
from repro.machine.spec import MachineSpec
from repro.machine.stencil_model import stencil_fp_time


class ModelCostBackend(CostBackend):
    """Analytical machine-model pricing (paper's machine by default)."""

    def __init__(self, machine: MachineSpec, cores: int, batch: int,
                 profile: GemmProfile = DEFAULT_PROFILE):
        if batch <= 0 or cores <= 0:
            raise PlanError(f"batch and cores must be positive: {batch}, {cores}")
        self.machine = machine
        self.cores = cores
        self.batch = batch
        self.profile = profile

    def time(self, technique: str, phase: str, spec: ConvSpec,
             sparsity: float) -> float:
        _check_phase(technique, phase)
        if technique == "parallel-gemm":
            return parallel_gemm_conv_time(
                spec, phase, self.batch, self.machine, self.cores, self.profile
            )
        if technique == "gemm-in-parallel":
            return gemm_in_parallel_conv_time(
                spec, phase, self.batch, self.machine, self.cores, self.profile
            )
        if technique == "stencil":
            return stencil_fp_time(spec, self.batch, self.machine, self.cores)
        if technique == "sparse":
            return sparse_bp_time(
                spec, self.batch, sparsity, self.machine, self.cores
            )
        raise PlanError(f"unknown technique {technique!r}")
