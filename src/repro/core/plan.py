"""Execution plans: which technique serves each layer and phase.

spg-CNN "generates codes and chooses the fastest among Parallel-GEMM,
GEMM-in-Parallel, Sparse-Kernel and Stencil-Kernel for the FP and BP
phases of each layer" (Sec. 1.3).  A :class:`LayerPlan` records that
choice (and the candidate timings it was based on); an
:class:`ExecutionPlan` aggregates them for a network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_table
from repro.core.convspec import ConvSpec
from repro.errors import PlanError

#: Techniques eligible for forward propagation (Sec. 4.4).
FP_CANDIDATES: tuple[str, ...] = ("parallel-gemm", "gemm-in-parallel", "stencil")

#: Techniques eligible for backward propagation (Sec. 4.4).
BP_CANDIDATES: tuple[str, ...] = ("parallel-gemm", "gemm-in-parallel", "sparse")

#: The always-available dense fallback the runtime degrades to when a
#: generated kernel is quarantined (never chosen on merit -- deployed
#: only when every candidate for a layer/phase has been benched).
FALLBACK_ENGINE = "reference"


@dataclass(frozen=True)
class LayerPlan:
    """The chosen FP/BP techniques for one convolution layer."""

    layer_name: str
    spec: ConvSpec
    fp_engine: str
    bp_engine: str
    #: Candidate -> predicted/measured seconds, for reporting.
    fp_timings: dict[str, float] = field(default_factory=dict)
    bp_timings: dict[str, float] = field(default_factory=dict)
    sparsity: float = 0.0
    #: What the deployed engines' generated kernels were lowered to
    #: (``"c"`` / ``"reference"``), filled in by whoever deploys the plan;
    #: empty for engines with a single form and for undeployed plans.
    fp_lowering: str = ""
    bp_lowering: str = ""
    #: The artefact of the compiled conv + ReLU + max-pool unit the
    #: layer's FP runs as where the network fuses it with the pool after
    #: its ReLU; empty where the chain runs.
    fused: str = ""
    #: Candidate -> why its generated kernels were timed (and would
    #: run) on the reference instead of a C unit, filled in with the
    #: lowerings; empty where every candidate's unit loaded.
    lowering_reasons: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fp_engine not in FP_CANDIDATES + (FALLBACK_ENGINE,):
            raise PlanError(
                f"{self.fp_engine!r} is not an FP candidate {FP_CANDIDATES}"
            )
        if self.bp_engine not in BP_CANDIDATES + (FALLBACK_ENGINE,):
            raise PlanError(
                f"{self.bp_engine!r} is not a BP candidate {BP_CANDIDATES}"
            )

    @property
    def fp_speedup_over_baseline(self) -> float:
        """Chosen-FP speedup over the Parallel-GEMM baseline, if timed."""
        baseline = self.fp_timings.get("parallel-gemm")
        chosen = self.fp_timings.get(self.fp_engine)
        if not baseline or not chosen:
            return 1.0
        return baseline / chosen

    @property
    def bp_speedup_over_baseline(self) -> float:
        """Chosen-BP speedup over the Parallel-GEMM baseline, if timed."""
        baseline = self.bp_timings.get("parallel-gemm")
        chosen = self.bp_timings.get(self.bp_engine)
        if not baseline or not chosen:
            return 1.0
        return baseline / chosen


@dataclass(frozen=True)
class ExecutionPlan:
    """Per-layer plans for a whole network."""

    layers: tuple[LayerPlan, ...]

    def __post_init__(self) -> None:
        names = [p.layer_name for p in self.layers]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate layer names in plan: {names}")

    def describe(self) -> str:
        """Tabular summary of the plan."""
        return format_table(
            ["layer", "FP engine", "BP engine", "sparsity"],
            [[p.layer_name, p.fp_engine, p.bp_engine, f"{p.sparsity:.2f}"]
             for p in self.layers],
        )
