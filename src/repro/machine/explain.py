"""Explain the machine model's verdicts: per-lane time breakdowns.

For one convolution and phase, decomposes each technique's predicted time
into its constituent lanes (compute, private-cache traffic, shared DRAM,
synchronization, unfolding / layout transforms), so a user can see *why*
the autotuner picked what it picked -- the analysis behind every claim in
Sec. 3 and Sec. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_table
from repro.core.convspec import ELEMENT_BYTES, ConvSpec
from repro.errors import MachineModelError
from repro.machine.gemm_model import (
    DEFAULT_PROFILE,
    GemmProfile,
    conv_gemm_dims,
    unfold_time,
)
from repro.machine.sparse_model import (
    DEFAULT_SPARSE_PROFILE,
    sparse_build_bytes,
    sparse_transform_bytes,
    sparse_useful_flops,
)
from repro.machine.spec import MachineSpec
from repro.machine.stencil_model import (
    DEFAULT_STENCIL_PROFILE,
    stencil_efficiency,
)


@dataclass
class LaneBreakdown:
    """One technique's time decomposed into lanes (seconds)."""

    technique: str
    lanes: dict[str, float] = field(default_factory=dict)

    @property
    def bound_by(self) -> str:
        """The lane with the largest share."""
        if not self.lanes:
            raise MachineModelError("empty breakdown")
        return max(self.lanes, key=self.lanes.get)


def explain_parallel_gemm(
    spec: ConvSpec, phase: str, batch: int, machine: MachineSpec,
    cores: int, profile: GemmProfile = DEFAULT_PROFILE,
) -> LaneBreakdown:
    """Lane decomposition of the Unfold+Parallel-GEMM baseline."""
    compute = cache = dram = sync = 0.0
    for m, k, n in conv_gemm_dims(spec, phase):
        active = min(cores, max(1, m // profile.min_rows_per_core), m)
        eff = profile.kernel_efficiency(m / active, n, k)
        flops = 2 * m * k * n
        compute += batch * flops / (
            eff * machine.peak_flops_per_core * machine.effective_cores(active)
        )
        per_core_bytes = ELEMENT_BYTES * (m * k / active + k * n + m * n / active)
        cache += batch * per_core_bytes / machine.cache_bandwidth_per_core
        b_bytes = ELEMENT_BYTES * k * n
        streams = 1 if b_bytes <= machine.llc_bytes else active
        dram += batch * (
            ELEMENT_BYTES * (m * k + m * n) + streams * b_bytes
        ) / machine.dram_bandwidth
        sync += batch * machine.sync_overhead(cores)
    return LaneBreakdown(
        technique="parallel-gemm",
        lanes={
            "compute": compute,
            "private-cache": cache,
            "shared-dram": dram,
            "synchronization": sync,
            "unfold (serial)": unfold_time(spec, batch, machine, cores=1),
        },
    )


def explain_gemm_in_parallel(
    spec: ConvSpec, phase: str, batch: int, machine: MachineSpec,
    cores: int, profile: GemmProfile = DEFAULT_PROFILE,
) -> LaneBreakdown:
    """Lane decomposition of GEMM-in-Parallel (Sec. 4.1)."""
    import math

    per_image_compute = per_image_cache = 0.0
    dram_bytes = 0.0
    for m, k, n in conv_gemm_dims(spec, phase):
        eff = profile.kernel_efficiency(m, n, k)
        per_image_compute += 2 * m * k * n / (eff * machine.peak_flops_per_core)
        per_image_cache += (
            ELEMENT_BYTES * (m * k + k * n + m * n)
            / machine.cache_bandwidth_per_core
        )
        dram_bytes += batch * ELEMENT_BYTES * (m * k + k * n + m * n)
    images_per_core = math.ceil(batch / cores)
    return LaneBreakdown(
        technique="gemm-in-parallel",
        lanes={
            "compute": images_per_core * per_image_compute,
            "private-cache": images_per_core * per_image_cache,
            "shared-dram": dram_bytes / machine.dram_bandwidth,
            "synchronization": machine.sync_overhead(cores),
            "unfold (parallel)": unfold_time(spec, batch, machine, cores),
        },
    )


def explain_stencil(
    spec: ConvSpec, batch: int, machine: MachineSpec, cores: int,
) -> LaneBreakdown:
    """Lane decomposition of Stencil-Kernel (FP) (Sec. 4.3)."""
    import math

    from repro.machine.roofline import copy_time
    from repro.stencil.schedule import generate_schedule

    eff = stencil_efficiency(spec, machine, DEFAULT_STENCIL_PROFILE)
    schedule = generate_schedule(
        spec, cache_bytes=machine.l2_bytes, tlb_entries=machine.tlb_entries,
        page_size=machine.page_size,
    )
    images_per_core = math.ceil(batch / cores)
    lanes = {
        "compute": images_per_core * spec.flops
        / (eff * machine.peak_flops_per_core),
        "private-cache": images_per_core
        * schedule.private_traffic_elems() * ELEMENT_BYTES
        / machine.cache_bandwidth_per_core,
        "shared-dram": batch * ELEMENT_BYTES
        * (spec.input_elems + spec.output_elems) / machine.dram_bandwidth,
        "synchronization": machine.sync_overhead(cores),
    }
    if spec.sx > 1:
        lanes["layout transform (Eq. 21)"] = copy_time(
            batch * 2 * spec.input_elems * ELEMENT_BYTES, machine, cores,
            run_bytes=spec.sx * ELEMENT_BYTES,
        )
    return LaneBreakdown(technique="stencil", lanes=lanes)


def explain_sparse(
    spec: ConvSpec, batch: int, sparsity: float, machine: MachineSpec,
    cores: int,
) -> LaneBreakdown:
    """Lane decomposition of Sparse-Kernel (BP) (Sec. 4.2)."""
    import math

    profile = DEFAULT_SPARSE_PROFILE
    images_per_core = math.ceil(batch / cores)
    eff = profile.effective_compute_efficiency(spec.nc)
    return LaneBreakdown(
        technique="sparse",
        lanes={
            "sparse compute": images_per_core
            * sparse_useful_flops(spec, sparsity)
            / (eff * machine.peak_flops_per_core),
            "layout transforms": images_per_core
            * sparse_transform_bytes(spec) / profile.transpose_bandwidth,
            "ct-csr build": images_per_core
            * sparse_build_bytes(spec, sparsity) / profile.build_bandwidth,
            "synchronization": machine.sync_overhead(cores),
        },
    )


def explain_conv(
    spec: ConvSpec, phase: str, batch: int, machine: MachineSpec,
    cores: int, sparsity: float = 0.85,
) -> list[LaneBreakdown]:
    """Breakdowns of every technique eligible for the phase."""
    breakdowns = [
        explain_parallel_gemm(spec, phase, batch, machine, cores),
        explain_gemm_in_parallel(spec, phase, batch, machine, cores),
    ]
    if phase == "fp":
        breakdowns.append(explain_stencil(spec, batch, machine, cores))
    elif phase == "bp":
        breakdowns.append(explain_sparse(spec, batch, sparsity, machine, cores))
    else:
        raise MachineModelError(f"phase must be 'fp' or 'bp', got {phase!r}")
    return breakdowns


def explain_report(breakdowns: list[LaneBreakdown]) -> str:
    """Tabular rendering of a set of breakdowns."""
    rows = []
    for b in breakdowns:
        for lane, seconds in b.lanes.items():
            rows.append([b.technique, lane, f"{seconds * 1e3:.3f}",
                         "<- bound" if lane == b.bound_by else ""])
    return format_table(
        ["technique", "lane", "time (ms)", ""], rows,
        title="machine-model lane breakdown",
    )
