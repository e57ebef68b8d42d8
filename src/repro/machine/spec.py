"""Machine descriptions for the analytical performance model.

The paper's experiments run on an Intel Xeon E5-2650 with 16 physical
cores (32 logical with hyper-threading) and a peak of 41.6 GFlops per
core, with OpenBLAS/MKL GEMM.  :func:`xeon_e5_2650` encodes that machine;
the remaining parameters (bandwidths, overheads) are calibrated so the
model reproduces the paper's measured curves (see EXPERIMENTS.md).

All bandwidths are bytes/second; times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineModelError


@dataclass(frozen=True)
class MachineSpec:
    """Parameters of the modelled multicore CPU."""

    name: str
    physical_cores: int
    logical_cores: int
    peak_flops_per_core: float
    #: Shared DRAM bandwidth (all cores combined).
    dram_bandwidth: float
    #: Private-cache (L2) streaming bandwidth per core.
    cache_bandwidth_per_core: float
    #: Straight-line copy bandwidth per core (memcpy of long runs).
    copy_bandwidth_per_core: float
    l2_bytes: int
    llc_bytes: int
    vector_width: int
    num_vector_registers: int
    tlb_entries: int
    page_size: int
    #: Fork/join cost of one parallel region, per participating core pair
    #: (total barrier cost grows logarithmically with the core count).
    sync_base_seconds: float
    #: Marginal throughput of a hyper-thread relative to a physical core.
    smt_yield: float

    def __post_init__(self) -> None:
        if self.physical_cores <= 0 or self.logical_cores < self.physical_cores:
            raise MachineModelError(
                f"invalid core counts: physical={self.physical_cores}, "
                f"logical={self.logical_cores}"
            )
        positive = (
            "peak_flops_per_core",
            "dram_bandwidth",
            "cache_bandwidth_per_core",
            "copy_bandwidth_per_core",
            "l2_bytes",
            "llc_bytes",
            "vector_width",
            "num_vector_registers",
            "tlb_entries",
            "page_size",
        )
        for attr in positive:
            if getattr(self, attr) <= 0:
                raise MachineModelError(f"{attr} must be positive")
        if self.sync_base_seconds < 0 or not 0 <= self.smt_yield <= 1:
            raise MachineModelError("invalid sync/SMT parameters")

    def effective_cores(self, cores: int) -> float:
        """Compute throughput-equivalent cores for ``cores`` workers.

        Up to the physical core count each worker is a full core; beyond
        it, hyper-threads contribute only ``smt_yield`` of a core each.
        """
        if cores <= 0:
            raise MachineModelError(f"cores must be positive, got {cores}")
        if cores > self.logical_cores:
            raise MachineModelError(
                f"{cores} cores requested but machine has {self.logical_cores} logical"
            )
        if cores <= self.physical_cores:
            return float(cores)
        return self.physical_cores + (cores - self.physical_cores) * self.smt_yield

    def sync_overhead(self, cores: int) -> float:
        """Fork/join barrier cost of one parallel region over ``cores``."""
        if cores <= 1:
            return 0.0
        # Tree barrier: log2 rounds, each costing the base latency.
        rounds = max(1, (cores - 1).bit_length())
        return self.sync_base_seconds * rounds



def xeon_e5_2650() -> MachineSpec:
    """The paper's evaluation machine (Sec. 3 / Sec. 5.1).

    Peak per-core flops comes from the paper directly.  Bandwidths are the
    nominal Sandy Bridge-EP figures (quad-channel DDR3-1600 per socket);
    the remaining constants are calibrated against the paper's curves.
    """
    return MachineSpec(
        name="Intel Xeon E5-2650 (16 cores, 32 threads)",
        physical_cores=16,
        logical_cores=32,
        peak_flops_per_core=41.6e9,
        dram_bandwidth=51.2e9,
        cache_bandwidth_per_core=80e9,
        copy_bandwidth_per_core=8e9,
        l2_bytes=256 * 1024,
        llc_bytes=20 * 1024 * 1024,
        vector_width=8,
        num_vector_registers=16,
        tlb_entries=64,
        page_size=4096,
        sync_base_seconds=15e-6,
        smt_yield=0.20,
    )


def laptop_4core() -> MachineSpec:
    """A small generic machine, handy for examples and tests."""
    return MachineSpec(
        name="generic 4-core laptop",
        physical_cores=4,
        logical_cores=8,
        peak_flops_per_core=50e9,
        dram_bandwidth=30e9,
        cache_bandwidth_per_core=100e9,
        copy_bandwidth_per_core=10e9,
        l2_bytes=512 * 1024,
        llc_bytes=8 * 1024 * 1024,
        vector_width=8,
        num_vector_registers=16,
        tlb_entries=64,
        page_size=4096,
        sync_base_seconds=2e-6,
        smt_yield=0.25,
    )
