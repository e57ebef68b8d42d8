"""Roofline primitives shared by the per-technique time models.

A *work phase* is a homogeneous stretch of execution described by its
flops, its private-cache traffic and its shared-DRAM traffic.  Its time on
``cores`` workers is the maximum of the three lanes -- compute at an
efficiency-scaled peak, private traffic at per-core cache bandwidth, and
shared traffic at the DRAM bandwidth all cores contend for -- mirroring
how the paper reasons about AIT per core (Sec. 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineModelError
from repro.machine.spec import MachineSpec


@dataclass(frozen=True)
class Phase:
    """One homogeneous stretch of work.

    ``flops`` -- total floating point operations executed (zero work
    included).  ``private_bytes`` -- total bytes moved through private
    caches, summed over cores.  ``dram_bytes`` -- total bytes moved to or
    from shared memory.  ``efficiency`` -- fraction of peak flop rate the
    kernel achieves when compute bound.
    """

    flops: float = 0.0
    private_bytes: float = 0.0
    dram_bytes: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if min(self.flops, self.private_bytes, self.dram_bytes) < 0:
            raise MachineModelError(f"negative work in phase: {self}")
        if not 0 < self.efficiency <= 1:
            raise MachineModelError(f"efficiency must be in (0, 1], got {self.efficiency}")


def phase_time(phase: Phase, machine: MachineSpec, cores: int) -> float:
    """Execution time of one phase spread over ``cores`` workers."""
    eff_cores = machine.effective_cores(cores)
    compute = phase.flops / (phase.efficiency * machine.peak_flops_per_core * eff_cores)
    private = phase.private_bytes / (machine.cache_bandwidth_per_core * eff_cores)
    shared = phase.dram_bytes / machine.dram_bandwidth
    return max(compute, private, shared)


def copy_time(bytes_moved: float, machine: MachineSpec, cores: int,
              run_bytes: float | None = None) -> float:
    """Time to copy ``bytes_moved`` with ``cores`` workers.

    ``run_bytes`` is the contiguous run length of the copy; short runs
    (e.g. im2col of narrow rows) pay per-run overhead that reduces the
    achieved bandwidth.  The shared-DRAM ceiling applies when the copy
    streams more than the workers' caches can hold.
    """
    if bytes_moved < 0:
        raise MachineModelError(f"bytes_moved must be non-negative, got {bytes_moved}")
    if bytes_moved == 0:
        return 0.0
    bw_core = machine.copy_bandwidth_per_core
    if run_bytes is not None:
        if run_bytes <= 0:
            raise MachineModelError(f"run_bytes must be positive, got {run_bytes}")
        # Each run pays roughly one cache-line setup; 32 B of overhead per
        # run halves the bandwidth of 32 B runs and vanishes for long runs.
        bw_core = bw_core * run_bytes / (run_bytes + 32.0)
    eff_cores = machine.effective_cores(cores)
    private = bytes_moved / (bw_core * eff_cores)
    shared = bytes_moved / machine.dram_bandwidth
    return max(private, shared)

