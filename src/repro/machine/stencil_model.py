"""Analytical time model for the generated stencil kernels (Sec. 4.3).

The stencil kernel's throughput is derived from the *generated code
itself*: the register-tile optimizer's basic block supplies the vector
instruction mix (its closed-form counts), and the model applies

* a **port model** -- the core issues up to as many vector loads as FMAs
  per cycle, so blocks whose loads (plus weight broadcasts) outnumber
  FMAs become load-bound;
* an **issue efficiency** constant covering unaligned loads, loop
  overhead and address arithmetic of the generated code; and
* **utilization factors** for the vector-width remainder along x and the
  register-tile remainder along y (small images waste lanes).

Inputs are streamed per output feature, but the schedule generator's
tiles keep them cache-resident, so the cache lane uses the schedule's
traffic estimate.  Strided convolutions pay the Eq. 21 data-layout
transform.  Parallelization is GEMM-in-Parallel style: whole images per
core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.convspec import ELEMENT_BYTES, ConvSpec
from repro.errors import MachineModelError
from repro.machine.roofline import copy_time
from repro.machine.spec import MachineSpec
from repro.stencil.basic_block import TileChoice, optimize_register_tile
from repro.stencil.schedule import StencilSchedule, generate_schedule


@dataclass(frozen=True)
class StencilProfile:
    """Constants of the generated-kernel implementation."""

    #: Fraction of peak sustained by the generated inner loop when
    #: compute bound (unaligned loads, loop and addressing overhead).
    issue_efficiency: float = 0.78
    #: Vector loads the core can issue per FMA without stalling.
    loads_per_fma_budget: float = 1.0


DEFAULT_STENCIL_PROFILE = StencilProfile()


def _utilization(extent: int, granule: int) -> float:
    """Useful fraction of lanes when ``extent`` is covered in ``granule`` steps."""
    if extent <= 0 or granule <= 0:
        raise MachineModelError(f"extent and granule must be positive: {extent}, {granule}")
    return extent / (granule * math.ceil(extent / granule))


def stencil_efficiency(
    spec: ConvSpec,
    machine: MachineSpec,
    profile: StencilProfile = DEFAULT_STENCIL_PROFILE,
    tile: TileChoice | None = None,
) -> float:
    """Fraction of peak the generated FP kernel achieves on one core."""
    if tile is None:
        tile = optimize_register_tile(
            spec.fy,
            spec.fx,
            num_registers=machine.num_vector_registers,
            vector_width=machine.vector_width,
        )
    # Port pressure: load-bound blocks dilate execution time.
    load_pressure = (tile.loads + tile.broadcasts) / max(tile.fmas, 1)
    port = min(1.0, profile.loads_per_fma_budget / max(load_pressure, 1e-9))
    util_x = _utilization(spec.out_nx, machine.vector_width)
    util_y = _utilization(spec.out_ny, tile.ry)
    return profile.issue_efficiency * port * util_x * util_y


def stencil_fp_time(
    spec: ConvSpec,
    batch: int,
    machine: MachineSpec,
    cores: int,
    profile: StencilProfile = DEFAULT_STENCIL_PROFILE,
    schedule: StencilSchedule | None = None,
) -> float:
    """Time of the generated stencil FP kernel over a ``batch`` of images."""
    if batch <= 0 or cores <= 0:
        raise MachineModelError(f"batch and cores must be positive: {batch}, {cores}")
    if schedule is None:
        schedule = generate_schedule(
            spec, cache_bytes=machine.l2_bytes, tlb_entries=machine.tlb_entries,
            page_size=machine.page_size,
        )
    eff = stencil_efficiency(spec, machine, profile)
    per_image_compute = spec.flops / (eff * machine.peak_flops_per_core)
    per_image_cache = (
        schedule.private_traffic_elems() * ELEMENT_BYTES
        / machine.cache_bandwidth_per_core
    )
    per_image = max(per_image_compute, per_image_cache)
    images_per_core = math.ceil(batch / cores)
    makespan = images_per_core * per_image

    # Shared memory: each image's inputs and outputs stream once.
    dram_bytes = batch * ELEMENT_BYTES * (spec.input_elems + spec.output_elems)
    dram = dram_bytes / machine.dram_bandwidth
    total = max(makespan, dram) + machine.sync_overhead(cores)

    # Eq. 21 layout transform for non-unit x stride (read + write the input).
    if spec.sx > 1:
        total += copy_time(
            batch * 2 * spec.input_elems * ELEMENT_BYTES,
            machine,
            cores,
            run_bytes=spec.sx * ELEMENT_BYTES,
        )
    return total


def stencil_percore_gflops(
    spec: ConvSpec,
    machine: MachineSpec,
    cores: int,
    profile: StencilProfile = DEFAULT_STENCIL_PROFILE,
    batch: int | None = None,
) -> float:
    """Per-core GFlops of Stencil-Kernel (FP), as plotted in Fig. 4c.

    Includes the data-layout transformation time, as the paper's Fig. 4c
    does; the batch defaults to one image per core.
    """
    if batch is None:
        batch = cores
    t = stencil_fp_time(spec, batch, machine, cores, profile)
    return batch * spec.flops / t / cores / 1e9
