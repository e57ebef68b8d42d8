"""Schedule generation for stencil kernels: cache and TLB tiling (Sec. 4.3).

The schedule generator tiles the generated basic blocks so that the input
and output working sets of a tile fit in cache, and estimates the TLB
entries a tile requires -- inputs and outputs are copied into contiguous
memory first (as in the paper), so a tile touches
``ceil(tile_bytes / page_size)`` pages rather than one page per row.

The chosen tile is reported with its private-cache traffic estimate, which
the Xeon model uses to price the kernel for the paper book.  The C units
that run on the host are not tiled by it: they print the loop IR's
default schedule (:mod:`repro.stencil.emit_c`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.convspec import ELEMENT_BYTES, ConvSpec
from repro.errors import CodegenError


@dataclass(frozen=True)
class StencilSchedule:
    """Loop tiling chosen for a stencil kernel on one convolution."""

    spec: ConvSpec
    tile_y: int
    tile_x: int
    channels_per_pass: int

    @property
    def tile_input_elems(self) -> int:
        """Input elements one tile touches (with kernel halo)."""
        halo_y = self.tile_y * self.spec.sy + self.spec.fy - 1
        halo_x = self.tile_x * self.spec.sx + self.spec.fx - 1
        return self.channels_per_pass * halo_y * halo_x

    @property
    def tile_output_elems(self) -> int:
        """Output elements one tile produces (for all output features)."""
        return self.spec.nf * self.tile_y * self.tile_x

    @property
    def tile_working_set_bytes(self) -> int:
        """Bytes of input + output resident while computing one tile."""
        return ELEMENT_BYTES * (self.tile_input_elems + self.tile_output_elems)

    @property
    def num_tiles(self) -> int:
        """Number of tiles covering the output plane."""
        ty = math.ceil(self.spec.out_ny / self.tile_y)
        tx = math.ceil(self.spec.out_nx / self.tile_x)
        cp = math.ceil(self.spec.nc / self.channels_per_pass)
        return ty * tx * cp

    def tlb_entries(self, page_size: int = 4096) -> int:
        """TLB entries needed for one tile's contiguous working set."""
        return math.ceil(self.tile_working_set_bytes / page_size)

    def private_traffic_elems(self) -> int:
        """Per-image element traffic through the private cache.

        Inputs are read once per output-feature-independent pass (the copy
        into contiguous memory plus the streamed reads), the weights once
        per tile (they are small and typically stay resident), and outputs
        are written once and re-read once per channel pass beyond the first.
        """
        spec = self.spec
        channel_passes = math.ceil(spec.nc / self.channels_per_pass)
        input_reads = 2 * spec.input_elems  # copy-in + streamed read
        weight_reads = spec.weight_elems
        output_traffic = spec.output_elems * (2 * channel_passes)
        return input_reads + weight_reads + output_traffic


def generate_schedule(
    spec: ConvSpec,
    cache_bytes: int = 256 * 1024,
    tlb_entries: int = 64,
    page_size: int = 4096,
) -> StencilSchedule:
    """Pick the largest square-ish tile whose working set fits the budget.

    The search halves the tile extent until both the cache-capacity and
    TLB-entry constraints hold; degenerate single-element tiles are always
    feasible (any real cache holds one vector), so this terminates.
    """
    if cache_bytes <= 0 or tlb_entries <= 0 or page_size <= 0:
        raise CodegenError("cache_bytes, tlb_entries and page_size must be positive")
    tile_y = spec.out_ny
    tile_x = spec.out_nx
    channels = spec.nc
    while True:
        candidate = StencilSchedule(
            spec=spec, tile_y=tile_y, tile_x=tile_x, channels_per_pass=channels
        )
        fits_cache = candidate.tile_working_set_bytes <= cache_bytes
        fits_tlb = candidate.tlb_entries(page_size) <= tlb_entries
        if fits_cache and fits_tlb:
            return candidate
        # Shrink the largest extent first; channels last (re-reading outputs
        # across channel passes is the most expensive form of tiling).
        if tile_y >= tile_x and tile_y > 1:
            tile_y = max(1, tile_y // 2)
        elif tile_x > 1:
            tile_x = max(1, tile_x // 2)
        elif channels > 1:
            channels = max(1, channels // 2)
        else:
            return candidate  # smallest possible tile; accept it
