"""Time model of FFT convolution (paper Sec. 6 context, time model only).

FFT convolution trades the ``O(Nf*Nc*Fy*Fx)`` per-position work of direct
convolution for per-grid transforms plus an ``O(Nf*Nc)`` pointwise
product, so it wins when kernels are large relative to ``log(N)`` and
loses on strided or small convolutions (stride forces computing the
unit-stride result and discarding most of it).  Parallelization is
image-level, like the other spg-CNN techniques.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.convspec import ELEMENT_BYTES, ConvSpec
from repro.errors import MachineModelError
from repro.machine.spec import MachineSpec


def _fft_shape(spec: ConvSpec) -> tuple[int, int]:
    # Linear (non-circular) correlation and convolution need
    # ``N + F - 1`` points per axis; powers of two keep the transforms
    # fast and mirror what FFT conv implementations do.
    fy = 1 << (spec.padded_ny + spec.fy - 2).bit_length()
    fx = 1 << (spec.padded_nx + spec.fx - 2).bit_length()
    return fy, fx


def fft_conv_flops(spec: ConvSpec) -> float:
    """Approximate flop count of the FFT execution path.

    ``Nc`` forward transforms of the input grids plus ``Nf`` inverse
    transforms of the accumulated products (the pointwise multiply
    accumulates *in the frequency domain*, so no per-(f, c) transform is
    needed) at ``5 N log2 N`` each, plus the ``Nc*Nf`` pointwise complex
    multiply-accumulates at 8 flops/point.  Weight transforms amortize
    over a training batch and are excluded, matching how FFT conv
    implementations cache them.
    """
    gy, gx = _fft_shape(spec)
    points = gy * gx
    transforms = spec.nc + spec.nf
    fft_cost = transforms * 5.0 * points * math.log2(points)
    pointwise = spec.nc * spec.nf * 8.0 * points
    return fft_cost + pointwise


@dataclass(frozen=True)
class FFTProfile:
    """Constants of the FFT execution path."""

    #: Fraction of peak sustained by the butterfly/pointwise kernels
    #: (strided twiddle access keeps this well below GEMM's efficiency).
    compute_efficiency: float = 0.30

    def __post_init__(self) -> None:
        if not 0 < self.compute_efficiency <= 1:
            raise MachineModelError(
                f"compute_efficiency must be in (0, 1], got {self.compute_efficiency}"
            )


DEFAULT_FFT_PROFILE = FFTProfile()


def fft_grid_bytes(spec: ConvSpec) -> int:
    """Frequency-grid traffic per image: every transform read and written.

    Complex spectra are twice the real element size; ``Nc + Nf`` spatial
    grids plus the ``Nc*Nf`` pointwise products move through memory.
    """
    gy, gx = _fft_shape(spec)
    # Nc input spectra + Nf accumulated product spectra, each written and
    # re-read; the pointwise stage streams the cached weight spectra too.
    grids = 2 * (spec.nc + spec.nf) + spec.nc * spec.nf
    return int(2 * ELEMENT_BYTES * grids * gy * gx)


def fft_conv_time(
    spec: ConvSpec,
    batch: int,
    machine: MachineSpec,
    cores: int,
    profile: FFTProfile = DEFAULT_FFT_PROFILE,
) -> float:
    """Time of the FFT forward pass over a batch of images."""
    if batch <= 0 or cores <= 0:
        raise MachineModelError(f"batch and cores must be positive: {batch}, {cores}")
    per_image_compute = fft_conv_flops(spec) / (
        profile.compute_efficiency * machine.peak_flops_per_core
    )
    per_image_traffic = fft_grid_bytes(spec) / machine.cache_bandwidth_per_core
    per_image = max(per_image_compute, per_image_traffic)
    makespan = math.ceil(batch / cores) * per_image
    dram = batch * ELEMENT_BYTES * (spec.input_elems + spec.output_elems)
    return max(makespan, dram / machine.dram_bandwidth) + machine.sync_overhead(cores)
