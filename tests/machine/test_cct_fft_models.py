"""Tests for the CcT schedule model and the FFT time model."""

import pytest

from repro.core.convspec import ConvSpec
from repro.data.tables import TABLE1_CONVS, TABLE2_LAYERS
from repro.errors import MachineModelError
from repro.machine.fft_model import (
    FFTProfile,
    _fft_shape,
    fft_conv_flops,
    fft_conv_time,
    fft_grid_bytes,
)
from repro.machine.gemm_model import (
    cct_conv_time,
    gemm_in_parallel_conv_time,
    parallel_gemm_conv_time,
)
from repro.machine.spec import xeon_e5_2650
from repro.machine.stencil_model import stencil_fp_time

MACHINE = xeon_e5_2650()
STRIDED_LAYERS = [spec for layers in TABLE2_LAYERS.values() for spec in layers
                  if (spec.sy, spec.sx) != (1, 1)]


class TestCcTSchedule:
    def test_beats_gip_at_batch_one(self):
        # With one image, GiP uses one core; CcT partitions it across all.
        spec = TABLE1_CONVS[2]
        gip = gemm_in_parallel_conv_time(spec, "fp", 1, MACHINE, 16)
        cct = cct_conv_time(spec, "fp", 1, MACHINE, 16)
        assert cct < gip / 2

    def test_beats_parallel_gemm_in_region_2(self):
        # The paper's Sec. 6 claim about CcT.
        spec = TABLE1_CONVS[2]  # Region 2
        pg = parallel_gemm_conv_time(spec, "fp", 4, MACHINE, 16)
        cct = cct_conv_time(spec, "fp", 4, MACHINE, 16)
        assert cct < pg

    def test_converges_to_gip_at_full_batches(self):
        spec = TABLE1_CONVS[3]
        gip = gemm_in_parallel_conv_time(spec, "fp", 16, MACHINE, 16)
        cct = cct_conv_time(spec, "fp", 16, MACHINE, 16)
        assert cct == pytest.approx(gip, rel=0.3)

    def test_bp_supported(self):
        spec = TABLE1_CONVS[0]
        assert cct_conv_time(spec, "bp", 2, MACHINE, 8) > 0

    def test_validation(self):
        with pytest.raises(MachineModelError):
            cct_conv_time(TABLE1_CONVS[0], "fp", 0, MACHINE, 4)


class TestFFTGrid:
    def test_grid_avoids_circular_aliasing(self):
        # The grid must cover N + F - 1 points per axis.
        spec = ConvSpec(nc=1, ny=8, nx=8, nf=1, fy=3, fx=3)
        gy, gx = _fft_shape(spec)
        assert gy >= spec.ny + spec.fy - 1
        assert gx >= spec.nx + spec.fx - 1

    def test_grid_is_power_of_two(self):
        spec = ConvSpec(nc=1, ny=13, nx=27, nf=1, fy=5, fx=5)
        gy, gx = _fft_shape(spec)
        assert gy & (gy - 1) == 0
        assert gx & (gx - 1) == 0


class TestFFTFlops:
    def test_flops_grow_with_grid(self):
        small = ConvSpec(nc=4, ny=16, nx=16, nf=4, fy=3, fx=3)
        large = ConvSpec(nc=4, ny=64, nx=64, nf=4, fy=3, fx=3)
        assert fft_conv_flops(large) > fft_conv_flops(small)

    def test_fft_beats_direct_for_huge_kernels(self):
        # Direct conv work grows with Fy*Fx; FFT work does not.  For a
        # kernel covering half the image, FFT needs fewer flops.
        spec = ConvSpec(nc=8, ny=64, nx=64, nf=8, fy=31, fx=31)
        assert fft_conv_flops(spec) < spec.flops

    def test_direct_beats_fft_for_tiny_kernels(self):
        spec = ConvSpec(nc=8, ny=64, nx=64, nf=8, fy=2, fx=2)
        assert fft_conv_flops(spec) > spec.flops


class TestFFTModel:
    def test_time_positive_and_scales(self):
        spec = ConvSpec(nc=8, ny=64, nx=64, nf=8, fy=9, fx=9)
        t1 = fft_conv_time(spec, 16, MACHINE, 1)
        t16 = fft_conv_time(spec, 16, MACHINE, 16)
        assert 0 < t16 < t1

    def test_grid_bytes_positive(self):
        assert fft_grid_bytes(TABLE1_CONVS[0]) > 0

    def test_large_kernels_favor_fft(self):
        big_kernel = ConvSpec(nc=32, ny=64, nx=64, nf=32, fy=31, fx=31)
        small_kernel = ConvSpec(nc=32, ny=64, nx=64, nf=32, fy=3, fx=3)
        assert fft_conv_time(big_kernel, 16, MACHINE, 16) < stencil_fp_time(
            big_kernel, 16, MACHINE, 16
        )
        assert fft_conv_time(small_kernel, 16, MACHINE, 16) > stencil_fp_time(
            small_kernel, 16, MACHINE, 16
        )

    def test_time_kernel_size_insensitive(self):
        # FFT work depends on the grid, not the kernel taps.
        t3 = fft_conv_time(ConvSpec(nc=8, ny=64, nx=64, nf=8, fy=3, fx=3),
                           8, MACHINE, 8)
        t15 = fft_conv_time(ConvSpec(nc=8, ny=64, nx=64, nf=8, fy=15, fx=15),
                            8, MACHINE, 8)
        assert t15 < 2.5 * t3

    def test_profile_validation(self):
        with pytest.raises(MachineModelError):
            FFTProfile(compute_efficiency=0.0)
        with pytest.raises(MachineModelError):
            fft_conv_time(TABLE1_CONVS[0], 0, MACHINE, 1)

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(MachineModelError):
            fft_conv_time(TABLE1_CONVS[0], 4, MACHINE, 0)

    @pytest.mark.parametrize("spec", STRIDED_LAYERS, ids=lambda s: s.name)
    def test_strided_layers_favor_direct(self, spec):
        # FFT computes the unit-stride result and discards most of it, so
        # on the strided layers of Table 2 a direct technique wins.
        direct = min(
            gemm_in_parallel_conv_time(spec, "fp", 16, MACHINE, 16),
            parallel_gemm_conv_time(spec, "fp", 16, MACHINE, 16),
            stencil_fp_time(spec, 16, MACHINE, 16),
        )
        assert fft_conv_time(spec, 16, MACHINE, 16) > direct
