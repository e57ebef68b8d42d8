"""Tests for the convolution shape algebra and AIT formulas."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convspec import (ConvSpec, backward_data_correlation,
                                 square_conv)
from repro.errors import ShapeError


class TestShapes:
    def test_output_dims_valid_mode(self):
        spec = ConvSpec(nc=3, ny=10, nx=12, nf=4, fy=3, fx=5)
        assert spec.out_ny == 8
        assert spec.out_nx == 8
        assert spec.output_shape == (4, 8, 8)

    def test_strided_output_dims(self):
        spec = ConvSpec(nc=1, ny=11, nx=11, nf=1, fy=3, fx=3, sy=2, sx=4)
        assert spec.out_ny == 5
        assert spec.out_nx == 3

    def test_padding_enlarges_input(self):
        spec = ConvSpec(nc=3, ny=32, nx=32, nf=64, fy=5, fx=5, pad=2)
        assert spec.padded_ny == 36
        assert spec.padded_nx == 36
        assert spec.out_ny == 32  # same-padding for 5x5

    def test_kernel_equal_to_input_gives_1x1_output(self):
        spec = ConvSpec(nc=2, ny=7, nx=7, nf=3, fy=7, fx=7)
        assert spec.output_shape == (3, 1, 1)

    def test_weight_shape(self):
        spec = ConvSpec(nc=3, ny=8, nx=8, nf=5, fy=2, fx=4)
        assert spec.weight_shape == (5, 3, 2, 4)

    def test_gemm_dims(self):
        spec = ConvSpec(nc=3, ny=10, nx=10, nf=7, fy=3, fx=3)
        m, k, n = spec.gemm_dims
        assert m == 7
        assert k == 3 * 9
        assert n == 8 * 8

    def test_square_conv_matches_paper_order(self):
        spec = square_conv(32, 64, 16, 5, stride=2)
        assert (spec.nx, spec.nf, spec.nc, spec.fx) == (32, 64, 16, 5)
        assert spec.ny == spec.nx and spec.fy == spec.fx and spec.sy == spec.sx


class TestValidation:
    @pytest.mark.parametrize("field", ["nc", "ny", "nx", "nf", "fy", "fx", "sy", "sx"])
    def test_rejects_nonpositive(self, field):
        kwargs = dict(nc=2, ny=8, nx=8, nf=2, fy=2, fx=2)
        kwargs[field] = 0
        with pytest.raises(ShapeError):
            ConvSpec(**kwargs)

    def test_rejects_negative_pad(self):
        with pytest.raises(ShapeError):
            ConvSpec(nc=1, ny=8, nx=8, nf=1, fy=2, fx=2, pad=-1)

    def test_rejects_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            ConvSpec(nc=1, ny=4, nx=4, nf=1, fy=5, fx=2)

    def test_padding_can_rescue_large_kernel(self):
        spec = ConvSpec(nc=1, ny=4, nx=4, nf=1, fy=5, fx=5, pad=1)
        assert spec.out_ny == 2


class TestCounts:
    def test_flops_formula(self):
        spec = ConvSpec(nc=2, ny=6, nx=6, nf=3, fy=2, fx=2)
        # 2 * Nf * oy * ox * Nc * Fy * Fx
        assert spec.flops == 2 * 3 * 5 * 5 * 2 * 2 * 2

    def test_element_counts(self):
        spec = ConvSpec(nc=2, ny=6, nx=5, nf=3, fy=2, fx=2)
        assert spec.input_elems == 2 * 6 * 5
        assert spec.weight_elems == 3 * 2 * 2 * 2
        assert spec.output_elems == 3 * 5 * 4
        assert spec.unfolded_elems == 5 * 4 * 2 * 2 * 2
        assert spec.unfolded_elems_nominal == 6 * 5 * 2 * 2 * 2

    def test_input_elems_counts_padding(self):
        spec = ConvSpec(nc=1, ny=4, nx=4, nf=1, fy=3, fx=3, pad=1)
        assert spec.input_elems == 6 * 6


class TestArithmeticIntensity:
    def test_intrinsic_ait_definition(self):
        spec = ConvSpec(nc=2, ny=6, nx=6, nf=3, fy=2, fx=2)
        expected = spec.flops / (
            spec.input_elems + spec.weight_elems + spec.output_elems
        )
        assert spec.intrinsic_ait == pytest.approx(expected)

    def test_unfold_reduces_ait(self):
        spec = square_conv(32, 32, 32, 4)
        assert spec.unfold_gemm_ait < spec.intrinsic_ait
        assert 0 < spec.unfold_ait_fraction < 1

    def test_large_kernel_approaches_matrix_multiply(self):
        # Fx = Nx, Fy = Ny: convolution degenerates to MM and the *exact*
        # unfold accounting recovers most of the intrinsic AIT (Sec. 3.1).
        near_mm = ConvSpec(nc=16, ny=8, nx=8, nf=64, fy=8, fx=8)
        small_kernel = ConvSpec(nc=16, ny=8, nx=8, nf=64, fy=2, fx=2)
        frac_near = near_mm.unfold_gemm_ait_exact / near_mm.intrinsic_ait
        frac_small = small_kernel.unfold_gemm_ait_exact / small_kernel.intrinsic_ait
        assert frac_near > frac_small
        assert frac_near > 0.5

    def test_more_features_raises_unfold_fraction(self):
        few = square_conv(64, 16, 32, 5)
        many = square_conv(64, 1024, 32, 5)
        assert many.unfold_ait_fraction > few.unfold_ait_fraction


class TestBackwardDataCorrelation:
    # Pre-padded (engine-facing) geometries, as the conv layer builds.
    def test_same_padded_layer_is_a_forward_problem_of_equal_flops(self):
        spec = ConvSpec(nc=64, ny=20, nx=20, nf=64, fy=5, fx=5)  # 16 + 2*2
        corr = backward_data_correlation(spec, 2)
        assert corr.input_shape == (64, 20, 20)   # error + border of 2
        assert corr.output_shape == spec.cropped_input_shape(2) == (64, 16, 16)
        assert corr.flops == spec.flops

    def test_non_square_kernel_borders_each_axis_by_its_own_side(self):
        spec = ConvSpec(nc=3, ny=10, nx=13, nf=4, fy=3, fx=5)
        corr = backward_data_correlation(spec, 2)
        # out 8x9, bordered by (3-1-2, 5-1-2) per side.
        assert corr.input_shape == (4, 8, 13)
        assert corr.output_shape == (3, 6, 9)

    @pytest.mark.parametrize("spec,crop", [
        (ConvSpec(nc=2, ny=11, nx=11, nf=2, fy=3, fx=3, sy=2, sx=1), 1),
        (ConvSpec(nc=2, ny=11, nx=11, nf=2, fy=3, fx=3), 0),  # unpadded
        (ConvSpec(nc=2, ny=12, nx=12, nf=2, fy=5, fx=5), 1),  # GEMM grows
        (ConvSpec(nc=2, ny=12, nx=12, nf=2, fy=2, fx=5), 2),  # crop > Fy-1
    ])
    def test_rule_keeps_the_adjoint_form(self, spec, crop):
        assert backward_data_correlation(spec, crop) is None

    def test_rejects_padded_spec_and_empty_crop(self):
        with pytest.raises(ShapeError):
            backward_data_correlation(
                ConvSpec(nc=1, ny=8, nx=8, nf=1, fy=3, fx=3, pad=1), 1)
        spec = ConvSpec(nc=1, ny=8, nx=6, nf=1, fy=3, fx=3)
        for crop in (3, -1):
            with pytest.raises(ShapeError):
                spec.cropped_input_shape(crop)
        assert spec.cropped_input_shape(0) == spec.input_shape


conv_specs = st.builds(
    ConvSpec,
    nc=st.integers(1, 8),
    ny=st.integers(6, 20),
    nx=st.integers(6, 20),
    nf=st.integers(1, 8),
    fy=st.integers(1, 5),
    fx=st.integers(1, 5),
    sy=st.integers(1, 3),
    sx=st.integers(1, 3),
)


class TestProperties:
    @given(conv_specs)
    @settings(max_examples=60, deadline=None)
    def test_counts_positive_and_consistent(self, spec):
        assert spec.out_ny >= 1 and spec.out_nx >= 1
        assert spec.flops > 0
        assert spec.intrinsic_ait > 0
        assert spec.unfold_gemm_ait > 0

    @given(conv_specs)
    @settings(max_examples=60, deadline=None)
    def test_gemm_flops_equal_conv_flops(self, spec):
        m, k, n = spec.gemm_dims
        assert 2 * m * k * n == spec.flops

    @given(conv_specs)
    @settings(max_examples=60, deadline=None)
    def test_unfold_never_beats_intrinsic(self, spec):
        # unfold nominal |U| >= |I| is not always true for strided convs,
        # but the 2|U| write+read always at least matches reading I once
        # whenever the kernel covers every input element (stride 1).
        if spec.sy == 1 and spec.sx == 1:
            assert spec.unfold_gemm_ait <= spec.intrinsic_ait + 1e-9

    @given(conv_specs)
    @settings(max_examples=60, deadline=None)
    def test_describe_mentions_geometry(self, spec):
        text = spec.describe()
        assert f"{spec.fy}x{spec.fx}" in text

    @given(conv_specs, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_output_grows_with_padding(self, spec, pad):
        padded = ConvSpec(
            nc=spec.nc, ny=spec.ny, nx=spec.nx, nf=spec.nf,
            fy=spec.fy, fx=spec.fx, sy=spec.sy, sx=spec.sx, pad=pad,
        )
        assert padded.out_ny >= spec.out_ny
        assert padded.out_nx >= spec.out_nx


class TestTable1Regression:
    def test_exact_paper_values(self):
        from repro.data.tables import (
            TABLE1_CONVS,
            TABLE1_INTRINSIC_AIT,
            TABLE1_UNFOLD_AIT,
        )

        for spec, intrinsic, unfold in zip(
            TABLE1_CONVS, TABLE1_INTRINSIC_AIT, TABLE1_UNFOLD_AIT
        ):
            assert math.floor(spec.intrinsic_ait) == intrinsic, spec.name
            assert math.floor(spec.unfold_gemm_ait) == unfold, spec.name
