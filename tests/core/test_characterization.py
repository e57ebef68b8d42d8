"""Tests for the Fig. 1 design-space characterization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterization import (
    HIGH_AIT_THRESHOLD,
    LOW_AIT_THRESHOLD,
    SPARSE_THRESHOLD,
    Region,
    ait_band,
    characterize,
    classify,
    region_pair,
)
from repro.core.convspec import square_conv
from repro.data.tables import TABLE1_CONVS, TABLE1_REGIONS


class TestRegion:
    def test_odd_regions_are_sparse(self):
        for region in Region:
            assert region.is_sparse == (region % 2 == 1)

    def test_ait_bands(self):
        assert Region.HIGH_AIT_DENSE.ait_band == "high"
        assert Region.MODERATE_AIT_SPARSE.ait_band == "moderate"
        assert Region.LOW_AIT_SPARSE.ait_band == "low"


class TestClassification:
    def test_table1_regions_match_paper(self):
        for spec, expected in zip(TABLE1_CONVS, TABLE1_REGIONS):
            assert region_pair(spec) == expected, spec.name

    def test_sparsity_moves_to_odd_region(self):
        spec = TABLE1_CONVS[1]  # high AIT
        assert classify(spec, 0.0) == Region.HIGH_AIT_DENSE
        assert classify(spec, 0.9) == Region.HIGH_AIT_SPARSE

    def test_sparsity_threshold_boundary(self):
        spec = TABLE1_CONVS[1]
        assert not classify(spec, SPARSE_THRESHOLD - 0.01).is_sparse
        assert classify(spec, SPARSE_THRESHOLD).is_sparse

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            classify(TABLE1_CONVS[0], 1.5)

    @given(st.floats(min_value=0.0, max_value=10000.0))
    @settings(max_examples=50, deadline=None)
    def test_band_total_order(self, value):
        band = ait_band(value)
        if value >= HIGH_AIT_THRESHOLD:
            assert band == "high"
        elif value >= LOW_AIT_THRESHOLD:
            assert band == "moderate"
        else:
            assert band == "low"


class TestCharacterization:
    def test_high_ait_scales(self):
        ch = characterize(TABLE1_CONVS[1])
        assert ch.region.ait_band == "high"
        assert not ch.region.is_sparse

    def test_low_ait_poor_everything_when_sparse(self):
        ch = characterize(TABLE1_CONVS[0], sparsity=0.9)
        assert ch.region.ait_band == "low"
        assert ch.region.is_sparse

    def test_recommendations_follow_section_4_4(self):
        # Small feature counts -> stencil FP; sparse -> sparse BP.
        small = characterize(TABLE1_CONVS[0], sparsity=0.9)
        assert small.recommended_fp() == "stencil"
        assert small.recommended_bp() == "sparse"
        # High-AIT dense convolutions stay on Parallel-GEMM.
        big = characterize(TABLE1_CONVS[1], sparsity=0.0)
        assert big.recommended_fp() == "parallel-gemm"
        assert big.recommended_bp() == "parallel-gemm"
        # Moderate AIT dense: GEMM-in-Parallel both phases.
        mid = characterize(TABLE1_CONVS[2], sparsity=0.0)
        assert mid.recommended_fp() == "gemm-in-parallel"
        assert mid.recommended_bp() == "gemm-in-parallel"

    def test_mnist_is_low_ait(self):
        # MNIST's 20-feature conv sits in regions 4/5 (Fig. 1 placement).
        mnist = square_conv(28, 20, 1, 5, name="mnist")
        assert region_pair(mnist) == (4, 5)

    def test_characterize_carries_values(self):
        spec = TABLE1_CONVS[3]
        ch = characterize(spec, sparsity=0.5)
        assert ch.intrinsic_ait == pytest.approx(spec.intrinsic_ait)
        assert ch.unfold_ait == pytest.approx(spec.unfold_gemm_ait)
        assert ch.sparsity == 0.5
