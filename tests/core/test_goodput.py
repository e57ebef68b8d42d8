"""Tests for goodput accounting (Eqs. 9-10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodput import (
    GoodputReport,
    dense_goodput_bound,
    measure_sparsity,
    nonzero_conv_flops,
)


class TestGoodputReport:
    def test_basic_rates(self):
        report = GoodputReport(total_flops=100.0, nonzero_flops=25.0, seconds=2.0)
        assert report.throughput == pytest.approx(50.0)
        assert report.goodput == pytest.approx(12.5)
        assert report.sparsity == pytest.approx(0.75)
        assert report.efficiency == pytest.approx(0.25)

    def test_dense_work_has_full_efficiency(self):
        report = GoodputReport(total_flops=10.0, nonzero_flops=10.0, seconds=1.0)
        assert report.efficiency == pytest.approx(1.0)
        assert report.sparsity == 0.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            GoodputReport(total_flops=1.0, nonzero_flops=1.0, seconds=0.0)

    def test_rejects_nonzero_exceeding_total(self):
        with pytest.raises(ValueError):
            GoodputReport(total_flops=1.0, nonzero_flops=2.0, seconds=1.0)

    @given(
        st.floats(min_value=1.0, max_value=1e9),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_goodput_never_exceeds_throughput(self, total, frac, seconds):
        report = GoodputReport(
            total_flops=total, nonzero_flops=total * frac, seconds=seconds
        )
        assert report.goodput <= report.throughput + 1e-9


class TestDenseGoodputBound:
    def test_eq10(self):
        # 85% sparsity caps dense goodput at 15% of throughput (Sec. 3.3).
        assert dense_goodput_bound(0.85, 60e9) == pytest.approx(9e9)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            dense_goodput_bound(-0.1, 1.0)
        with pytest.raises(ValueError):
            dense_goodput_bound(0.5, -1.0)

    @given(st.floats(0, 1), st.floats(0, 1e12))
    @settings(max_examples=50, deadline=None)
    def test_bound_is_linear_in_density(self, sparsity, throughput):
        assert dense_goodput_bound(sparsity, throughput) == pytest.approx(
            (1 - sparsity) * throughput
        )


class TestMeasureSparsity:
    def test_exact_zeros(self):
        arr = np.array([0.0, 1.0, 0.0, 2.0])
        assert measure_sparsity(arr) == pytest.approx(0.5)

    def test_tolerance(self):
        arr = np.array([0.0, 1e-9, 1.0])
        assert measure_sparsity(arr) == pytest.approx(1 / 3)
        assert measure_sparsity(arr, tolerance=1e-6) == pytest.approx(2 / 3)

    def test_empty_array(self):
        assert measure_sparsity(np.array([])) == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_nan_and_inf_count_as_an_equality_test_would(
            self, dtype):
        arr = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -0.0,
                        np.nan], dtype=dtype).reshape(2, 4)
        assert measure_sparsity(arr) == np.count_nonzero(arr == 0) / arr.size
        assert measure_sparsity(arr) == 3 / 8

    def test_multidimensional(self):
        arr = np.zeros((3, 4, 5))
        arr[0, 0, 0] = 1.0
        assert measure_sparsity(arr) == pytest.approx(59 / 60)


class TestNonzeroConvFlops:
    def test_scaling(self):
        assert nonzero_conv_flops(1000.0, 0.9) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            nonzero_conv_flops(100.0, 1.1)
