"""Tests for the blocked GEMM library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.gemm import (
    BlockingParams,
    gemm,
    partition_rows,
)
from repro.errors import ShapeError


class TestGemm:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((37, 53)).astype(np.float32)
        b = rng.standard_normal((53, 29)).astype(np.float32)
        np.testing.assert_allclose(gemm(a, b), a @ b, atol=1e-3)

    def test_small_blocks_force_many_panels(self, rng):
        a = rng.standard_normal((17, 23)).astype(np.float32)
        b = rng.standard_normal((23, 19)).astype(np.float32)
        blocking = BlockingParams(mc=4, kc=5, nc=6)
        np.testing.assert_allclose(gemm(a, b, blocking=blocking), a @ b, atol=1e-3)

    def test_accumulates_into_out(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        out = np.ones((8, 8), dtype=np.float32)
        gemm(a, b, out=out)
        np.testing.assert_allclose(out, 1.0 + a @ b, atol=1e-3)

    def test_rejects_mismatched_inner(self, rng):
        with pytest.raises(ShapeError):
            gemm(np.ones((2, 3)), np.ones((4, 2)))

    def test_rejects_bad_out_shape(self):
        with pytest.raises(ShapeError):
            gemm(np.ones((2, 3)), np.ones((3, 2)), out=np.ones((3, 3)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            gemm(np.ones(3), np.ones((3, 2)))

    def test_rejects_bad_blocking(self):
        with pytest.raises(ValueError):
            BlockingParams(mc=0)

    @given(
        st.integers(1, 24), st.integers(1, 24), st.integers(1, 24),
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocking_invariant(self, m, k, n, mc, kc, nc):
        rng = np.random.default_rng(m * 1000 + k * 100 + n)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        got = gemm(a, b, blocking=BlockingParams(mc=mc, kc=kc, nc=nc))
        np.testing.assert_allclose(got, a @ b, atol=1e-3)


class TestPartitionRows:
    def test_even_split(self):
        assert partition_rows(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads(self):
        assert partition_rows(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_parts_than_rows(self):
        parts = partition_rows(2, 4)
        assert len(parts) == 4
        assert sum(hi - lo for lo, hi in parts) == 2

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            partition_rows(4, 0)

    @given(st.integers(0, 200), st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, m, parts):
        ranges = partition_rows(m, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0 and ranges[-1][1] == m
        # Contiguous, non-overlapping, balanced within 1 row.
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 == lo2
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

