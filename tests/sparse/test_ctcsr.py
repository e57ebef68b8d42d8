"""Tests for the CT-CSR format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.sparse.ctcsr import CTCSRMatrix, ctcsr_from_dense


def sparse_dense(rng, rows, cols, sparsity):
    dense = rng.standard_normal((rows, cols)).astype(np.float32)
    dense[rng.random((rows, cols)) < sparsity] = 0.0
    return dense


class TestTiling:
    def test_tile_count(self, rng):
        dense = sparse_dense(rng, 4, 70, 0.5)
        ct = ctcsr_from_dense(dense, tile_cols=32)
        assert ct.num_tiles == 3
        assert ct.tiles[0].shape == (4, 32)
        assert ct.tiles[2].shape == (4, 6)  # remainder tile

    def test_single_tile_when_narrow(self, rng):
        dense = sparse_dense(rng, 5, 10, 0.5)
        ct = ctcsr_from_dense(dense, tile_cols=64)
        assert ct.num_tiles == 1

    def test_nnz_sums_over_tiles(self, rng):
        dense = sparse_dense(rng, 9, 100, 0.7)
        ct = ctcsr_from_dense(dense, tile_cols=16)
        assert ct.nnz == np.count_nonzero(dense)

    def test_sparsity_matches_dense(self, rng):
        dense = sparse_dense(rng, 8, 40, 0.8)
        ct = ctcsr_from_dense(dense, tile_cols=8)
        expected = 1.0 - np.count_nonzero(dense) / dense.size
        assert ct.sparsity == pytest.approx(expected)

    def test_rejects_bad_tile_width(self, rng):
        dense = sparse_dense(rng, 2, 4, 0.5)
        tiles = ctcsr_from_dense(dense, tile_cols=2).tiles
        with pytest.raises(ShapeError):
            CTCSRMatrix(shape=(2, 4), tile_cols=0, tiles=tiles)

    def test_rejects_wrong_tile_count(self, rng):
        dense = sparse_dense(rng, 2, 4, 0.0)
        ct = ctcsr_from_dense(dense, tile_cols=2)
        with pytest.raises(ShapeError):
            CTCSRMatrix(shape=(2, 4), tile_cols=2, tiles=ct.tiles[:1])


class TestRoundtrip:
    @given(
        st.integers(1, 12),
        st.integers(1, 40),
        st.integers(1, 16),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, rows, cols, tile_cols, sparsity, seed):
        rng = np.random.default_rng(seed)
        dense = sparse_dense(rng, rows, cols, sparsity)
        ct = ctcsr_from_dense(dense, tile_cols=tile_cols)
        np.testing.assert_array_equal(ct.to_dense(), dense)


class TestMatmul:
    def test_matches_dense_product(self, rng):
        dense = sparse_dense(rng, 12, 50, 0.8)
        other = rng.standard_normal((50, 7)).astype(np.float32)
        ct = ctcsr_from_dense(dense, tile_cols=16)
        np.testing.assert_allclose(ct.matmul_dense(other), dense @ other, atol=1e-3)

    def test_tiling_invariance(self, rng):
        dense = sparse_dense(rng, 10, 33, 0.6)
        other = rng.standard_normal((33, 5)).astype(np.float32)
        results = [
            ctcsr_from_dense(dense, tile_cols=t).matmul_dense(other)
            for t in (1, 4, 16, 33, 64)
        ]
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], atol=1e-3)

    def test_transposed_product(self, rng):
        dense = sparse_dense(rng, 14, 20, 0.7)
        other = rng.standard_normal((14, 6)).astype(np.float32)
        ct = ctcsr_from_dense(dense, tile_cols=8)
        np.testing.assert_allclose(
            ct.t_matmul_dense(other), dense.T @ other, atol=1e-3
        )

    def test_empty_matrix_products(self, rng):
        ct = ctcsr_from_dense(np.zeros((4, 10), np.float32), tile_cols=4)
        other = rng.standard_normal((10, 3)).astype(np.float32)
        np.testing.assert_array_equal(ct.matmul_dense(other), np.zeros((4, 3)))
        other_t = rng.standard_normal((4, 3)).astype(np.float32)
        np.testing.assert_array_equal(ct.t_matmul_dense(other_t), np.zeros((10, 3)))

    def test_rejects_incompatible_shapes(self, rng):
        ct = ctcsr_from_dense(sparse_dense(rng, 4, 10, 0.5))
        with pytest.raises(ShapeError):
            ct.matmul_dense(np.ones((9, 2)))
        with pytest.raises(ShapeError):
            ct.t_matmul_dense(np.ones((9, 2)))

    @given(
        st.integers(1, 10), st.integers(1, 20), st.integers(1, 8),
        st.floats(0.0, 1.0), st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_property(self, rows, cols, width, sparsity, seed):
        rng = np.random.default_rng(seed)
        dense = sparse_dense(rng, rows, cols, sparsity)
        other = rng.standard_normal((cols, width)).astype(np.float32)
        ct = ctcsr_from_dense(dense, tile_cols=7)
        np.testing.assert_allclose(ct.matmul_dense(other), dense @ other, atol=1e-3)

