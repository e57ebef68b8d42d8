"""Tests for the CSR sparse substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.blas.sparse import (
    CSRMatrix,
    csr_from_dense,
    csr_matmul_dense,
)
from repro.errors import ShapeError


def sparse_dense(rng, rows, cols, sparsity):
    dense = rng.standard_normal((rows, cols)).astype(np.float32)
    dense[rng.random((rows, cols)) < sparsity] = 0.0
    return dense


class TestRoundtrip:
    def test_roundtrip(self, rng):
        dense = sparse_dense(rng, 13, 17, 0.8)
        sparse = csr_from_dense(dense)
        np.testing.assert_array_equal(sparse.to_dense(), dense)

    def test_all_zero_matrix(self):
        sparse = csr_from_dense(np.zeros((4, 5), dtype=np.float32))
        assert sparse.nnz == 0
        assert sparse.sparsity == 1.0
        np.testing.assert_array_equal(sparse.to_dense(), np.zeros((4, 5)))

    def test_fully_dense_matrix(self, rng):
        dense = rng.standard_normal((3, 4)).astype(np.float32) + 10.0
        sparse = csr_from_dense(dense)
        assert sparse.nnz == 12
        assert sparse.sparsity == 0.0

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            csr_from_dense(np.zeros(5))

    @given(
        arrays(
            np.float32,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 7.0]),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, dense):
        sparse = csr_from_dense(dense)
        np.testing.assert_array_equal(sparse.to_dense(), dense)
        assert sparse.nnz == np.count_nonzero(dense)


class TestAccessors:
    def test_row_access(self, rng):
        dense = sparse_dense(rng, 6, 8, 0.7)
        sparse = csr_from_dense(dense)
        for i in range(6):
            cols, vals = sparse.row(i)
            expected_cols = np.nonzero(dense[i])[0]
            np.testing.assert_array_equal(cols, expected_cols)
            np.testing.assert_array_equal(vals, dense[i, expected_cols])

    def test_validation_catches_bad_row_ptr(self):
        with pytest.raises(ShapeError):
            CSRMatrix(
                values=np.array([1.0]),
                col_indices=np.array([0]),
                row_ptr=np.array([0, 1]),
                shape=(2, 2),
            )

    def test_validation_catches_column_out_of_range(self):
        with pytest.raises(ShapeError):
            CSRMatrix(
                values=np.array([1.0]),
                col_indices=np.array([5]),
                row_ptr=np.array([0, 1, 1]),
                shape=(2, 2),
            )


class TestMatmul:
    def test_matches_dense(self, rng):
        dense = sparse_dense(rng, 9, 11, 0.75)
        other = rng.standard_normal((11, 6)).astype(np.float32)
        got = csr_matmul_dense(csr_from_dense(dense), other)
        np.testing.assert_allclose(got, dense @ other, atol=1e-4)

    def test_zero_matrix_product(self, rng):
        sparse = csr_from_dense(np.zeros((4, 5), dtype=np.float32))
        other = rng.standard_normal((5, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            csr_matmul_dense(sparse, other), np.zeros((4, 3))
        )

    def test_rejects_incompatible_dense(self, rng):
        sparse = csr_from_dense(np.eye(3, dtype=np.float32))
        with pytest.raises(ShapeError):
            csr_matmul_dense(sparse, np.ones((4, 2)))

    @given(st.floats(0.0, 1.0), st.integers(1, 10), st.integers(1, 10),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matmul_property(self, sparsity, rows, cols, width):
        rng = np.random.default_rng(int(sparsity * 100) + rows * 10 + cols)
        dense = sparse_dense(rng, rows, cols, sparsity)
        other = rng.standard_normal((cols, width)).astype(np.float32)
        got = csr_matmul_dense(csr_from_dense(dense), other)
        np.testing.assert_allclose(got, dense @ other, atol=1e-3)

