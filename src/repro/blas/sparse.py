"""Compressed Sparse Row matrices and sparse-dense multiplication.

This is the plain CSR building block that the paper's CT-CSR format
(:mod:`repro.sparse.ctcsr`) tiles along columns.  It also provides the
sparse-dense GEMM used by the pointer-shifting sparse convolution kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError


@dataclass(frozen=True)
class CSRMatrix:
    """A read-only CSR sparse matrix.

    * ``values`` -- non-zero values, row-major order.
    * ``col_indices`` -- column index of each value.
    * ``row_ptr`` -- ``row_ptr[i]:row_ptr[i+1]`` spans row ``i``'s values.
    * ``shape`` -- dense ``(rows, cols)`` shape.
    """

    values: np.ndarray
    col_indices: np.ndarray
    row_ptr: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise ShapeError(f"invalid shape {self.shape}")
        if len(self.row_ptr) != rows + 1:
            raise ShapeError(f"row_ptr length {len(self.row_ptr)} != rows+1 ({rows + 1})")
        if len(self.values) != len(self.col_indices):
            raise ShapeError("values and col_indices lengths disagree")
        if len(self.values) != self.row_ptr[-1]:
            raise ShapeError("row_ptr[-1] does not match number of stored values")
        if len(self.col_indices) and (
            self.col_indices.min() < 0 or self.col_indices.max() >= cols
        ):
            raise ShapeError("column index out of range")

    @property
    def nnz(self) -> int:
        """Number of stored non-zero values."""
        return int(len(self.values))

    @property
    def sparsity(self) -> float:
        """Fraction of zero elements in the dense view."""
        rows, cols = self.shape
        total = rows * cols
        if total == 0:
            return 0.0
        return 1.0 - self.nnz / total

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``i``."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``[rows, cols]`` array."""
        rows, cols = self.shape
        dense = np.zeros((rows, cols), dtype=self.values.dtype)
        for i in range(rows):
            cols_i, vals_i = self.row(i)
            dense[i, cols_i] = vals_i
        return dense


def csr_from_dense(dense: np.ndarray) -> CSRMatrix:
    """Compress a dense 2-d array into CSR, dropping exact zeros."""
    if dense.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {dense.shape}")
    mask = dense != 0
    counts = mask.sum(axis=1)
    row_ptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    rows_idx, cols_idx = np.nonzero(mask)
    return CSRMatrix(
        values=dense[rows_idx, cols_idx].copy(),
        col_indices=cols_idx.astype(np.int64),
        row_ptr=row_ptr,
        shape=dense.shape,
    )


def csr_matmul_dense(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``S . D`` with CSR ``S`` and dense ``D``.

    Vectorized along the dense matrix's columns, mirroring the paper's
    channel-vectorized sparse MM (Fig. 5b): every stored non-zero
    ``S[i, j]`` contributes ``S[i, j] * D[j, :]`` to output row ``i``.
    """
    rows, cols = sparse.shape
    if dense.ndim != 2 or dense.shape[0] != cols:
        raise ShapeError(f"dense shape {dense.shape} incompatible with sparse {sparse.shape}")
    out = np.zeros((rows, dense.shape[1]), dtype=np.result_type(sparse.values, dense))
    if sparse.nnz == 0:
        return out
    # Gather the dense rows selected by each non-zero, scale, and segment-sum.
    contributions = dense[sparse.col_indices] * sparse.values[:, None]
    row_of_value = np.repeat(
        np.arange(rows), np.diff(sparse.row_ptr).astype(np.int64)
    )
    np.add.at(out, row_of_value, contributions)
    return out

