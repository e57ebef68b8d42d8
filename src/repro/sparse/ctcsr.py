"""Column-Tiled Compressed Sparse Row (CT-CSR) format (paper Sec. 4.2).

CT-CSR adapts CSR for locality: the sparse matrix is first tiled along its
columns and each tile is stored in CSR (Fig. 5a).  Within a tile, the
non-zeros of two adjacent rows are adjacent in memory, so a tile's working
set spans far fewer pages than full-width CSR rows would -- the paper's
TLB-miss argument.

For the sparse BP kernels the matrix being compressed is the output error
``EO`` viewed as ``[out_Ny*out_Nx, Nf]`` (one row per output position, one
column per output feature, ``f`` fastest in memory per the Sec. 4.2 layout
transformation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.blas.sparse import CSRMatrix, csr_from_dense, csr_matmul_dense
from repro.errors import ShapeError

#: Default column-tile width: 64 columns x 4 B = one 256 B stretch per row,
#: keeping a tile's rows dense in memory without fragmenting small feature
#: counts into many tiles.
DEFAULT_TILE_COLS = 64


@dataclass(frozen=True)
class CTCSRMatrix:
    """A column-tiled CSR sparse matrix."""

    shape: tuple[int, int]
    tile_cols: int
    tiles: tuple[CSRMatrix, ...]

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if self.tile_cols <= 0:
            raise ShapeError(f"tile_cols must be positive, got {self.tile_cols}")
        expected_tiles = max(1, math.ceil(cols / self.tile_cols))
        if len(self.tiles) != expected_tiles:
            raise ShapeError(
                f"expected {expected_tiles} column tiles for shape {self.shape} "
                f"with tile_cols={self.tile_cols}, got {len(self.tiles)}"
            )
        for t, tile in enumerate(self.tiles):
            width = min(self.tile_cols, cols - t * self.tile_cols) if cols else 0
            if tile.shape != (rows, max(width, 0)):
                raise ShapeError(
                    f"tile {t} has shape {tile.shape}, expected ({rows}, {width})"
                )

    @property
    def nnz(self) -> int:
        """Total stored non-zeros across all tiles."""
        return sum(tile.nnz for tile in self.tiles)

    @property
    def sparsity(self) -> float:
        """Fraction of zero elements in the dense view."""
        total = self.shape[0] * self.shape[1]
        if total == 0:
            return 0.0
        return 1.0 - self.nnz / total

    @property
    def num_tiles(self) -> int:
        """Number of column tiles."""
        return len(self.tiles)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``[rows, cols]`` array."""
        rows, cols = self.shape
        dense = np.zeros((rows, cols), dtype=self.tiles[0].values.dtype)
        for t, tile in enumerate(self.tiles):
            lo = t * self.tile_cols
            dense[:, lo : lo + tile.shape[1]] = tile.to_dense()
        return dense

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """``self . dense`` accumulated tile by tile.

        Each column tile multiplies the matching row band of ``dense``;
        iterating tiles in order is what gives the format its reuse of the
        dense operand's rows (Fig. 5b).
        """
        rows, cols = self.shape
        if dense.ndim != 2 or dense.shape[0] != cols:
            raise ShapeError(
                f"dense shape {dense.shape} incompatible with CT-CSR {self.shape}"
            )
        out = np.zeros((rows, dense.shape[1]), dtype=dense.dtype)
        for t, tile in enumerate(self.tiles):
            lo = t * self.tile_cols
            band = dense[lo : lo + tile.shape[1]]
            if tile.nnz:
                out += csr_matmul_dense(tile, band)
        return out

    def t_matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """``self^T . dense`` -- used by the sparse dW kernel (Eq. 4)."""
        rows, cols = self.shape
        if dense.ndim != 2 or dense.shape[0] != rows:
            raise ShapeError(
                f"dense shape {dense.shape} incompatible with CT-CSR^T {self.shape}"
            )
        out = np.zeros((cols, dense.shape[1]), dtype=dense.dtype)
        for t, tile in enumerate(self.tiles):
            if not tile.nnz:
                continue
            lo = t * self.tile_cols
            row_of_value = np.repeat(
                np.arange(rows), np.diff(tile.row_ptr).astype(np.int64)
            )
            contrib = dense[row_of_value] * tile.values[:, None]
            np.add.at(out, lo + tile.col_indices, contrib)
        return out


def ctcsr_from_dense(dense: np.ndarray, tile_cols: int = DEFAULT_TILE_COLS) -> CTCSRMatrix:
    """Compress a dense 2-d array into CT-CSR with the given tile width."""
    if dense.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {dense.shape}")
    rows, cols = dense.shape
    num_tiles = max(1, math.ceil(cols / tile_cols))
    tiles = tuple(
        csr_from_dense(dense[:, t * tile_cols : min((t + 1) * tile_cols, cols)])
        for t in range(num_tiles)
    )
    return CTCSRMatrix(shape=dense.shape, tile_cols=tile_cols, tiles=tiles)

