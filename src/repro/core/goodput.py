"""Goodput: the rate of useful (non-zero) work (paper Sec. 3.3, Eqs. 9-10).

The paper distinguishes *throughput* -- total floating point operations per
second, including multiplications by zero -- from *goodput*, the rate of
operations that actually contribute to the result.  For a dense execution
over data with sparsity :math:`s`, goodput is bounded by
:math:`(1 - s) \\times` throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GoodputReport:
    """Throughput/goodput accounting for one timed computation."""

    total_flops: float
    nonzero_flops: float
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError(f"seconds must be positive, got {self.seconds}")
        if not 0 <= self.nonzero_flops <= self.total_flops:
            raise ValueError(
                f"nonzero_flops ({self.nonzero_flops}) must be within "
                f"[0, total_flops={self.total_flops}]"
            )

    @property
    def throughput(self) -> float:
        """Total flops per second, zero work included."""
        return self.total_flops / self.seconds

    @property
    def goodput(self) -> float:
        """Non-zero flops per second (Eq. 9)."""
        return self.nonzero_flops / self.seconds

    @property
    def sparsity(self) -> float:
        """Fraction of the total work that was avoidable zero work."""
        if self.total_flops == 0:
            return 0.0
        return 1.0 - self.nonzero_flops / self.total_flops

    @property
    def efficiency(self) -> float:
        """Goodput as a fraction of throughput."""
        return self.goodput / self.throughput


def dense_goodput_bound(sparsity: float, throughput: float) -> float:
    """Upper bound on dense-execution goodput (Eq. 10).

    A dense kernel spends time proportional to total flops, so at sparsity
    ``s`` its goodput cannot exceed ``(1 - s) * throughput``.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    if throughput < 0:
        raise ValueError(f"throughput must be non-negative, got {throughput}")
    return (1.0 - sparsity) * throughput


def measure_sparsity(array: np.ndarray, tolerance: float = 0.0) -> float:
    """Fraction of elements whose magnitude is at most ``tolerance``.

    With the default tolerance of zero this is the paper's definition of
    sparsity: the fraction of exactly-zero elements.
    """
    if array.size == 0:
        return 0.0
    if tolerance == 0.0:
        zeros = _count_zeros(array)
    else:
        zeros = np.count_nonzero(np.abs(array) <= tolerance)
    return zeros / array.size


#: Elements compared per block by :func:`_count_zeros`.
_ZERO_BLOCK = 1 << 16


def _count_zeros(array: np.ndarray) -> int:
    """``np.count_nonzero(array == 0)`` without an ``array``-sized
    boolean temporary: the comparison runs a block at a time into one
    64 KB mask (``array.size - np.count_nonzero(array)`` would need
    none, but numpy counts a float array's non-zeros 3-6x slower than
    a mask's)."""
    flat = array.reshape(-1)
    mask = np.empty(min(flat.size, _ZERO_BLOCK), dtype=bool)
    zeros = 0
    for lo in range(0, flat.size, _ZERO_BLOCK):
        part = flat[lo:lo + _ZERO_BLOCK]
        np.equal(part, 0, out=mask[:part.size])
        zeros += np.count_nonzero(mask[:part.size])
    return zeros


def nonzero_conv_flops(total_flops: float, sparsity: float) -> float:
    """Useful flops of a convolution whose sparse operand has ``sparsity``.

    Each zero element of the sparse operand (the output error in BP) elides
    its full share of multiply-adds, so useful work scales with ``1 - s``.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    return total_flops * (1.0 - sparsity)
