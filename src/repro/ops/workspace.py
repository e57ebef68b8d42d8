"""Reusable per-engine scratch buffers keyed by role, shape and dtype.

The unfold/fold/GEMM pipeline and the sparse BP kernels allocate the
same intermediate arrays for every image of every batch: the column
buffer and (where a spec is not lowered to its views) the unfolded
matrix ``U^T``, the GEMM output panel, the HWC error scratch, the sparse
``dW`` layout.  Allocating them per call dominates small-layer runtime
and fragments the allocator under the process backend's long-lived
workers.  A :class:`Workspace` keeps one buffer per ``tag`` and hands
it back as long as the requested geometry matches, reallocating only
when a shape or dtype changes (e.g. the engine is pointed at a new
batch size).

Three access modes:

* :meth:`scratch` -- contents undefined; for buffers the caller fully
  overwrites (unfold targets, GEMM ``out=`` panels, pack buffers).
* :meth:`zeros` -- zero-filled on every call; for accumulation targets
  (the sparse kernels' HWC error image and ``dW`` layout).
* :meth:`zeroed_once` -- zero-filled when (re)allocated and then left as
  the caller wrote it; for a plane whose zero border is never written
  (the zero-bordered error of BP-data, the conv layer's padded batch).

Buffers are plain process-local ndarrays.  The shared-memory analogue
used by the process execution backend is
:class:`repro.runtime.shm.ShmArena`, which has the same ensure-by-role
contract over named segments.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """A pool of reusable ndarray buffers, one per tag."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        #: Buffer requests served without allocating (for tests/metrics).
        self.reuse_hits = 0
        #: Buffer (re)allocations performed (for tests/metrics).
        self.allocations = 0

    def _ensure(self, tag: str, shape: tuple[int, ...],
                dtype: np.dtype | str) -> np.ndarray:
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(tag)
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            self.reuse_hits += 1
            return buf
        buf = np.empty(shape, dtype=dtype)
        self._buffers[tag] = buf
        self.allocations += 1
        return buf

    def scratch(self, tag: str, shape: tuple[int, ...],
                dtype: np.dtype | str) -> np.ndarray:
        """The buffer for ``tag``; contents are undefined."""
        return self._ensure(tag, shape, dtype)

    def zeros(self, tag: str, shape: tuple[int, ...],
              dtype: np.dtype | str) -> np.ndarray:
        """The buffer for ``tag``, zero-filled for accumulation."""
        buf = self._ensure(tag, shape, dtype)
        buf.fill(0)
        return buf

    def zeroed_once(self, tag: str, shape: tuple[int, ...],
                    dtype: np.dtype | str) -> np.ndarray:
        """The buffer for ``tag``: zeros when new, else as last written."""
        before = self.allocations
        buf = self._ensure(tag, shape, dtype)
        if self.allocations != before:
            buf.fill(0)
        return buf

    def release(self) -> None:
        """Drop every buffer (the next request reallocates)."""
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)
