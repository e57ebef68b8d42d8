"""A worker pool for genuinely parallel image-level execution.

The paper's spg-CNN techniques all parallelize at the *image* level
(GEMM-in-Parallel, and likewise the stencil and sparse kernels).  This
pool runs those per-image kernels on a pluggable execution backend
(:mod:`repro.runtime.backends`).  The caller is a worker: a pool of N
runs the first range (thunk 0) on the calling thread and ranges 1..N-1
on N-1 helpers, so no core sits idle waiting on the others:

* ``backend="thread"``  (default) -- N-1 helper threads; the numpy
  operations that dominate the GEMM kernels release the GIL, so
  image-level parallelism yields real concurrency even from Python.
* ``backend="process"`` -- N-1 persistent spawned helper processes;
  each owns its own GIL, so the Python and numpy glue between the
  kernel calls (layer bookkeeping, the per-image loops around the BLAS
  and C calls, the unfold copies) runs concurrently too, not only the
  calls that release the GIL.  Shipped tasks must pickle; array
  payloads travel through :mod:`repro.runtime.shm` segments.  Range 0
  is never shipped: it runs the in-process task on the parent's own
  arrays, and a one-worker pool starts no process at all.
* ``backend="serial"`` -- tasks run inline in range order: the
  determinism reference and the zero-overhead single-core baseline.

The pool is deliberately minimal -- ``map_batches`` mirrors the paper's
scheduling (contiguous image ranges per core, Sec. 4.1) and is what the
:class:`repro.runtime.parallel.ParallelExecutor` builds on.

Fault handling: every task runs through
:func:`repro.resilience.policy.run_with_retries`, which retries a
raising attempt under the ambient policy (``apply_policy``).  The chaos
sites ``pool.task`` / ``pool.result`` wrap the *dispatch* of a task, on
the parent side, so a chaos plan fires identically under every backend.
The pool sets no hang deadline; the process backend measures its own.
"""

from __future__ import annotations

import functools
import os
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable, Mapping, Sequence, TypeVar

from repro import telemetry
from repro.blas.gemm import partition_rows
from repro.errors import ReproError
from repro.resilience import faults
from repro.resilience.policy import active_policy, run_with_retries
from repro.runtime.backends import (
    ProcessBackend,
    pin_caller_blas,
    validate_backend,
)

T = TypeVar("T")


def default_worker_count() -> int:
    """Number of workers to use when unspecified: the host's CPU count."""
    return max(1, os.cpu_count() or 1)


def _item_range_task(task: Callable[[int], T], lo: int, hi: int) -> list[T]:
    """Module-level body of ``map_items`` ranges (picklable for spawn)."""
    return [task(i) for i in range(lo, hi)]


class WorkerPool:
    """A fixed set of workers executing image-range tasks."""

    def __init__(self, num_workers: int | None = None,
                 backend: str = "thread") -> None:
        if num_workers is not None and num_workers <= 0:
            raise ReproError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers or default_worker_count()
        self.backend_name = validate_backend(backend)
        # The helper processes of a pool that ships, built lazily
        # (process spawn is costly); no other pool has a backend object.
        self._backend: ProcessBackend | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None
        self._backend_finalizer: weakref.finalize | None = None
        self._at_shutdown: list[Callable[[], None]] = []

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        if self.backend_name != "serial" and self.num_workers > 1:
            self._require_executor()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def at_shutdown(self, release: Callable[[], None]) -> None:
        """Run ``release`` once, at the start of the next :meth:`shutdown`.

        For state whose lifetime is the workers': the sharded step keeps
        its parameter, batch and gradient segments on the pool this way,
        so whoever shuts the pool down also frees them.
        """
        self._at_shutdown.append(release)

    def shutdown(self) -> None:
        """Stop the workers (idempotent; the pool may be reused).

        A process pool keeps its backend object and the next dispatch
        restarts it (``start()`` is idempotent and respawns the worker
        set).
        """
        releases, self._at_shutdown = self._at_shutdown, []
        for release in releases:
            release()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._backend_finalizer is not None:
            self._backend_finalizer.detach()
            self._backend_finalizer = None
        if self._backend is not None:
            self._backend.shutdown()

    @property
    def ships(self) -> bool:
        """Whether ranges 1.. run in helper processes, so their operands
        must travel through shared memory (range 0 never does)."""
        return self.backend_name == "process" and self.num_workers > 1

    def _require_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            # Started lazily (or re-started after shutdown()), with one
            # dispatcher thread per helper: the caller runs thunk 0.  The
            # finalizer guarantees the threads are reaped even if the
            # owner never calls shutdown(): it fires when the pool is
            # garbage-collected, referencing only the executor itself.
            executor = ThreadPoolExecutor(
                max_workers=max(1, self.num_workers - 1))
            self._executor = executor
            self._finalizer = weakref.finalize(self, executor.shutdown, False)
        return self._executor

    def _require_backend(self) -> ProcessBackend:
        """The helper processes running ranges 1.. of a pool that
        :attr:`ships`: one worker per helper (the caller runs range 0
        itself)."""
        if not self.ships:
            raise ReproError(f"a {self.num_workers}-worker "
                             f"{self.backend_name} pool has no helper "
                             f"processes")
        if self._backend is None:
            self._backend = ProcessBackend(self.num_workers - 1)
        # The caller runs range 0 beside single-threaded helpers.
        pin_caller_blas()
        # The retry policy is the user-facing fault-budget knob; mirror
        # its crash budget onto the backend's per-job redispatch budget
        # so one setting governs both layers.
        policy = active_policy()
        if policy is not None:
            self._backend.max_redispatch = policy.max_redispatches
        # start() is idempotent and revives a shut-down backend.
        needs_finalizer = self._backend_finalizer is None
        self._backend.start()
        if needs_finalizer:
            self._backend_finalizer = weakref.finalize(
                self, self._backend.shutdown
            )
        return self._backend

    @property
    def backend(self) -> ProcessBackend | None:
        """The live backend instance, if one has been built yet.

        Supervision tooling (``repro workers``, the kill-chaos harness)
        reaches the :class:`ProcessBackend` through this to read
        ``supervisor_state()`` or pin ``task_deadline`` -- without
        forcing a lazy pool to spawn workers just to be inspected.
        """
        return self._backend

    # -- execution --------------------------------------------------------

    def assignment(self, batch_size: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` image ranges, one per worker (Sec. 4.1)."""
        if batch_size <= 0:
            raise ReproError(f"batch_size must be positive, got {batch_size}")
        return [r for r in partition_rows(batch_size, self.num_workers) if r[0] < r[1]]

    def run_tasks(
        self,
        thunks: Sequence[Callable[[], T]],
        metas: Sequence[Mapping[str, Any]] | None = None,
    ) -> list[T]:
        """Run parent-side thunks with spans, fault sites and retries.

        The scheduling primitive beneath ``map_batches``: each thunk is
        wrapped in a ``pool/task`` telemetry span and the ``pool.task``
        / ``pool.result`` fault sites, retried under the ambient policy
        (:func:`~repro.resilience.policy.run_with_retries`; thunks must
        then be idempotent), and executed on this pool's backend --
        inline in order (serial); otherwise thunk 0 on the calling
        thread and thunks 1.. on the dispatcher threads, which run them
        (thread) or block on a worker-process round-trip (process; the
        thunk itself performs the shipping, and thunk 0 ships nothing).
        Results come back in thunk order; the first failure in thunk
        order propagates after every sibling resolved.
        """
        metas = metas or [{} for _ in thunks]
        policy = active_policy()
        telemetry.add("pool.tasks", len(thunks))
        telemetry.gauge("pool.queue_occupancy", len(thunks))

        def attempt(index: int) -> T:
            meta = dict(metas[index])
            with telemetry.span("pool/task", worker=index, **meta):
                faults.perturb("pool.task", worker=index, **meta)
                return faults.corrupt_array("pool.result", thunks[index]())

        def run(index: int) -> T:
            return run_with_retries(lambda: attempt(index), policy, index)

        try:
            if self.backend_name == "serial" or len(thunks) <= 1:
                return [run(i) for i in range(len(thunks))]
            executor = self._require_executor()
            futures = [executor.submit(run, i)
                       for i in range(1, len(thunks))]
            try:
                first = run(0)
            finally:
                # Let every sibling task finish before propagating any
                # failure, as documented -- callers must never observe
                # a task still running after run_tasks raised.
                wait(futures)
            for f in futures:
                error = f.exception()
                if error is not None:
                    raise error
            return [first] + [f.result() for f in futures]
        finally:
            # Results collected (or the batch failed): the queue is
            # drained either way, and the gauge must say so -- a stuck
            # nonzero value reads as a phantom backlog on the trace's
            # counter track and in the monitor report.
            telemetry.gauge("pool.queue_occupancy", 0)

    def map_batches(
        self, task: Callable[[int, int], T], batch_size: int
    ) -> list[T]:
        """Run ``task(lo, hi)`` over the per-worker image ranges, in parallel.

        Results are returned in range order.  Exceptions propagate to the
        caller after all submitted tasks finish.  Under a retry policy,
        failing attempts are retried first; tasks must be idempotent
        (pure functions of their range).
        Under the process backend the task and its captured state must
        pickle -- ship arrays through :mod:`repro.runtime.shm` instead
        of capturing them; the first range runs on the caller unshipped.
        """
        ranges = self.assignment(batch_size)
        thunks = [(lambda lo=lo, hi=hi: task(lo, hi)) for lo, hi in ranges]
        if self.ships and len(ranges) > 1:
            backend = self._require_backend()
            thunks[1:] = [
                (lambda lo=lo, hi=hi: backend.call(task, lo, hi))
                for lo, hi in ranges[1:]
            ]
        metas = [{"lo": lo, "hi": hi} for lo, hi in ranges]
        return self.run_tasks(thunks, metas)

    def map_items(self, task: Callable[[int], T], count: int) -> list[T]:
        """Run ``task(i)`` for every item index, spread over the workers.

        Under the process backend ``task`` itself must pickle (the range
        wrapper around it already does).
        """
        nested = self.map_batches(
            functools.partial(_item_range_task, task), count
        )
        return [item for chunk in nested for item in chunk]
