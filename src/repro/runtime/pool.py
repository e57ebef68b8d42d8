"""A worker pool for genuinely parallel image-level execution.

The paper's spg-CNN techniques all parallelize at the *image* level
(GEMM-in-Parallel, and likewise the stencil and sparse kernels).  This
pool runs those per-image kernels on a pluggable execution backend
(:mod:`repro.runtime.backends`):

* ``backend="thread"``  (default) -- real threads; the numpy operations
  that dominate the GEMM kernels release the GIL, so image-level
  parallelism yields real concurrency even from Python.
* ``backend="process"`` -- persistent spawned worker processes; each
  owns its own GIL, so the Python and numpy glue between the kernel
  calls (layer bookkeeping, the per-image loops around the BLAS and C
  calls, the unfold copies) runs concurrently too, not only the calls
  that release the GIL.  Tasks must pickle; array payloads travel
  through :mod:`repro.runtime.shm` segments.
* ``backend="serial"`` -- tasks run inline in range order: the
  determinism reference and the zero-overhead single-core baseline.

The pool is deliberately minimal -- ``map_batches`` mirrors the paper's
scheduling (contiguous image ranges per core, Sec. 4.1) and is what the
:class:`repro.runtime.parallel.ParallelExecutor` builds on.

Fault handling: when a :class:`repro.resilience.policy.RetryPolicy` is
attached (explicitly, or ambiently via ``apply_policy``), tasks run
under supervision -- bounded retries with backoff for attempts that
raise, per-attempt deadlines with straggler reassignment for attempts
that hang -- and the chaos sites ``pool.task`` / ``pool.result`` let
:mod:`repro.resilience.faults` exercise exactly those paths
deterministically.  Both sites wrap the *dispatch* of a task, on the
parent side, so a chaos plan fires identically under every backend.
"""

from __future__ import annotations

import functools
import os
import weakref
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Mapping, Sequence, TypeVar

from repro import telemetry
from repro.blas.gemm import partition_rows
from repro.errors import ReproError
from repro.resilience import faults
from repro.resilience.policy import RetryPolicy, active_policy, run_supervised
from repro.runtime.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    make_backend,
)

T = TypeVar("T")


def default_worker_count() -> int:
    """Number of workers to use when unspecified: the host's CPU count."""
    return max(1, os.cpu_count() or 1)


class _InlineExecutor(Executor):
    """An Executor whose submit() runs the callable immediately.

    Lets the serial backend reuse :func:`run_supervised` unchanged:
    attempts execute inline in submission order, retries included
    (deadlines never fire because every attempt finishes before the
    supervision loop observes it).
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> "Future[Any]":  # noqa: D102
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - routed via the future
            future.set_exception(exc)
        return future


def _item_range_task(task: Callable[[int], T], lo: int, hi: int) -> list[T]:
    """Module-level body of ``map_items`` ranges (picklable for spawn)."""
    return [task(i) for i in range(lo, hi)]


class WorkerPool:
    """A fixed set of workers executing image-range tasks."""

    def __init__(self, num_workers: int | None = None,
                 policy: RetryPolicy | None = None,
                 backend: str | ExecutionBackend = "thread") -> None:
        if num_workers is not None and num_workers <= 0:
            raise ReproError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers or default_worker_count()
        self.policy = policy
        if isinstance(backend, ExecutionBackend):
            self._backend: ExecutionBackend | None = backend
            self.backend_name = backend.name
        else:
            if backend not in BACKEND_NAMES:
                raise ReproError(
                    f"unknown execution backend {backend!r}; "
                    f"known: {BACKEND_NAMES}"
                )
            self._backend = None  # built lazily (process spawn is costly)
            self.backend_name = backend
        self._executor: ThreadPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None
        self._backend_finalizer: weakref.finalize | None = None
        self._at_shutdown: list[Callable[[], None]] = []

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        if self.backend_name != "serial":
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

        The reuse contract is uniform across backends -- including a
        pool constructed with an :class:`ExecutionBackend` *instance*:
        the backend object is kept and the next dispatch restarts it
        (``start()`` is idempotent and, for the process backend,
        respawns the worker set).
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

    def _require_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            # Started lazily (or re-started after shutdown()).  The
            # finalizer guarantees the threads are reaped even if the
            # owner never calls shutdown(): it fires when the pool is
            # garbage-collected, referencing only the executor itself.
            executor = ThreadPoolExecutor(max_workers=self.num_workers)
            self._executor = executor
            self._finalizer = weakref.finalize(self, executor.shutdown, False)
        return self._executor

    def _require_backend(self) -> ExecutionBackend:
        if self._backend is None:
            self._backend = make_backend(self.backend_name, self.num_workers)
        if isinstance(self._backend, ProcessBackend):
            # The retry policy is the user-facing fault-budget knob;
            # mirror its crash budget onto the backend's per-job
            # redispatch budget so one setting governs both layers.
            policy = self._effective_policy()
            if policy is not None:
                self._backend.max_redispatch = policy.max_redispatches
        # start() is idempotent and revives a shut-down backend, so
        # reuse-after-shutdown behaves identically whether the pool was
        # built from a backend name or a live instance.
        needs_finalizer = self._backend_finalizer is None
        self._backend.start()
        if needs_finalizer and isinstance(self._backend, ProcessBackend):
            self._backend_finalizer = weakref.finalize(
                self, self._backend.shutdown
            )
        return self._backend

    @property
    def backend(self) -> ExecutionBackend | None:
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

    def _effective_policy(self) -> RetryPolicy | None:
        return self.policy if self.policy is not None else active_policy()

    def run_tasks(
        self,
        thunks: Sequence[Callable[[], T]],
        metas: Sequence[Mapping[str, Any]] | None = None,
    ) -> list[T]:
        """Run parent-side thunks with spans, fault sites and supervision.

        The scheduling primitive beneath ``map_batches``: each thunk is
        wrapped in a ``pool/task`` telemetry span and the ``pool.task``
        / ``pool.result`` fault sites, then executed on this pool's
        backend -- inline in order (serial), on the dispatcher threads
        (thread), or blocking on a worker-process round-trip (process;
        the thunk itself performs the shipping).  Results come back in
        thunk order; the first failure propagates after every sibling
        resolved.  Under a retry policy, thunks must be idempotent.
        """
        metas = metas or [{} for _ in thunks]
        policy = self._effective_policy()
        telemetry.add("pool.tasks", len(thunks))
        telemetry.gauge("pool.queue_occupancy", len(thunks))

        def run(index: int) -> T:
            meta = dict(metas[index])
            with telemetry.span("pool/task", worker=index, **meta):
                faults.perturb("pool.task", worker=index, **meta)
                return faults.corrupt_array("pool.result", thunks[index]())

        serial = self.backend_name == "serial"
        try:
            if policy is None:
                if serial or len(thunks) == 1:
                    return [run(i) for i in range(len(thunks))]
                executor = self._require_executor()
                futures = [executor.submit(run, i) for i in range(len(thunks))]
                # Let every sibling task finish before propagating any
                # failure, as documented -- callers must never observe a
                # task still running after run_tasks raised.
                wait(futures)
                for f in futures:
                    error = f.exception()
                    if error is not None:
                        raise error
                return [f.result() for f in futures]
            supervisor: Executor = (
                _InlineExecutor() if serial else self._require_executor()
            )
            wrapped = [
                (lambda i=i: run(i)) for i in range(len(thunks))
            ]
            return run_supervised(supervisor, wrapped, policy)
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
        failing attempts are retried and hanging attempts reassigned
        first; tasks must be idempotent (pure functions of their range).
        Under the process backend the task and its captured state must
        pickle -- ship arrays through :mod:`repro.runtime.shm` instead
        of capturing them.
        """
        ranges = self.assignment(batch_size)
        if self.backend_name == "process":
            backend = self._require_backend()
            thunks = [
                (lambda lo=lo, hi=hi: backend.call(task, lo, hi))
                for lo, hi in ranges
            ]
        else:
            thunks = [
                (lambda lo=lo, hi=hi: task(lo, hi)) for lo, hi in ranges
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
