"""Tests for the pluggable execution backends (repro.runtime.backends).

The process-backend tasks used here are module-level functions: anything
shipped to a spawned worker is pickled by reference and must be
importable by the fresh interpreter, which inherits this one's
``sys.path``.
"""

import functools
import math
import operator
import os
import threading

import numpy as np
import pytest

from repro.errors import ReproError
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault, inject
from repro.runtime.backends import (
    _ATTACH_CACHE,
    BACKEND_NAMES,
    ProcessBackend,
    WorkerCrashedError,
    _cached_attach,
    make_backend,
    validate_backend,
    worker_diagnostics,
)
from repro.runtime.pool import WorkerPool
from repro.runtime.shm import SharedArray, ShmArena, owned_segments


def _pool_slice_square_sum(descriptor, lo: int, hi: int) -> float:
    """Sum of squares of rows ``[lo, hi)`` of a shared-memory matrix.

    Ships the data by descriptor, so the identical task runs on every
    backend, the process one included.
    """
    seg = SharedArray.attach(descriptor)
    try:
        return float(np.square(seg.ndarray[lo:hi]).sum())
    finally:
        seg.close()


@pytest.fixture(scope="module")
def process_pool():
    """One spawned two-worker pool shared across this module's tests."""
    pool = WorkerPool(2, backend="process")
    yield pool
    pool.shutdown()


class TestSelection:
    def test_names(self):
        assert BACKEND_NAMES == ("serial", "thread", "process")

    def test_validate_accepts_known(self):
        for name in BACKEND_NAMES:
            assert validate_backend(name) == name

    def test_validate_rejects_unknown(self):
        with pytest.raises(ReproError, match="unknown execution backend"):
            validate_backend("fork")

    def test_make_backend_dispatch(self):
        assert make_backend("serial", 2).name == "serial"
        assert make_backend("thread", 2).name == "thread"
        assert make_backend("process", 2).name == "process"

    def test_pool_rejects_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown execution backend"):
            WorkerPool(2, backend="greenlet")


class TestSerialAndThread:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_map_items(self, backend):
        with WorkerPool(3, backend=backend) as pool:
            assert pool.map_items(math.factorial, 6) == [
                math.factorial(i) for i in range(6)
            ]

    def test_serial_runs_inline_in_range_order(self):
        pool = WorkerPool(4, backend="serial")
        seen = []
        pool.run_tasks([
            (lambda i=i: seen.append(i)) for i in range(5)
        ])
        assert seen == list(range(5))


class TestProcessExecution:
    def test_map_items_round_trips(self, process_pool):
        assert process_pool.map_items(math.factorial, 6) == [
            math.factorial(i) for i in range(6)
        ]

    def test_tasks_run_in_other_processes(self, process_pool):
        backend = process_pool._require_backend()
        diag = backend.call(worker_diagnostics)
        assert diag["pid"] != os.getpid()

    def test_workers_persist_across_calls(self, process_pool):
        process_pool.map_items(math.factorial, 4)
        backend = process_pool._require_backend()
        first = set(backend.worker_pids())
        process_pool.map_items(math.factorial, 4)
        assert set(backend.worker_pids()) == first

    def test_worker_exception_propagates(self, process_pool):
        with pytest.raises(ZeroDivisionError):
            process_pool.map_items(functools.partial(operator.floordiv, 1), 4)

    def test_unpicklable_task_is_a_clear_error(self, process_pool):
        with pytest.raises(ReproError, match="must pickle"):
            process_pool.map_batches(lambda lo, hi: None, 4)

    @pytest.mark.parametrize("ship", ["call", "broadcast"])
    def test_call_and_broadcast_refuse_a_lambda_alike(self, process_pool,
                                                      ship):
        backend = process_pool._require_backend()
        with pytest.raises(ReproError, match="cannot be shipped.*must pickle"):
            getattr(backend, ship)(lambda: None)

    def test_shared_memory_round_trip(self, process_pool):
        data = np.arange(12, dtype=np.float32).reshape(6, 2)
        with SharedArray.from_array(data) as seg:
            task = functools.partial(_pool_slice_square_sum, seg.descriptor)
            partials = process_pool.map_batches(task, seg.shape[0])
        assert sum(partials) == pytest.approx(float(np.square(data).sum()))

    def test_crashed_worker_fails_job_and_respawns(self, process_pool):
        with pytest.raises(WorkerCrashedError):
            process_pool.map_items(os._exit, 1)
        # The backend respawned the dead worker; the pool still works.
        assert process_pool.map_items(math.factorial, 4) == [1, 1, 2, 6]


class TestAttachCacheInvalidation:
    """A reallocated arena role must close the worker's stale mapping.

    Exercised parent-side: ``_cached_attach`` is the same function the
    spawned workers run, and the cache is a module global either way.
    """

    def test_reallocated_role_closes_stale_mapping(self):
        with ShmArena() as arena:
            first = arena.ensure("x", (2, 2), np.float32)
            first.ndarray[...] = 1.0
            key = first.descriptor.role
            assert key is not None
            try:
                arr = _cached_attach(first.descriptor)
                np.testing.assert_array_equal(
                    arr, np.full((2, 2), 1.0, np.float32)
                )
                stale = _ATTACH_CACHE[key]
                second = arena.ensure("x", (4, 3), np.float32)
                second.ndarray[...] = 2.0
                arr = _cached_attach(second.descriptor)
                assert arr.shape == (4, 3)
                # Same key, fresh mapping; the old one is closed, not
                # pinned until the name ages out of the LRU.
                assert _ATTACH_CACHE[key] is not stale
                with pytest.raises(ReproError, match="closed"):
                    _ = stale.ndarray
            finally:
                cached = _ATTACH_CACHE.pop(key, None)
                if cached is not None:
                    cached.close()

    def test_same_role_same_name_reuses_mapping(self):
        with ShmArena() as arena:
            seg = arena.ensure("y", (3,), np.float32)
            key = seg.descriptor.role
            try:
                first = _cached_attach(seg.descriptor)
                assert _cached_attach(seg.descriptor) is first
            finally:
                cached = _ATTACH_CACHE.pop(key, None)
                if cached is not None:
                    cached.close()


class TestProcessLifecycle:
    def test_concurrent_first_calls_start_one_worker_set(self):
        # call() is documented thread-safe and starts lazily: racing
        # first calls must not each spawn a worker set or replace the
        # result queue mid-flight.
        backend = ProcessBackend(2)
        results: list = [None] * 4
        errors: list = []

        def work(i: int) -> None:
            try:
                results[i] = backend.call(math.factorial, 5)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert results == [math.factorial(5)] * 4
            assert len(backend._workers) == 2
            assert len(backend.worker_pids()) == 2
        finally:
            backend.shutdown()

    def test_backend_restarts_after_shutdown(self):
        pool = WorkerPool(1, backend="process")
        assert pool.map_items(math.factorial, 3) == [1, 1, 2]
        pool.shutdown()
        assert pool.map_items(math.factorial, 3) == [1, 1, 2]
        pool.shutdown()

    def test_shutdown_is_idempotent(self):
        backend = ProcessBackend(1)
        backend.start()
        backend.shutdown()
        backend.shutdown()

    def test_call_after_shutdown_raises(self):
        pool = WorkerPool(1, backend="process")
        pool.map_items(math.factorial, 2)
        backend = pool._backend
        pool.shutdown()
        assert backend is not None
        with pytest.raises(ReproError, match="shut down"):
            backend.call(math.factorial, 3)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ReproError, match="positive"):
            ProcessBackend(0)


class TestShmSafetyUnderFaults:
    """Segments are unlinked even when tasks raise or chaos fires."""

    def test_segments_unlinked_when_worker_task_raises(self, process_pool):
        before = set(owned_segments())
        seg = SharedArray.create((4, 2), np.float32)
        try:
            with pytest.raises(ZeroDivisionError):
                process_pool.map_items(
                    functools.partial(operator.floordiv, 1), 4
                )
        finally:
            seg.unlink()
        assert set(owned_segments()) == before

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_segments_unlinked_when_chaos_fault_fires(self, backend):
        before = set(owned_segments())
        plan = FaultPlan(
            name="test-pool-raise",
            specs=(FaultSpec(site="pool.task", kind="raise", at=(1,)),),
        )
        data = np.ones((6, 2), dtype=np.float32)
        pool = WorkerPool(2, backend=backend)
        try:
            with SharedArray.from_array(data) as seg:
                task = functools.partial(
                    _pool_slice_square_sum, seg.descriptor
                )
                with inject(plan):
                    with pytest.raises(InjectedFault):
                        pool.map_batches(task, seg.shape[0])
        finally:
            pool.shutdown()
        assert set(owned_segments()) == before
