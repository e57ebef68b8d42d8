"""Tests for the worker pool."""

import gc
import threading
import time

import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.policy import RetryPolicy, apply_policy
from repro.runtime.pool import WorkerPool, default_worker_count


class TestAssignment:
    def test_ranges_cover_batch(self):
        pool = WorkerPool(num_workers=4)
        ranges = pool.assignment(10)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        assert sum(hi - lo for lo, hi in ranges) == 10

    def test_small_batches_drop_empty_ranges(self):
        pool = WorkerPool(num_workers=8)
        ranges = pool.assignment(3)
        assert len(ranges) == 3
        assert all(hi > lo for lo, hi in ranges)

    def test_rejects_bad_batch(self):
        with pytest.raises(ReproError):
            WorkerPool(num_workers=2).assignment(0)


class TestExecution:
    def test_map_batches_returns_in_order(self):
        with WorkerPool(num_workers=4) as pool:
            results = pool.map_batches(lambda lo, hi: (lo, hi), 12)
        assert results == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_map_items_covers_all_indices(self):
        with WorkerPool(num_workers=3) as pool:
            results = pool.map_items(lambda i: i * i, 10)
        assert results == [i * i for i in range(10)]

    def test_tasks_actually_run_on_multiple_threads(self):
        seen = set()
        lock = threading.Lock()
        barrier = threading.Barrier(2, timeout=5)

        def task(lo, hi):
            barrier.wait()  # forces two tasks to overlap in time
            with lock:
                seen.add(threading.get_ident())

        with WorkerPool(num_workers=2) as pool:
            pool.map_batches(task, 2)
        assert len(seen) == 2

    def test_exceptions_propagate(self):
        def boom(lo, hi):
            raise RuntimeError("kernel failure")

        with WorkerPool(num_workers=2) as pool:
            with pytest.raises(RuntimeError, match="kernel failure"):
                pool.map_batches(boom, 4)

    def test_mid_batch_failure_waits_for_all_siblings(self):
        # Regression: a task failing early must not propagate while sibling
        # tasks are still running -- all submitted tasks finish first.
        finished = []
        lock = threading.Lock()
        release = threading.Event()

        def task(lo, hi):
            if lo == 0:
                raise RuntimeError("early failure")
            release.wait(timeout=5)  # siblings outlive the failing task
            with lock:
                finished.append((lo, hi))

        with WorkerPool(num_workers=4) as pool:
            import threading as _t

            timer = _t.Timer(0.05, release.set)
            timer.start()
            with pytest.raises(RuntimeError, match="early failure"):
                pool.map_batches(task, 12)
            timer.cancel()
        # By the time the exception reached us, every sibling had finished.
        assert sorted(finished) == [(3, 6), (6, 9), (9, 12)]

    def test_first_error_in_range_order_wins(self):
        def task(lo, hi):
            if lo >= 6:
                raise ValueError(f"late {lo}")
            if lo >= 3:
                raise RuntimeError(f"early {lo}")
            return lo

        with WorkerPool(num_workers=4) as pool:
            with pytest.raises(RuntimeError, match="early 3"):
                pool.map_batches(task, 12)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_the_caller_runs_thunk_zero(self, backend):
        caller = threading.get_ident()
        seen = {}

        def thunk(index):
            seen[index] = threading.get_ident()
            return index

        with WorkerPool(num_workers=3, backend=backend) as pool:
            assert pool.run_tasks([lambda i=i: thunk(i)
                                   for i in range(3)]) == [0, 1, 2]
        assert seen[0] == caller
        assert caller not in (seen[1], seen[2])

    def test_one_process_worker_spawns_nothing(self):
        pool = WorkerPool(num_workers=1, backend="process")
        assert pool.map_items(_square, 3) == [0, 1, 4]
        assert pool.backend is None
        pool.shutdown()

    def test_single_worker_runs_inline(self):
        pool = WorkerPool(num_workers=1)
        assert pool.map_batches(lambda lo, hi: hi - lo, 5) == [5]
        pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(num_workers=2)
        pool.map_items(lambda i: i, 2)
        pool.shutdown()
        pool.shutdown()


class TestLifecycle:
    def test_pool_restarts_after_shutdown(self):
        # Regression: shutdown() used to leave the pool unusable -- the
        # executor must be lazily re-created on the next map call.
        pool = WorkerPool(num_workers=2)
        assert pool.map_batches(lambda lo, hi: hi - lo, 4) == [2, 2]
        pool.shutdown()
        assert pool.map_batches(lambda lo, hi: hi - lo, 4) == [2, 2]
        pool.shutdown()

    def test_abandoned_pool_reaps_its_threads(self):
        # Regression: a pool that was never shut down leaked its worker
        # threads for the life of the process.  The finalizer must stop
        # them when the pool is garbage-collected.
        before = threading.active_count()
        pool = WorkerPool(num_workers=2)
        pool.map_items(lambda i: i, 4)
        assert threading.active_count() > before
        del pool
        gc.collect()
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before:
            if time.monotonic() > deadline:
                pytest.fail("worker threads survived pool collection")
            time.sleep(0.01)

    def test_shutdown_detaches_finalizer(self):
        pool = WorkerPool(num_workers=2)
        pool.map_items(lambda i: i, 2)
        assert pool._finalizer is not None and pool._finalizer.alive
        pool.shutdown()
        assert pool._finalizer is None


class TestQueueOccupancyGauge:
    def test_gauge_drains_to_zero_after_collection(self):
        with telemetry.collect() as tel:
            with WorkerPool(num_workers=2) as pool:
                pool.run_tasks([lambda: 1, lambda: 2])
        series = [v for _, v in tel.gauge_series["pool.queue_occupancy"]]
        assert series == [2, 0]
        assert tel.gauges["pool.queue_occupancy"] == 0

    def test_gauge_drains_even_when_a_task_fails(self):
        def boom():
            raise RuntimeError("task died")

        with telemetry.collect() as tel:
            with WorkerPool(num_workers=2) as pool:
                with pytest.raises(RuntimeError):
                    pool.run_tasks([boom, lambda: 1])
        # The batch is over either way -- a stuck nonzero value would
        # read as a phantom backlog on the trace's counter track.
        assert tel.gauges["pool.queue_occupancy"] == 0


class TestReuseAfterShutdown:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_named_backend_pool_reusable(self, backend):
        pool = WorkerPool(num_workers=2, backend=backend)
        assert pool.run_tasks([lambda: 1, lambda: 2]) == [1, 2]
        pool.shutdown()
        assert pool.run_tasks([lambda: 3, lambda: 4]) == [3, 4]
        pool.shutdown()

    def test_process_backend_respawns_after_shutdown(self):
        pool = WorkerPool(num_workers=2, backend="process")
        backend = pool._require_backend()
        assert backend.call(len, [1, 2, 3]) == 3
        pool.shutdown()
        # The backend instance is kept -- shutdown() must not orphan it
        # to a dead None slot -- and the next dispatch respawns workers.
        assert pool._backend is backend
        assert pool._require_backend() is backend
        assert backend.call(len, [1, 2, 3, 4]) == 4
        pool.shutdown()


def _square(i: int) -> int:
    """A picklable item task."""
    return i * i


def _range(lo: int, hi: int) -> tuple[int, int]:
    """A picklable range task: the process backend ships it by name."""
    return lo, hi


class TestSupervisedExecution:
    def test_injected_crash_is_retried(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="pool.task", kind="raise", at=(2,)),
        ))
        policy = RetryPolicy(max_retries=2, backoff_base=0.0)
        with WorkerPool(num_workers=2) as pool:
            with telemetry.collect() as tel, inject(plan), \
                    apply_policy(policy):
                results = pool.map_batches(lambda lo, hi: (lo, hi), 8)
        assert results == [(0, 4), (4, 8)]
        assert tel.counters["pool.retries"] == 1
        assert tel.counters["faults.raise"] == 1

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_injected_raise_is_retried_on_the_same_range(self, backend):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="pool.task", kind="raise", at=(1,)),
        ))
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with WorkerPool(num_workers=2, backend=backend) as pool:
            with telemetry.collect() as tel, inject(plan) as injector, \
                    apply_policy(policy):
                results = pool.map_batches(_range, 8)
        assert results == [(0, 4), (4, 8)]
        (fired,) = injector.fired()
        faulted = (fired.attrs["lo"], fired.attrs["hi"])
        attempts = sorted((s.attrs["lo"], s.attrs["hi"]) for s in tel.spans
                          if s.name == "pool/task")
        assert attempts == sorted([(0, 4), (4, 8), faulted])
        (retry,) = [e for e in tel.events if e.name == "pool.retry"]
        assert retry.attrs["task"] == fired.attrs["worker"]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_fault_on_the_callers_thunk_is_retried(self, backend,
                                                     monkeypatch):
        # The plan faults the site's invocations 1 and 2; the test orders
        # the visits so that those are both thunks' first attempts: the
        # helper's first visit waits for the caller's first, and the
        # caller's retry waits for the helper's first.
        plan = FaultPlan("t", specs=(
            FaultSpec(site="pool.task", kind="raise", at=(1, 2)),
        ))
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        perturb = faults.perturb
        visited = {0: threading.Event(), 1: threading.Event()}

        def sequenced(site, **attrs):
            if site != "pool.task":
                return perturb(site, **attrs)
            worker = attrs["worker"]
            if worker == 1 and not visited[1].is_set():
                visited[0].wait(timeout=30)
            elif worker == 0 and visited[0].is_set():
                visited[1].wait(timeout=30)
            try:
                perturb(site, **attrs)
            finally:
                visited[worker].set()

        monkeypatch.setattr(faults, "perturb", sequenced)
        with WorkerPool(num_workers=2, backend=backend) as pool:
            with telemetry.collect() as tel, inject(plan), \
                    apply_policy(policy):
                results = pool.map_batches(_range, 8)
        assert results == [(0, 4), (4, 8)]
        retried = sorted(e.attrs["task"] for e in tel.events
                         if e.name == "pool.retry")
        assert retried == [0, 1]
        caller = [s for s in tel.spans
                  if s.name == "pool/task" and s.attrs["worker"] == 0]
        assert len(caller) == 2
        assert {s.thread_id for s in caller} == {threading.get_ident()}

    def test_slow_task_runs_once_under_the_chaos_policy(self):
        # No deadline of the policy's own: a slow attempt is waited for,
        # never duplicated.
        from repro.resilience.chaos import default_policy

        attempts = []
        lock = threading.Lock()

        def slow(lo, hi):
            with lock:
                attempts.append((lo, hi))
            time.sleep(0.4)
            return hi - lo

        with WorkerPool(num_workers=2, backend="thread") as pool:
            with telemetry.collect() as tel, apply_policy(default_policy()):
                results = pool.map_batches(slow, 8)
        assert results == [4, 4]
        assert len(attempts) == tel.counters["pool.tasks"] == 2
        assert sorted(attempts) == [(0, 4), (4, 8)]

    def test_ambient_policy_picked_up(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="pool.task", kind="raise", at=(1,)),
        ))
        pool = WorkerPool(num_workers=2)
        with telemetry.collect() as tel, inject(plan):
            with apply_policy(RetryPolicy(max_retries=1, backoff_base=0.0)):
                results = pool.map_batches(lambda lo, hi: hi - lo, 8)
        pool.shutdown()
        assert results == [4, 4]
        assert tel.counters["pool.retries"] == 1

    def test_without_policy_injected_crash_propagates(self):
        from repro.errors import InjectedFault

        plan = FaultPlan("t", specs=(
            FaultSpec(site="pool.task", kind="raise", at=(1,)),
        ))
        with WorkerPool(num_workers=2) as pool:
            with inject(plan), pytest.raises(InjectedFault):
                pool.map_batches(lambda lo, hi: hi - lo, 8)

    def test_result_corruption_site(self):
        import numpy as np

        plan = FaultPlan("t", specs=(
            FaultSpec(site="pool.result", kind="corrupt", at=(1, 2),
                      fraction=1.0),
        ))
        with WorkerPool(num_workers=2) as pool:
            with inject(plan):
                results = pool.map_batches(
                    lambda lo, hi: np.ones(hi - lo, dtype=np.float32), 8
                )
        assert all(np.isnan(chunk).all() for chunk in results)


class TestConstruction:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ReproError):
            WorkerPool(num_workers=0)
