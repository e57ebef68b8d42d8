"""Tests for the retry policy and the one retry loop."""

import dataclasses
import threading
import time

import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.resilience.policy import (
    RetryPolicy,
    active_policy,
    apply_policy,
    run_with_retries,
)
from repro.runtime.pool import WorkerPool


@pytest.fixture
def pool():
    with WorkerPool(num_workers=4) as pool:
        yield pool


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ReproError):
            RetryPolicy(max_redispatches=-1)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy(backoff_base=0.0).backoff(3) == 0.0

    def test_budgets_are_the_only_fields(self):
        # No deadline of its own: hangs are the process backend's.
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "max_retries", "backoff_base", "backoff_cap", "max_redispatches"]


class TestAmbientPolicy:
    def test_apply_installs_and_removes(self):
        assert active_policy() is None
        policy = RetryPolicy()
        with apply_policy(policy):
            assert active_policy() is policy
        assert active_policy() is None

    def test_innermost_wins(self):
        outer = RetryPolicy(max_retries=1)
        inner = RetryPolicy(max_retries=5)
        with apply_policy(outer), apply_policy(inner):
            assert active_policy() is inner


class TestRunWithRetries:
    def test_results_in_task_order(self, pool):
        thunks = [lambda i=i: i * 10 for i in range(5)]
        with apply_policy(RetryPolicy(max_retries=0)):
            assert pool.run_tasks(thunks) == [0, 10, 20, 30, 40]

    def test_failing_task_is_retried(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        with telemetry.collect() as tel:
            result = run_with_retries(
                flaky, RetryPolicy(max_retries=2, backoff_base=0.0)
            )
        assert result == "ok"
        assert len(attempts) == 3
        assert tel.counters["pool.retries"] == 2
        assert [e.attrs["attempt"] for e in tel.events
                if e.name == "pool.retry"] == [1, 2]

    def test_retry_budget_exhaustion_propagates_error(self):
        def doomed():
            raise ValueError("permanent")

        with telemetry.collect() as tel:
            with pytest.raises(ValueError, match="permanent"):
                run_with_retries(
                    doomed, RetryPolicy(max_retries=1, backoff_base=0.0)
                )
        assert tel.counters["pool.retries"] == 1
        assert tel.counters["pool.task_failures"] == 1

    def test_without_policy_the_first_error_propagates(self):
        attempts = []

        def doomed():
            attempts.append(1)
            raise ValueError("once")

        with telemetry.collect() as tel:
            with pytest.raises(ValueError, match="once"):
                run_with_retries(doomed, None)
        assert attempts == [1]
        assert "pool.retries" not in tel.counters
        assert "pool.task_failures" not in tel.counters

    def test_interrupt_is_never_retried(self):
        attempts = []

        def interrupted():
            attempts.append(1)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_with_retries(interrupted, RetryPolicy(max_retries=3,
                                                      backoff_base=0.0))
        assert attempts == [1]

    def test_backoff_sleeps_between_attempts(self):
        stamps = []

        def flaky():
            stamps.append(time.monotonic())
            if len(stamps) < 2:
                raise RuntimeError("transient")
            return "ok"

        policy = RetryPolicy(max_retries=1, backoff_base=0.05)
        assert run_with_retries(flaky, policy) == "ok"
        assert stamps[1] - stamps[0] >= 0.05

    def test_first_error_in_task_order_wins(self, pool):
        def make(index):
            def thunk():
                if index >= 1:
                    raise RuntimeError(f"task {index}")
                return index
            return thunk

        with apply_policy(RetryPolicy(max_retries=0)):
            with pytest.raises(RuntimeError, match="task 1"):
                pool.run_tasks([make(i) for i in range(4)])

    def test_siblings_finish_despite_one_failure(self, pool):
        finished = []
        lock = threading.Lock()

        def make(index):
            def thunk():
                if index == 0:
                    raise RuntimeError("early")
                time.sleep(0.05)
                with lock:
                    finished.append(index)
                return index
            return thunk

        with apply_policy(RetryPolicy(max_retries=0)):
            with pytest.raises(RuntimeError, match="early"):
                pool.run_tasks([make(i) for i in range(4)])
        assert sorted(finished) == [1, 2, 3]
