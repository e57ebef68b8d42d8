"""Acceptance tests for the real-kill chaos plans (kill9 / hang).

These strike live worker processes with real SIGKILL / SIGSTOP while a
training run is in flight, so they are the slowest tests in the suite --
one leg per plan, sized to finish quickly while still crossing an epoch
boundary (the mid-step strike lands at the top of epoch 2).  The full
plan x scheduler matrix runs in CI's chaos job, not here.
"""

import pytest

from repro.errors import ReproError
from repro.resilience import faults
from repro.resilience.chaos import (
    REAL_KILL_PLANS,
    default_policy,
    run_chaos,
)
from repro.runtime import shm


class TestRealKillPlans:
    def test_kill9_dag_redispatches_and_stays_bit_identical(self):
        # The ISSUE acceptance scenario: SIGKILL a worker mid-epoch with
        # the process backend under the dag scheduler.  Training must
        # complete, the weights must be bit-identical to an unfaulted
        # serial run, no /dev/shm segment may leak, and a SIGKILL'd
        # journaling child must resume to the same weights.
        report = run_chaos(plan_name="kill9", seed=0, epochs=2,
                           samples=24, threads=2, scheduler="dag",
                           check_resume=True)
        assert report.survived, report.error
        assert report.improved
        assert report.bit_identical is True
        assert report.leaked_segments == []
        assert report.counters.get("pool.worker_crashes", 0) >= 1
        assert len(report.injections) == 2  # between-steps + mid-step
        assert report.resume_checked and report.resume_identical
        assert report.ok
        assert shm.owned_segments() == ()

    def test_hang_barrier_escalates_and_stays_bit_identical(self):
        # SIGSTOP leaves the worker alive but silent; only the hang
        # deadline (pinned short by the plan) gets the job unstuck.
        report = run_chaos(plan_name="hang", seed=0, epochs=2,
                           samples=24, threads=2, scheduler="barrier")
        assert report.survived, report.error
        assert report.bit_identical is True
        assert report.leaked_segments == []
        assert report.counters.get("supervisor.hung_workers", 0) >= 1
        assert report.counters.get("supervisor.respawns", 0) >= 1
        assert report.ok
        assert shm.owned_segments() == ()


class TestPlanRegistry:
    def test_real_kill_names_are_reserved(self):
        assert set(REAL_KILL_PLANS) == {"kill9", "hang"}

    @pytest.mark.parametrize("name", sorted(REAL_KILL_PLANS))
    def test_get_plan_refuses_real_kill_names(self, name):
        # kill9/hang are driven by the chaos harness itself (real
        # signals, not injected exceptions); the injector must refuse
        # them rather than silently running a no-op plan.
        with pytest.raises(ReproError, match="real process signals"):
            faults.get_plan(name, seed=0)


class TestChaosPolicy:
    def test_one_policy_with_crash_budgets_and_no_deadline(self):
        # Hang recovery belongs to the process backend's hang deadline;
        # the policy only budgets retries and redispatches, for every
        # plan alike.
        policy = default_policy()
        assert not hasattr(policy, "timeout")
        assert policy.max_redispatches >= 1
        assert policy.max_retries >= 1
