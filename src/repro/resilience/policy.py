"""The retry policy: how often, and how patiently, a raising task re-runs.

:class:`RetryPolicy` bounds the retries of a task whose attempt raises;
:func:`run_with_retries` is the one loop that spends that budget, and
the worker pool runs every task through it, so tasks must be idempotent
(the pool's image-range tasks are pure functions of their slice).  A
hang is not the policy's business: the process backend judges it by its
measured deadline (:func:`repro.runtime.backends.measured_deadline`).
Counters: ``pool.retries`` (failed attempts re-executed) and
``pool.task_failures`` (tasks that exhausted their budget).

A policy arrives ambiently, for a region of code, with
:func:`apply_policy` (mirroring ``telemetry.collect``): that is how the
chaos harness arms every pool a training job creates.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro import telemetry
from repro.errors import ReproError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how the runtime re-runs failing tasks."""

    #: Re-executions allowed after a task's first failed attempt.
    max_retries: int = 2
    #: First backoff sleep in seconds; attempt ``n`` sleeps
    #: ``backoff_base * 2**(n-1)``, capped at :attr:`backoff_cap`.
    backoff_base: float = 0.01
    backoff_cap: float = 0.5
    #: Process-backend crash budget: how many times one in-flight job
    #: may be re-dispatched to a surviving worker after its worker died,
    #: before it fails with WorkerCrashedError.  The pool mirrors this
    #: onto :attr:`repro.runtime.backends.ProcessBackend.max_redispatch`
    #: so the policy is the single fault-budget knob.
    max_redispatches: int = 2

    def __post_init__(self) -> None:
        for name in ("max_retries", "backoff_base", "backoff_cap",
                     "max_redispatches"):
            if getattr(self, name) < 0:
                raise ReproError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )

    def backoff(self, retry_number: int) -> float:
        """Sleep before the ``retry_number``-th retry (1-based)."""
        return min(self.backoff_base * 2 ** (retry_number - 1),
                   self.backoff_cap)


# -- the ambient policy stack ----------------------------------------------

_ACTIVE: list[RetryPolicy] = []
_ACTIVE_LOCK = threading.Lock()


def active_policy() -> RetryPolicy | None:
    """The innermost ambient policy, or None when none is installed."""
    with _ACTIVE_LOCK:
        return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def apply_policy(policy: RetryPolicy) -> Iterator[RetryPolicy]:
    """Install an ambient policy for the duration of the ``with`` block.

    Every :class:`~repro.runtime.pool.WorkerPool` picks it up when it
    runs its tasks.
    """
    with _ACTIVE_LOCK:
        _ACTIVE.append(policy)
    try:
        yield policy
    finally:
        with _ACTIVE_LOCK:
            for i in range(len(_ACTIVE) - 1, -1, -1):
                if _ACTIVE[i] is policy:
                    del _ACTIVE[i]
                    break


def run_with_retries(thunk: Callable[[], T], policy: RetryPolicy | None,
                     task: int = 0) -> T:
    """Run the idempotent ``thunk``, retrying a raising attempt.

    Without a policy the first error propagates.  Under one, an attempt
    that raises is re-run after :meth:`RetryPolicy.backoff` seconds, up
    to ``policy.max_retries`` times; the last attempt's error then
    propagates.  ``task`` names the task in the ``pool.retry`` event.
    """
    if policy is None:
        return thunk()
    retries = 0
    while True:
        try:
            return thunk()
        except Exception as error:
            if retries >= policy.max_retries:
                telemetry.add("pool.task_failures", 1)
                raise
            retries += 1
            telemetry.add("pool.retries", 1)
            telemetry.event("pool.retry", task=task, attempt=retries,
                            error=type(error).__name__)
            time.sleep(policy.backoff(retries))
