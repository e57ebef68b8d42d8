"""Worker supervision for the process backend: heartbeats and deadlines.

The process backend (:mod:`repro.runtime.backends`) reacts to worker
*death* lazily -- a crash is noticed when a dispatcher polls for a
stranded job.  That leaves two failure classes unhandled: a worker that
is alive but stuck (SIGSTOP, deadlocked C extension, runaway loop)
blocks its outstanding jobs forever, and nothing notices a crash while
no dispatcher happens to be polling.  This module adds the proactive
half of the fault model:

* :class:`HeartbeatBoard` -- one lock-free shared slot per worker
  (sequence counter, idle/busy state, monotonic stamp).  Workers stamp
  *busy* when they pick a task off their queue and *idle* when the
  result is posted, so the parent can read "how long has this worker
  been silent while holding work" without any message traffic.
  ``time.monotonic`` is ``CLOCK_MONOTONIC`` on Linux and therefore
  comparable across processes.
* :class:`WorkerSupervisor` -- a daemon thread in the parent that
  periodically runs the backend's sweep: dead workers are reaped and
  respawned with their in-flight jobs re-dispatched, and workers whose
  oldest obligation is older than the *task deadline* are escalated
  ``SIGTERM`` -> bounded join -> ``SIGKILL`` (SIGTERM is never delivered
  to a SIGSTOP'd process; SIGKILL is) and then handled as dead.
* :func:`measured_deadline` -- the hang deadline rule: a safety
  multiple of the longest task *of the same kind* (the same shipped
  function) the backend has seen complete, never below
  :data:`DEADLINE_FLOOR`; a kind with no completion yet is not judged,
  so a microsecond readiness probe never sets the deadline of a
  multi-second training shard.  Workers time ``fn(*args)`` themselves,
  so interpreter boot and queue wait stay out of the reading, as they
  stay out of the hang rule below (time since pickup).

A worker is only ever declared hung while it *owes* results: the rule is
``now - max(last_heartbeat, oldest outstanding dispatch) > deadline``.
An idle worker blocks silently in ``queue.get()`` without stamping, so
staleness alone is never evidence of a hang; conversely a worker that
was SIGSTOP'd while idle is still caught the moment work is dispatched
to it, via the dispatch timestamp.  A worker that has not stamped since
it was spawned is still booting; work it owes is judged against
:func:`measured_deadline` of the longest boot the backend has seen
instead, from spawn or dispatch, whichever is later.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from repro import telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.backends import ProcessBackend

#: Floor under every measured task deadline, in seconds.  CI hosts are
#: oversubscribed and a single slow task must not read as a hang.
DEADLINE_FLOOR = 5.0

#: Multiple of the longest completed task.  The reading comes from this
#: host's own workers, so the multiple absorbs only noise (a preempted
#: step, a cold cache), not a model's error on another machine; a false
#: "hung" verdict still kills a healthy worker mid-task, hence 20x.
DEADLINE_SAFETY = 20.0

#: Supervisor sweep cadence, in seconds.
POLL_INTERVAL = 0.1

#: Doubles per heartbeat slot: (sequence, state, stamp).
_SLOT_WIDTH = 3

#: Heartbeat ``state`` values.
STATE_IDLE = 0.0
STATE_BUSY = 1.0


def measured_deadline(longest_task: float) -> float:
    """Hang deadline of a task kind whose longest completed task took
    ``longest_task`` seconds."""
    return max(DEADLINE_FLOOR, DEADLINE_SAFETY * longest_task)


class HeartbeatBoard:
    """Fixed-size shared heartbeat slots, one per worker position.

    Backed by a lock-free ``multiprocessing`` double array created with
    the spawn context so it can be shipped to workers as a ``Process``
    argument.  Writes are a sequence bump plus state/stamp store;
    readers tolerate torn reads (a stamp is only ever compared against
    a multi-second deadline).
    """

    def __init__(self, slots: int, ctx: Any) -> None:
        if slots <= 0:
            raise ValueError(f"heartbeat board needs >= 1 slot, got {slots}")
        self.slots = slots
        self._array = ctx.Array("d", slots * _SLOT_WIDTH, lock=False)

    @property
    def shared(self) -> Any:
        """The raw shared array, passed to worker processes."""
        return self._array

    @staticmethod
    def stamp(array: Any, slot: int, state: float) -> None:
        """Record ``state`` at ``now`` in ``slot`` (worker side)."""
        base = slot * _SLOT_WIDTH
        array[base] += 1.0
        array[base + 1] = state
        array[base + 2] = time.monotonic()

    def read(self, slot: int) -> tuple[int, float, float]:
        """``(sequence, state, stamp)`` for ``slot`` (parent side)."""
        base = slot * _SLOT_WIDTH
        return (int(self._array[base]), float(self._array[base + 1]),
                float(self._array[base + 2]))

    def age(self, slot: int) -> float:
        """Seconds since ``slot`` last stamped (inf if it never did)."""
        _, _, stamp = self.read(slot)
        if stamp == 0.0:
            return float("inf")
        return max(0.0, time.monotonic() - stamp)


class WorkerSupervisor:
    """Parent-side daemon thread driving the backend's supervision sweep.

    The sweep itself lives on the backend (it owns the worker table and
    job registry); this thread provides the cadence, keeps one failure
    from ending supervision, and publishes the supervisor gauges.  The
    backend's dispatchers also run the same sweep opportunistically from
    their poll loops, so supervision degrades gracefully if this thread
    is ever lost.
    """

    def __init__(self, backend: "ProcessBackend",
                 poll_interval: float = POLL_INTERVAL) -> None:
        self._backend = backend
        self._poll = poll_interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None

    @property
    def alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self._poll):
            try:
                self._backend.sweep_workers()
                self._publish_gauges()
            except Exception as exc:  # pragma: no cover - defensive
                telemetry.event("supervisor.error", error=repr(exc))

    def _publish_gauges(self) -> None:
        state = self._backend.supervisor_state()
        ages = [
            float(w["heartbeat_age"]) for w in state["workers"]
            if w["outstanding"] and w["heartbeat_age"] != float("inf")
        ]
        telemetry.gauge("supervisor.heartbeat_age", max(ages, default=0.0))
        telemetry.gauge("supervisor.workers_alive",
                        float(sum(1 for w in state["workers"] if w["alive"])))
        for w in state["workers"]:
            age = float(w["heartbeat_age"])
            if age == float("inf"):
                # Idle-from-birth worker: no stamp yet, nothing to chart.
                continue
            telemetry.gauge(f"supervisor.w{w['slot']}.heartbeat_age", age)
