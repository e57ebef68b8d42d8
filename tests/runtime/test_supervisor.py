"""Tests for worker supervision (repro.runtime.supervisor + backends).

Covers the heartbeat board, the hang deadline measured from task times,
hung/dead worker escalation and redispatch, shutdown under a SIGSTOP'd
worker, collector-death detection, and the shm crash manifest/janitor.

Real signals against real worker processes run here, so deadlines and
grace periods are shrunk to keep the suite fast; every timing assertion
leaves generous slack for a loaded single-core host.
"""

import math
import multiprocessing
import operator
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.resilience.policy import RetryPolicy, apply_policy
from repro.runtime import shm, supervisor
from repro.runtime.backends import (ProcessBackend, WorkerCrashedError,
                                    worker_ready)
from repro.runtime.pool import WorkerPool
from repro.runtime.supervisor import (
    DEADLINE_FLOOR,
    DEADLINE_SAFETY,
    STATE_BUSY,
    STATE_IDLE,
    HeartbeatBoard,
    measured_deadline,
)


@pytest.fixture()
def manifest_dir(tmp_path, monkeypatch):
    """Isolate the on-disk manifest so concurrent suites never collide."""
    directory = tmp_path / "manifest"
    monkeypatch.setenv(shm.MANIFEST_ENV, str(directory))
    return directory


def _deadlines(backend):
    return backend.supervisor_state()["task_deadlines"]


class TestMeasuredDeadline:
    def test_no_deadline_before_a_task_completes(self, manifest_dir):
        backend = ProcessBackend(1)
        try:
            backend.start()
            assert backend.longest_tasks == {}
            assert backend.supervisor_state()["task_deadline"] is None
        finally:
            backend.shutdown()

    def test_floor_applies_to_fast_tasks(self):
        assert measured_deadline(0.0001) == DEADLINE_FLOOR
        assert measured_deadline(0.0) == DEADLINE_FLOOR

    def test_safety_multiple_scales_slow_tasks(self):
        assert measured_deadline(1.0) == DEADLINE_SAFETY * 1.0

    def test_short_tasks_earn_the_floor(self, manifest_dir):
        backend = ProcessBackend(1)
        try:
            assert backend.call(math.factorial, 5) == 120
            longest = backend.longest_tasks["math.factorial"]
            assert 0.0 <= longest < DEADLINE_FLOOR / DEADLINE_SAFETY
            assert _deadlines(backend) == {"math.factorial": DEADLINE_FLOOR}
            assert backend.supervisor_state()["task_deadline"] == DEADLINE_FLOOR
        finally:
            backend.shutdown()

    def test_long_task_sets_the_multiple_and_only_rises(
            self, manifest_dir, monkeypatch):
        monkeypatch.setattr(supervisor, "DEADLINE_FLOOR", 0.01)
        backend = ProcessBackend(1)
        try:
            backend.call(time.sleep, 0.2)
            longest = backend.longest_tasks["time.sleep"]
            assert longest >= 0.2
            assert _deadlines(backend) == {
                "time.sleep": DEADLINE_SAFETY * longest}
            backend.call(time.sleep, 0.0)
            assert backend.longest_tasks["time.sleep"] == longest
            assert _deadlines(backend) == {
                "time.sleep": DEADLINE_SAFETY * longest}
        finally:
            backend.shutdown()

    def test_each_kind_keeps_its_own_longest_task(self, manifest_dir):
        backend = ProcessBackend(1)
        try:
            backend.call(time.sleep, 0.2)
            backend.call(math.factorial, 5)
            assert backend.longest_tasks["time.sleep"] >= 0.2
            assert (backend.longest_tasks["math.factorial"]
                    < backend.longest_tasks["time.sleep"])
        finally:
            backend.shutdown()

    def test_a_fast_kind_never_judges_a_slow_one(self, manifest_dir,
                                                 monkeypatch):
        # A microsecond task completes first (as the sharded step's
        # readiness probe does), then a healthy task of another kind
        # runs three times the floor: it has no completion of its own
        # kind yet, so it is not judged and its worker is not killed.
        monkeypatch.setattr(supervisor, "DEADLINE_FLOOR", 0.5)
        backend = ProcessBackend(1)
        backend.escalate_grace = 0.5
        try:
            assert backend.call(math.factorial, 5) == 120
            pid = backend.worker_pids()[0]
            assert backend.call(time.sleep, 1.5) is None
            assert backend.hung_workers == 0
            assert backend.respawns == 0
            assert backend.worker_pids() == (pid,)
            assert _deadlines(backend)["time.sleep"] >= DEADLINE_SAFETY * 1.5
        finally:
            backend.shutdown()

    def test_pinned_deadline_never_moves(self, manifest_dir):
        backend = ProcessBackend(1, task_deadline=2.0)
        try:
            backend.call(time.sleep, 0.2)
            assert backend.longest_tasks["time.sleep"] >= 0.2
            assert _deadlines(backend) == {"time.sleep": 2.0}
            assert backend.supervisor_state()["task_deadline"] == 2.0
            backend.set_task_deadline(None)
            backend.call(time.sleep, 0.3)
            assert _deadlines(backend) == {"time.sleep": None}
            assert backend.supervisor_state()["task_deadline"] is None
        finally:
            backend.shutdown()


class TestHeartbeatBoard:
    def test_unstamped_slot_has_infinite_age(self):
        board = HeartbeatBoard(2, multiprocessing.get_context("spawn"))
        assert board.age(0) == float("inf")
        assert board.read(1) == (0, STATE_IDLE, 0.0)

    def test_stamp_advances_seq_and_state(self):
        board = HeartbeatBoard(2, multiprocessing.get_context("spawn"))
        HeartbeatBoard.stamp(board.shared, 0, STATE_BUSY)
        seq, state, stamp = board.read(0)
        assert (seq, state) == (1, STATE_BUSY)
        assert stamp > 0.0
        HeartbeatBoard.stamp(board.shared, 0, STATE_IDLE)
        seq, state, _ = board.read(0)
        assert (seq, state) == (2, STATE_IDLE)

    def test_age_tracks_wall_clock(self):
        board = HeartbeatBoard(1, multiprocessing.get_context("spawn"))
        HeartbeatBoard.stamp(board.shared, 0, STATE_IDLE)
        age = board.age(0)
        assert 0.0 <= age < 5.0

    def test_slots_are_independent(self):
        board = HeartbeatBoard(3, multiprocessing.get_context("spawn"))
        HeartbeatBoard.stamp(board.shared, 1, STATE_BUSY)
        assert board.read(0)[0] == 0
        assert board.read(1)[0] == 1
        assert board.read(2)[0] == 0


class TestSupervisorLifecycle:
    def test_supervisor_runs_while_backend_lives(self, manifest_dir):
        backend = ProcessBackend(1)
        try:
            backend.start()
            state = backend.supervisor_state()
            assert state["supervisor_alive"]
            assert len(state["workers"]) == 1
            assert state["workers"][0]["alive"]
        finally:
            backend.shutdown()
        assert not backend.supervisor_state()["supervisor_alive"]

    def test_policy_mirrors_redispatch_budget(self, manifest_dir):
        pool = WorkerPool(1, backend="process")
        try:
            with apply_policy(RetryPolicy(max_redispatches=7)):
                pool.map_items(math.factorial, 2)
            assert pool.backend is not None
            assert pool.backend.max_redispatch == 7
        finally:
            pool.shutdown()


class TestHungWorkerEscalation:
    def test_sigstopped_worker_is_escalated_and_job_redispatched(
            self, manifest_dir):
        backend = ProcessBackend(2, task_deadline=1.0)
        backend.escalate_grace = 0.5
        try:
            backend.start()
            victim = backend.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            # The least-loaded dispatch targets the stopped worker (all
            # are idle; list order breaks the tie), the dispatch
            # timestamp starts the hang clock, and the supervisor must
            # escalate + redispatch without any help from this thread.
            assert backend.call(math.factorial, 5) == 120
            assert backend.hung_workers >= 1
            assert backend.respawns >= 1
            assert victim not in backend.worker_pids()
            assert len(backend.worker_pids()) == 2
        finally:
            backend.shutdown()

    def test_bare_pool_detects_a_hung_worker(self, manifest_dir,
                                             monkeypatch):
        # No executor fronts this pool: the deadline comes from the
        # first call's measured tasks alone.
        monkeypatch.setattr(supervisor, "DEADLINE_FLOOR", 1.0)
        pool = WorkerPool(2, backend="process")
        try:
            first = pool.map_batches(operator.sub, 8)
            backend = pool.backend
            assert _deadlines(backend) == {"_operator.sub": 1.0}
            backend.escalate_grace = 0.5
            os.kill(backend.worker_pids()[0], signal.SIGSTOP)
            second: list = []
            caller = threading.Thread(
                target=lambda: second.append(pool.map_batches(operator.sub, 8)),
                daemon=True)
            caller.start()
            caller.join(timeout=15.0)
            assert not caller.is_alive(), (
                f"still blocked: {backend.supervisor_state()}")
            assert second == [first]
            assert backend.hung_workers == 1
        finally:
            # The backend first: its shutdown kills the stopped worker
            # and fails the job a still-blocked caller waits on, so the
            # pool's dispatcher threads can be joined.
            if pool.backend is not None:
                pool.backend.shutdown()
            pool.shutdown()

    def test_idle_workers_are_never_flagged(self, manifest_dir):
        backend = ProcessBackend(1, task_deadline=0.2)
        try:
            backend.start()
            time.sleep(1.0)  # several supervisor sweeps with no work
            backend.sweep_workers()
            assert backend.hung_workers == 0
            assert backend.call(math.factorial, 3) == 6
        finally:
            backend.shutdown()


class TestBootingWorkers:
    """A worker that has not stamped since spawn holds no task yet."""

    @staticmethod
    def _start_with_first_worker_stopped(backend):
        backend.start()
        booting = backend.worker_pids()[0]
        os.kill(booting, signal.SIGSTOP)
        # Stopped before its first stamp: it is still booting.
        assert backend.supervisor_state()["workers"][0]["beats"] == 0
        return booting

    def test_a_booting_worker_is_not_judged_by_its_siblings_tasks(
            self, manifest_dir, monkeypatch):
        # The sibling answers the readiness probe in microseconds, which
        # earns the probe's kind the 1 ms floor.  The same probe queued
        # on the worker still booting waits on boot times instead.
        monkeypatch.setattr(supervisor, "DEADLINE_FLOOR", 0.001)
        backend = ProcessBackend(2)
        backend.escalate_grace = 0.5
        try:
            booting = self._start_with_first_worker_stopped(backend)
            answers: list = []
            caller = threading.Thread(
                target=lambda: answers.append(backend.broadcast(worker_ready)),
                daemon=True)
            caller.start()
            kind = "repro.runtime.backends.worker_ready"
            waited = time.monotonic()
            while (kind not in backend.longest_tasks
                   and time.monotonic() - waited < 30.0):
                time.sleep(0.05)
            assert _deadlines(backend) == {kind: 0.001}
            time.sleep(1.0)  # ten sweeps past the kind's deadline
            assert backend.hung_workers == 0
            os.kill(booting, signal.SIGCONT)
            caller.join(timeout=30.0)
            assert not caller.is_alive()
            assert sorted(answers[0]) == sorted(backend.worker_pids())
            assert booting in answers[0]
            assert (backend.hung_workers, backend.respawns) == (0, 0)
            assert backend.longest_boot > 0
        finally:
            backend.shutdown()

    def test_a_worker_stuck_booting_is_caught_by_its_siblings_boot(
            self, manifest_dir, monkeypatch):
        # No task kind judges a booting worker, but its sibling's boot
        # does: at twice the sibling's boot, the stuck one is killed and
        # its probe answered by a live worker.
        monkeypatch.setattr(supervisor, "DEADLINE_FLOOR", 0.001)
        monkeypatch.setattr(supervisor, "DEADLINE_SAFETY", 2.0)
        backend = ProcessBackend(2)
        backend.escalate_grace = 0.5
        try:
            stuck = self._start_with_first_worker_stopped(backend)
            answers: list = []
            caller = threading.Thread(
                target=lambda: answers.append(backend.broadcast(worker_ready)),
                daemon=True)
            caller.start()
            caller.join(timeout=30.0)
            assert not caller.is_alive(), (
                f"still blocked: {backend.supervisor_state()}")
            assert len(answers[0]) == 2 and stuck not in answers[0]
            assert backend.hung_workers == 1
            assert stuck not in backend.worker_pids()
            assert backend.longest_boot > 0
        finally:
            backend.shutdown()


class TestShutdownEscalation:
    def test_shutdown_escalates_sigstopped_worker(self, manifest_dir):
        # Satellite: a SIGSTOP'd worker never drains its sentinel, and
        # SIGTERM is not delivered to a stopped process -- shutdown must
        # escalate to SIGKILL instead of hanging on the join.
        backend = ProcessBackend(2)
        backend.shutdown_join = 0.5
        backend.escalate_grace = 0.5
        backend.start()
        pids = backend.worker_pids()
        os.kill(pids[0], signal.SIGSTOP)
        started = time.monotonic()
        backend.shutdown()
        assert time.monotonic() - started < 30.0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_dead_worker_redispatch_budget_bounds_failure(
            self, manifest_dir):
        # os._exit kills every redispatch target too, so the job must
        # fail once the budget is spent instead of cycling forever.
        backend = ProcessBackend(1, max_redispatch=1)
        try:
            backend.start()
            with pytest.raises(WorkerCrashedError):
                backend.call(os._exit, 1)
            assert backend.call(math.factorial, 4) == 24
        finally:
            backend.shutdown()


def _start_backend_and_report(conn) -> None:
    """Child entry: start a backend, ship its worker pids, then block."""
    backend = ProcessBackend(1)
    backend.start()
    conn.send(backend.worker_pids())
    conn.close()
    time.sleep(300.0)  # the parent SIGKILLs us long before this


def _gone_or_zombie(pid: int) -> bool:
    """True once ``pid`` has exited (reaped, or zombie awaiting init)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestOrphanedWorkers:
    def test_workers_exit_when_owner_is_sigkilled(self, manifest_dir):
        # A SIGKILL'd owner gets no chance to shut its workers down; the
        # workers must notice the request pipe's EOF and exit on their
        # own.  This only works because the worker drops its inherited
        # copy of the queue's write end -- otherwise it keeps its own
        # pipe alive and blocks in get() forever as an orphan of init.
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(target=_start_backend_and_report,
                            args=(child_conn,))
        child.start()
        child_conn.close()
        try:
            assert parent_conn.poll(120.0), "child never started a backend"
            worker_pids = parent_conn.recv()
            assert worker_pids
        finally:
            assert child.pid is not None
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - child crashed
                pass
            child.join(timeout=30.0)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if all(_gone_or_zombie(pid) for pid in worker_pids):
                break
            time.sleep(0.1)
        stranded = [p for p in worker_pids if not _gone_or_zombie(p)]
        assert not stranded, f"orphaned workers survived: {stranded}"


class TestCollectorDeath:
    def test_dead_collector_fails_calls_with_traceback(self, manifest_dir):
        # Satellite: if the collector thread dies, waiting on
        # ``job.event`` would poll forever -- the waiter must notice and
        # surface the collector's traceback instead.
        backend = ProcessBackend(1)
        try:
            backend.start()
            assert backend.call(math.factorial, 3) == 6
            # Kill the collector: closing the stop pipe under it makes
            # its connection wait raise.
            backend._stop_reader.close()
            assert backend._collector is not None
            backend._collector.join(timeout=10.0)
            assert not backend._collector.is_alive()
            with pytest.raises(WorkerCrashedError,
                               match="collector thread died"):
                backend.call(math.factorial, 3)
        finally:
            backend.shutdown()  # must not hang on the dead stop pipe


class TestManifest:
    def test_create_writes_entry_and_unlink_removes_it(self, manifest_dir):
        seg = shm.SharedArray.create((2, 2), np.float32, role="input")
        name = seg.name
        try:
            entries = {e.name: e for e in shm.manifest_entries()}
            entry = entries[name]
            assert entry.pid == os.getpid()
            assert entry.role == "input"
            assert entry.owner_alive
            assert entry.segment_exists
            assert not entry.orphaned
        finally:
            seg.unlink()
        assert name not in {e.name for e in shm.manifest_entries()}

    def test_arena_entries_carry_tagged_roles(self, manifest_dir):
        arena = shm.ShmArena()
        seg = arena.ensure("x", (2,), np.float32)
        name = seg.name
        entries = {e.name: e for e in shm.manifest_entries()}
        assert entries[name].role is not None
        assert entries[name].role.endswith(":x")
        arena.release()
        assert name not in {e.name for e in shm.manifest_entries()}

    def test_segment_name_embeds_owner_pid(self):
        seg = shm.SharedArray.create((2,), np.float32)
        try:
            assert shm._segment_owner_pid(seg.name) == os.getpid()
        finally:
            seg.unlink()

    def test_unmanifested_segment_is_synthesized_from_name(
            self, manifest_dir):
        seg = shm.SharedArray.create((2,), np.float32)
        try:
            shm._manifest_remove(seg.name)  # simulate a wiped manifest dir
            entries = {e.name: e for e in shm.manifest_entries()}
            assert entries[seg.name].pid == os.getpid()
            assert entries[seg.name].owner_alive
        finally:
            seg.unlink()


def _create_and_abandon(name: str) -> None:
    """Child entry: create a raw segment and exit without unlinking."""
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(name=name, create=True, size=64)
    shm._manifest_write(name, role="abandoned")
    # Keep the tracker from "helpfully" unlinking at child exit: the
    # point is to orphan the segment like SIGKILL would.
    resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    segment.close()


class TestJanitor:
    def _orphan_segment(self) -> str:
        ctx = multiprocessing.get_context("spawn")
        name = f"{shm.SEGMENT_PREFIX}{os.getpid():x}-janitor"
        child = ctx.Process(target=_create_and_abandon, args=(name,))
        child.start()
        child.join(timeout=60.0)
        assert child.exitcode == 0
        # The manifest entry the child wrote carries the child's (now
        # dead) pid, so the janitor sees a textbook orphan.
        return name

    def test_reaps_segment_of_dead_owner(self, manifest_dir):
        name = self._orphan_segment()
        assert shm._segment_exists(name)
        reaped = shm.reap_orphans()
        assert name in reaped
        assert not shm._segment_exists(name)
        assert name not in {e.name for e in shm.manifest_entries()}

    def test_leaves_live_owners_alone(self, manifest_dir):
        seg = shm.SharedArray.create((2,), np.float32)
        try:
            assert shm.reap_orphans() == ()
            assert shm._segment_exists(seg.name)
        finally:
            seg.unlink()

    def test_reap_is_idempotent(self, manifest_dir):
        name = self._orphan_segment()
        assert name in shm.reap_orphans()
        assert shm.reap_orphans() == ()

    def test_backend_start_runs_the_janitor(self, manifest_dir):
        name = self._orphan_segment()
        backend = ProcessBackend(1)
        try:
            backend.start()
            assert not shm._segment_exists(name)
        finally:
            backend.shutdown()
