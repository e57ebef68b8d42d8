"""Tests for worker supervision in the process backend.

Covers the hang deadline measured from task times, the hang clock the
result pipe keeps (hello, then one message per result), hung/dead worker
escalation, replacement and redispatch, shutdown under a SIGSTOP'd
worker, collector-death detection, and the shm janitor.

Real signals against real worker processes run here, so deadlines and
grace periods are shrunk to keep the suite fast; every timing assertion
leaves generous slack for a loaded single-core host.
"""

import ctypes
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
from repro.runtime import backends, shm
from repro.runtime.backends import (
    DEADLINE_FLOOR,
    DEADLINE_SAFETY,
    ProcessBackend,
    WorkerCrashedError,
    _task_kind,
    measured_deadline,
)
from repro.runtime.pool import WorkerPool


def _deadlines(backend):
    return backend.supervisor_state()["task_deadlines"]


class TestMeasuredDeadline:
    def test_no_deadline_before_a_task_completes(self):
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

    def test_short_tasks_earn_the_floor(self):
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
            self, monkeypatch):
        monkeypatch.setattr(backends, "DEADLINE_FLOOR", 0.01)
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

    def test_each_kind_keeps_its_own_longest_task(self):
        backend = ProcessBackend(1)
        try:
            backend.call(time.sleep, 0.2)
            backend.call(math.factorial, 5)
            assert backend.longest_tasks["time.sleep"] >= 0.2
            assert (backend.longest_tasks["math.factorial"]
                    < backend.longest_tasks["time.sleep"])
        finally:
            backend.shutdown()

    def test_a_fast_kind_never_judges_a_slow_one(self, monkeypatch):
        # A microsecond task completes first (as the sharded step's
        # readiness probe does), then a healthy task of another kind
        # runs three times the floor: it has no completion of its own
        # kind yet, so it is not judged and its worker is not killed.
        monkeypatch.setattr(backends, "DEADLINE_FLOOR", 0.5)
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

    def test_pinned_deadline_never_moves(self):
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


class TestSupervisorLifecycle:
    def test_supervisor_runs_while_backend_lives(self):
        backend = ProcessBackend(1)
        try:
            backend.start()
            state = backend.supervisor_state()
            assert len(state["workers"]) == 1
            assert state["workers"][0]["alive"]
        finally:
            backend.shutdown()
        assert not any(w["alive"]
                       for w in backend.supervisor_state()["workers"])

    def test_backend_runs_no_supervisor_thread(self, monkeypatch):
        # Supervision rides on the dispatchers' poll loops and the result
        # pipes: a started backend adds no thread but its collector, and
        # ships its workers nothing but their two channels.
        shipped: list = []
        start = multiprocessing.context.SpawnProcess.start

        def recording_start(process):
            shipped.append(process._args)
            start(process)

        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start",
                            recording_start)
        before = {t.ident for t in threading.enumerate()}
        backend = ProcessBackend(2)
        try:
            backend.start()
            added = [t.name for t in threading.enumerate()
                     if t.ident not in before]
            assert added == ["repro-shm-collector"]
            assert len(shipped) == 2
            for args in shipped:
                assert len(args) == 2
                assert not any(isinstance(arg, ctypes.Array) for arg in args)
            state = backend.supervisor_state()
            assert len(state["workers"]) == 2
            assert all(w["alive"] for w in state["workers"])
        finally:
            backend.shutdown()

    def test_dead_idle_worker_is_replaced_at_next_dispatch(self):
        # Nobody awaits an idle worker, so nothing notices its death
        # until the next dispatch, which replaces it before placing work.
        # One worker: the job has nowhere to go but the replacement.
        backend = ProcessBackend(1)
        try:
            backend.call(os.getpid)
            victim = backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            waited = time.monotonic()
            while victim.is_alive() and time.monotonic() - waited < 30.0:
                time.sleep(0.01)
            assert not victim.is_alive()
            assert backend.respawns == 0
            assert backend.call(math.factorial, 5) == 120
            assert backend.respawns == 1
            pids = backend.worker_pids()
            assert len(pids) == backend.num_workers
            assert victim.pid not in pids
        finally:
            backend.shutdown()

    def test_policy_mirrors_redispatch_budget(self):
        pool = WorkerPool(2, backend="process")
        try:
            with apply_policy(RetryPolicy(max_redispatches=7)):
                pool.map_items(math.factorial, 2)
            assert pool.backend is not None
            assert pool.backend.max_redispatch == 7
        finally:
            pool.shutdown()


class TestHungWorkerEscalation:
    def test_sigstopped_worker_is_escalated_and_job_redispatched(
            self):
        backend = ProcessBackend(2, task_deadline=1.0)
        backend.escalate_grace = 0.5
        try:
            backend.start()
            victim = backend.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            # The least-loaded dispatch targets the stopped worker (all
            # are idle; list order breaks the tie), the dispatch
            # timestamp starts the hang clock, and this thread's own
            # poll loop must escalate + redispatch.
            assert backend.call(math.factorial, 5) == 120
            assert backend.hung_workers >= 1
            assert backend.respawns >= 1
            assert victim not in backend.worker_pids()
            assert len(backend.worker_pids()) == 2
        finally:
            backend.shutdown()

    def test_bare_pool_detects_a_hung_worker(self, monkeypatch):
        # No executor fronts this pool: the deadline comes from the
        # first call's measured tasks alone.
        monkeypatch.setattr(backends, "DEADLINE_FLOOR", 1.0)
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

    def test_idle_workers_are_never_flagged(self):
        backend = ProcessBackend(1, task_deadline=0.2)
        try:
            backend.start()
            for _ in range(5):  # sweeps with no work, past the deadline
                time.sleep(0.2)
                backend.sweep_workers()
            assert backend.hung_workers == 0
            assert backend.call(math.factorial, 3) == 6
        finally:
            backend.shutdown()

    def test_clock_starts_at_the_previous_result(self):
        # Two jobs queued on one worker at once: the second waits behind
        # the first, so its dispatch is 0.7 D old when it starts and
        # 1.3 D old when it ends.  Its clock starts when the first
        # result arrives, so neither job runs longer than D.
        deadline = 1.0
        backend = ProcessBackend(1)
        try:
            backend.call(os.getpid)  # booted: the pin judges no boot
            backend.set_task_deadline(deadline)
            results: list = []
            callers = [
                threading.Thread(
                    target=lambda s=s: results.append(
                        backend.call(time.sleep, s)),
                    daemon=True)
                for s in (0.7 * deadline, 0.6 * deadline)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30.0)
                assert not caller.is_alive()
            assert results == [None, None]
            assert backend.hung_workers == 0
            assert backend.respawns == 0
        finally:
            backend.shutdown()


def _await_outstanding(backend, count: int) -> list:
    """Poll until ``count`` jobs are owed; the snapshot's worker rows."""
    waited = time.monotonic()
    while time.monotonic() - waited < 30.0:
        workers = backend.supervisor_state()["workers"]
        if sum(w["outstanding"] for w in workers) == count:
            return workers
        time.sleep(0.01)
    raise AssertionError(f"never owed {count}: {backend.supervisor_state()}")


def _nap(lo: int, hi: int) -> int:
    """A range task slow enough to strike its helper mid-job."""
    time.sleep(0.3)
    return hi - lo


class TestOneHelperPool:
    """A two-worker process pool is the parent and one helper: a job
    stranded on the helper has no sibling to go to, only the helper's
    respawned replacement."""

    def _strike_mid_dispatch(self, pool, task, sig):
        backend = pool.backend
        (victim,) = backend.worker_pids()
        results: list = []
        caller = threading.Thread(
            target=lambda: results.append(pool.map_batches(task, 8)),
            daemon=True)
        if sig == signal.SIGSTOP:
            os.kill(victim, sig)
            caller.start()
        else:
            caller.start()
            _await_outstanding(backend, 1)
            os.kill(victim, sig)
        caller.join(timeout=30.0)
        assert not caller.is_alive(), (
            f"still blocked: {backend.supervisor_state()}")
        (helper,) = backend.worker_pids()
        assert helper != victim
        return results

    def test_sigkilled_helper_job_goes_to_its_replacement(self):
        pool = WorkerPool(2, backend="process")
        try:
            assert pool.map_batches(_nap, 8) == [4, 4]
            results = self._strike_mid_dispatch(pool, _nap, signal.SIGKILL)
            assert results == [[4, 4]]
            backend = pool.backend
            assert (backend.respawns, backend.redispatches) == (1, 1)
        finally:
            pool.shutdown()

    def test_hung_helper_job_goes_to_its_replacement(self, monkeypatch):
        monkeypatch.setattr(backends, "DEADLINE_FLOOR", 1.0)
        pool = WorkerPool(2, backend="process")
        try:
            first = pool.map_batches(operator.sub, 8)
            pool.backend.escalate_grace = 0.5
            results = self._strike_mid_dispatch(pool, operator.sub,
                                                signal.SIGSTOP)
            assert results == [first]
            backend = pool.backend
            assert (backend.hung_workers, backend.respawns,
                    backend.redispatches) == (1, 1, 1)
        finally:
            if pool.backend is not None:
                pool.backend.shutdown()
            pool.shutdown()


class TestSilence:
    """The parent's own clock: seconds since a worker was last heard from."""

    def test_hello_ends_booting(self):
        backend = ProcessBackend(2)
        try:
            assert sorted(backend.broadcast(os.getpid)) == sorted(
                backend.worker_pids())
            workers = backend.supervisor_state()["workers"]
            assert not any(w["booting"] for w in workers)
            assert all(w["silent"] is None for w in workers)
            assert backend.longest_boot > 0
        finally:
            backend.shutdown()

    def test_silence_tracks_wall_clock(self):
        backend = ProcessBackend(1)
        try:
            backend.call(os.getpid)
            caller = threading.Thread(
                target=lambda: backend.call(time.sleep, 1.0), daemon=True)
            caller.start()
            first = _await_outstanding(backend, 1)[0]["silent"]
            time.sleep(0.3)
            later = backend.supervisor_state()["workers"][0]["silent"]
            assert 0.0 <= first < later < 5.0
            assert later - first >= 0.25
            caller.join(timeout=30.0)
            assert not caller.is_alive()
            assert backend.supervisor_state()["workers"][0]["silent"] is None
        finally:
            backend.shutdown()

    def test_each_worker_has_its_own_clock(self):
        # Least-loaded dispatch puts the one job on one worker: only that
        # worker owes work, so only it is timed.
        backend = ProcessBackend(2)
        try:
            backend.broadcast(os.getpid)
            caller = threading.Thread(
                target=lambda: backend.call(time.sleep, 0.5), daemon=True)
            caller.start()
            workers = _await_outstanding(backend, 1)
            timed = [w["silent"] is not None for w in workers]
            assert sorted(timed) == [False, True]
            caller.join(timeout=30.0)
            assert not caller.is_alive()
        finally:
            backend.shutdown()


class TestBootingWorkers:
    """A worker that has not said hello since spawn holds no task yet."""

    @staticmethod
    def _start_with_first_worker_stopped(backend):
        backend.start()
        booting = backend.worker_pids()[0]
        os.kill(booting, signal.SIGSTOP)
        # Stopped before its hello arrived: it is still booting.
        assert backend.supervisor_state()["workers"][0]["booting"]
        return booting

    def test_a_booting_worker_is_not_judged_by_its_siblings_tasks(
            self, monkeypatch):
        # The sibling answers the readiness probe in microseconds, which
        # earns the probe's kind the 1 ms floor.  The same probe queued
        # on the worker still booting waits on boot times instead.
        monkeypatch.setattr(backends, "DEADLINE_FLOOR", 0.001)
        backend = ProcessBackend(2)
        backend.escalate_grace = 0.5
        try:
            booting = self._start_with_first_worker_stopped(backend)
            answers: list = []
            caller = threading.Thread(
                target=lambda: answers.append(backend.broadcast(os.getpid)),
                daemon=True)
            caller.start()
            kind = _task_kind(os.getpid)
            waited = time.monotonic()
            while (kind not in backend.longest_tasks
                   and time.monotonic() - waited < 30.0):
                time.sleep(0.05)
            assert _deadlines(backend) == {kind: 0.001}
            time.sleep(1.0)  # the caller's sweeps, past the kind's deadline
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
            self, monkeypatch):
        # No task kind judges a booting worker, but its sibling's boot
        # does: at twice the sibling's boot, the stuck one is killed and
        # its probe answered by a live worker.
        monkeypatch.setattr(backends, "DEADLINE_FLOOR", 0.001)
        monkeypatch.setattr(backends, "DEADLINE_SAFETY", 2.0)
        backend = ProcessBackend(2)
        backend.escalate_grace = 0.5
        try:
            stuck = self._start_with_first_worker_stopped(backend)
            answers: list = []
            caller = threading.Thread(
                target=lambda: answers.append(backend.broadcast(os.getpid)),
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
    def test_shutdown_escalates_sigstopped_worker(self):
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
            self):
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
    def test_workers_exit_when_owner_is_sigkilled(self):
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
    def test_dead_collector_fails_calls_with_traceback(self):
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


class TestHostSegments:
    def test_live_segment_is_listed_with_its_owner(self):
        seg = shm.SharedArray.create((2, 2), np.float32, role="input")
        name = seg.name
        try:
            listed = {s.name: s for s in shm.segments_on_host()}
            assert listed[name].pid == os.getpid()
            assert listed[name].owner_alive
            assert not listed[name].orphaned
        finally:
            seg.unlink()
        assert name not in shm.host_segments()

    def test_segment_name_embeds_owner_pid(self):
        seg = shm.SharedArray.create((2,), np.float32)
        try:
            assert shm._segment_owner_pid(seg.name) == os.getpid()
        finally:
            seg.unlink()

    def test_arena_segments_are_listed_until_release(self):
        arena = shm.ShmArena()
        seg = arena.ensure("x", (2,), np.float32)
        name = seg.name
        assert seg.descriptor.role.endswith(":x")
        listed = {s.name: s for s in shm.segments_on_host()}
        assert listed[name].pid == os.getpid()
        arena.release()
        assert name not in shm.host_segments()

    def test_name_without_an_owner_is_neither_listed_nor_reaped(self):
        from multiprocessing import shared_memory

        name = f"{shm.SEGMENT_PREFIX}nothex-foreign"
        assert shm._segment_owner_pid(name) is None
        segment = shared_memory.SharedMemory(name=name, create=True, size=32)
        try:
            assert name in shm.host_segments()
            assert name not in {s.name for s in shm.segments_on_host()}
            assert name not in shm.reap_orphans()
            assert name in shm.host_segments()
        finally:
            segment.close()
            segment.unlink()

    def test_create_writes_no_file(self, tmp_path, monkeypatch):
        # The segment's name is its only record: creating one leaves
        # nothing on disk, even where the old manifest variable is set.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_SHM_MANIFEST_DIR", str(tmp_path))
        seg = shm.SharedArray.create((2,), np.float32, role="input")
        try:
            assert list(tmp_path.iterdir()) == []
        finally:
            seg.unlink()
        assert list(tmp_path.iterdir()) == []


def _create_and_abandon() -> None:
    """Child entry: create a raw segment and exit without unlinking."""
    from multiprocessing import resource_tracker, shared_memory

    name = f"{shm.SEGMENT_PREFIX}{os.getpid():x}-janitor"
    segment = shared_memory.SharedMemory(name=name, create=True, size=64)
    # Keep the tracker from "helpfully" unlinking at child exit: the
    # point is to orphan the segment like SIGKILL would.
    resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    segment.close()


class TestJanitor:
    def _orphan_segment(self) -> str:
        ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(target=_create_and_abandon)
        child.start()
        child.join(timeout=60.0)
        assert child.exitcode == 0
        # The segment's name carries the child's (now dead) pid, so the
        # janitor sees a textbook orphan.
        return f"{shm.SEGMENT_PREFIX}{child.pid:x}-janitor"

    def test_reaps_segment_of_dead_owner(self):
        name = self._orphan_segment()
        assert name in shm.host_segments()
        reaped = shm.reap_orphans()
        assert name in reaped
        assert name not in shm.host_segments()

    def test_leaves_live_owners_alone(self):
        seg = shm.SharedArray.create((2,), np.float32)
        try:
            assert shm.reap_orphans() == ()
            assert seg.name in shm.host_segments()
        finally:
            seg.unlink()

    def test_reap_is_idempotent(self):
        name = self._orphan_segment()
        assert name in shm.reap_orphans()
        assert shm.reap_orphans() == ()

    def test_backend_start_runs_the_janitor(self):
        name = self._orphan_segment()
        backend = ProcessBackend(1)
        try:
            backend.start()
            assert name not in shm.host_segments()
        finally:
            backend.shutdown()
