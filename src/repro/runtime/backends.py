"""Pluggable execution backends for the worker pool.

The paper's GEMM-in-Parallel schedule wants one *single-threaded* kernel
per core over different images (Sec. 4.1).  Threads deliver that only
for numpy-dominated kernels (the GIL is released inside ``dot``); the
pure-Python hot loops -- per-image unfold, generated stencil basic
blocks, CT-CSR construction, pointer-shifted sparse accumulation --
serialize on the GIL.  The **process** backend runs those kernels in
persistent spawned worker processes instead, so every core executes
Python bytecode concurrently, and moves the tensors through
:mod:`repro.runtime.shm` segments rather than pickles.

A pool names one of three backends (:data:`BACKEND_NAMES`).  ``serial``
runs its tasks inline on the caller's thread, in range order, and
``thread`` on the pool's dispatcher threads: both call the task where
it is (:class:`repro.runtime.pool.WorkerPool`), with no object of their
own.  ``process`` is :class:`ProcessBackend`: it serves a pool's
*helpers* -- the pool's caller runs range 0 itself, unshipped, so a
pool of N asks it for N-1 workers -- by shipping tasks to persistent
worker processes while the dispatcher thread blocks on the round-trip.
Tasks and their arguments must pickle; array payloads should travel
via shared memory (see :func:`run_engine_slice`), not through the
pickle.

Spawn-safety: workers are started with the ``spawn`` context (no
inherited locks or collector state -- the fork-unsafety CHK-FORK lints
against cannot arise), and the parent's ``repro`` source root is pushed
onto the child's ``PYTHONPATH`` so the spawned interpreter can import
the task functions it receives by reference.

Fault injection remains parent-side: the pool's ``pool.task`` /
``pool.result`` sites wrap the *dispatch* of a task, so a chaos plan
fires identically (and deterministically) under every backend.
Telemetry, by contrast, crosses the process boundary: a job dispatched
while a collector is active asks its worker to record, the ordinary
``telemetry.*`` calls in the worker append spans, counters, gauges and
events to that job's record list (:mod:`repro.telemetry.remote`), and
the list rides home in the job's result message, for a result and for
an error alike.  The parent merges it into the active collectors once
it has awaited the job (workers stamp records on the ``perf_counter``
clock the parent's own spans use), tagging every record with the job's
``job_id`` -- the id the parent's ``pool/dispatch`` span records too,
which is what lets the Chrome trace draw dispatch -> worker ->
collection flow arrows.

Supervision needs no ledger beyond the result pipes.  Every outstanding
job has a dispatcher blocked in :meth:`ProcessBackend._await`, and that
poll loop sweeps the worker table: dead *and* hung workers are escalated
``terminate`` -> ``kill``, respawned, and their in-flight jobs
re-dispatched to surviving workers (bounded by ``max_redispatch``;
engine-slice and step-shard tasks are idempotent, they write disjoint
shared-memory ranges).  A dispatch first replaces workers that died
while idle.  The parent times a worker's running job with its own
clock, from the later of the job's dispatch and the arrival of the
worker's previous message on its result pipe (a worker serves its queue
in order, so that arrival is when it picked the job up).  A worker is
hung once that clock passes the deadline the job's kind earned in its
own pool: 20x the longest completed task of the same function, at least
5 s, none before the first one completes (so a slow kind is never judged
by a fast one's times).  A worker says hello on its pipe once it can
take work; until then it is booting, and work queued on it is judged
against the boot times (spawn to hello) of its siblings, the same way.
Backend start also runs the shm janitor, reclaiming segments orphaned
by a previous hard-killed process.

BLAS threads: the runtime's unit of parallelism is the worker, one
single-threaded kernel per core (Sec. 4.1), so spawned workers get
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS`` set
to 1 unless the parent's environment already sets them -- N workers x M
BLAS threads oversubscribe the host.  The parent, which runs range 0,
pins its own OpenBLAS the same way (:func:`pin_caller_blas`).
:func:`worker_diagnostics` and the ``worker/step_shard`` span report
what each worker runs under.

Heap: every spawned worker, like every trainer, pins glibc's malloc
thresholds first (:func:`repro.runtime.heap.pin_malloc_thresholds`).
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import sys
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Union

import numpy as np

from repro import telemetry
from repro.errors import ReproError
from repro.runtime import shm
from repro.runtime.heap import pin_malloc_thresholds
from repro.telemetry import remote

#: Names accepted by ``WorkerPool(backend=...)``.
BACKEND_NAMES = ("serial", "thread", "process")

#: The BLAS thread-count variables the runtime pins for its workers.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")

#: Floor under every measured task deadline, in seconds.  CI hosts are
#: oversubscribed and a single slow task must not read as a hang.
DEADLINE_FLOOR = 5.0

#: Multiple of the longest completed task.  The reading comes from this
#: host's own workers, so the multiple absorbs only noise (a preempted
#: step, a cold cache), not a model's error on another machine; a false
#: "hung" verdict still kills a healthy worker mid-task, hence 20x.
DEADLINE_SAFETY = 20.0

#: What a worker sends on its result pipe once it can take work (a
#: pickled result never starts with these bytes).
_HELLO = b"hello"

#: Attached-segment LRU size in each worker process.  Segments are
#: reused across calls while their geometry is stable; a reallocated
#: role invalidates its stale mapping immediately (see
#: :func:`_cached_attach`), the LRU bound only caps segments whose
#: arenas went away entirely.
_ATTACH_CACHE_SIZE = 32


def measured_deadline(longest_task: float) -> float:
    """Hang deadline of a task kind whose longest completed task took
    ``longest_task`` seconds."""
    return max(DEADLINE_FLOOR, DEADLINE_SAFETY * longest_task)


def validate_backend(name: str) -> str:
    if name not in BACKEND_NAMES:
        raise ReproError(
            f"unknown execution backend {name!r}; known: {BACKEND_NAMES}"
        )
    return name


class WorkerCrashedError(ReproError):
    """A persistent worker process died while jobs were outstanding."""


def _portable_error(exc: BaseException) -> BaseException:
    """An exception safe to send over the result pipe."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")


def _worker_main(requests: Any, results: Any) -> None:
    """Loop of one persistent worker process (spawn entry point).

    Sends one hello on its result pipe once it can take work, then one
    result per task, in queue order: the parent starts a job's hang
    clock at the previous message's arrival, so an idle worker says
    nothing and is never judged.  Each result carries the seconds
    ``fn(*args)`` ran (0 when it raised), the reading the parent derives
    the hang deadline of ``fn``'s kind from.

    Each request is ``(job_id, payload, record)``: with ``record`` set,
    the ``telemetry.*`` calls ``fn`` makes append to a fresh record list,
    which the result message carries home as its last field.

    ``requests`` and ``results`` are this worker's **private** one-way
    pipe ends, and neither holds a lock in shared memory: a queue's
    semaphores would die with a SIGKILL'd worker -- leaked, or held
    forever by a worker killed mid-``put`` so that every sibling (and the
    parent's shutdown sentinel) blocks on them.  A hard kill can only
    ever break the dead worker's own pipes, which the parent detects as
    EOF on the result end.  The parent is the request pipe's only writer
    (a spawned worker inherits no copy of it), so a dead parent, even a
    SIGKILL'd one, closes it and ``recv`` raises ``EOFError``.
    """
    pin_malloc_thresholds()
    try:
        results.send_bytes(_HELLO)
    except (BrokenPipeError, OSError):  # pragma: no cover - parent died
        return
    while True:
        try:
            item = requests.recv()
        except (EOFError, OSError):
            # Parent died and took its end of the pipe with it; exit so
            # a hard-killed parent does not strand orphan workers.
            return
        if item is None:
            return
        job_id, payload, record = item
        remote.WORKER.records = [] if record else None
        seconds = 0.0
        try:
            fn, args = pickle.loads(payload)
            start = time.monotonic()
            result = fn(*args)
            seconds = time.monotonic() - start
            body = pickle.dumps((job_id, "ok", result, seconds,
                                 remote.WORKER.records))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            body = pickle.dumps((job_id, "err", _portable_error(exc), seconds,
                                 remote.WORKER.records))
        remote.WORKER.records = None
        try:
            results.send_bytes(body)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            return


def _task_kind(fn: Callable[..., Any]) -> str:
    """The key task times are kept under: ``fn``'s qualified name."""
    name = getattr(fn, "__qualname__", type(fn).__qualname__)
    return f"{getattr(fn, '__module__', None)}.{name}"


class _Job:
    __slots__ = ("event", "result", "error", "payload", "dispatched",
                 "redispatches", "job_id", "kind", "record", "records",
                 "sender")

    def __init__(self, payload: bytes = b"", job_id: int = 0,
                 kind: str = "", record: bool = False) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        #: The pickled (fn, args) body, kept so a job stranded on a dead
        #: worker can be re-dispatched to a survivor.
        self.payload = payload
        #: ``time.monotonic()`` of the most recent dispatch.
        self.dispatched = 0.0
        #: How many times this job has been re-dispatched after a crash.
        self.redispatches = 0
        #: Backend-unique id; the causal key tying the parent's
        #: ``pool/dispatch`` span to the worker's execution span.
        #: Stable across re-dispatches (the retried work is the same job).
        self.job_id = job_id
        #: :func:`_task_kind` of the shipped function: the job is judged
        #: against the deadline completed jobs of this kind earned.
        self.kind = kind
        #: Whether the worker records telemetry for this job: a collector
        #: was active at dispatch.
        self.record = record
        #: The records of the attempt whose result was taken, and the
        #: worker whose pipe delivered them.
        self.records: list[remote.Record] | None = None
        self.sender: _Worker | None = None


class _Worker:
    """Parent-side record of one spawned worker process."""

    __slots__ = ("process", "requests", "send_lock", "results",
                 "outstanding", "slot", "escalating", "spawned", "heard")

    def __init__(self, process: Any, requests: Any, results: Any,
                 slot: int, spawned: float) -> None:
        self.process = process
        #: Parent's write end of this worker's private request pipe, and
        #: the lock the dispatcher threads sharing it write under.
        self.requests = requests
        self.send_lock = threading.Lock()
        #: Parent's receive end of this worker's private result pipe.
        self.results = results
        self.outstanding: set[int] = set()
        #: Fixed position labelling the worker's telemetry; respawns
        #: reuse freed slots.
        self.slot = slot
        #: Set (under the backend lock) by the first sweep that decides
        #: to kill this worker, so concurrent sweeps never double-signal.
        self.escalating = False
        #: ``time.monotonic()`` just before the process started.
        self.spawned = spawned
        #: ``time.monotonic()`` at which the collector read this worker's
        #: latest message (its hello, then each result); ``None`` while
        #: the worker is still booting.
        self.heard: float | None = None

    def send(self, item: Any) -> None:
        """Write one request on this worker's pipe.

        A worker that died before reading it broke the pipe; the sweep
        reaps it and re-dispatches what it held, so that is no error.
        """
        with self.send_lock:
            try:
                self.requests.send(item)
            except OSError:
                pass

    def close(self) -> None:
        """Close the parent's end of the request pipe."""
        with self.send_lock:
            self.requests.close()


class ProcessBackend:
    """Persistent spawned worker processes fed over private pipes.

    ``call`` is thread-safe: each dispatcher thread ships its job to the
    least-loaded live worker and blocks for the round-trip.  A worker
    that dies mid-job fails that worker's outstanding jobs with
    :class:`WorkerCrashedError` and is respawned, so the backend
    survives hard crashes without hanging the parent.
    """

    name = "process"

    #: How long ``shutdown`` waits for a worker to drain its sentinel.
    shutdown_join = 5.0
    #: Bounded join after SIGTERM and again after SIGKILL when a worker
    #: has to be escalated (hung at shutdown, or flagged by the sweep).
    escalate_grace = 2.0

    def __init__(self, num_workers: int,
                 task_deadline: float | None = None,
                 max_redispatch: int = 2) -> None:
        if num_workers <= 0:
            raise ReproError(
                f"num_workers must be positive, got {num_workers}"
            )
        self.num_workers = num_workers
        #: Seconds of the longest completed task, per :func:`_task_kind`.
        #: Unless a deadline is pinned, a job's hang deadline is
        #: :func:`measured_deadline` of its kind's entry, and a kind with
        #: no entry yet is not judged.
        self.longest_tasks: dict[str, float] = {}
        #: Seconds from spawn to hello of the slowest worker heard from.
        #: A job held by a worker still booting is judged
        #: against :func:`measured_deadline` of this, never against its
        #: kind's task times (interpreter boot is no task's time), and
        #: not before some worker finished booting.
        self.longest_boot: float | None = None
        #: A pinned deadline (``task_deadline=``, :meth:`set_task_deadline`)
        #: applies to every job; ``None`` pinned disables hang detection
        #: (dead-worker reaping still runs).
        self._pinned_deadline = task_deadline
        self._deadline_pinned = task_deadline is not None
        #: Per-job budget of crash re-dispatches before the job fails
        #: with :class:`WorkerCrashedError`.
        self.max_redispatch = max_redispatch
        #: Supervision counters (exposed via :meth:`supervisor_state`).
        self.respawns = 0
        self.redispatches = 0
        self.hung_workers = 0
        self._ctx: Any = None
        #: Receive ends the collector multiplexes over (plus the private
        #: shutdown pipe), each mapped to the worker it hears from -- also
        #: after that worker left the table.  Guarded by ``_lock``.
        self._result_conns: dict[Any, _Worker] = {}
        self._stop_reader: Any = None
        self._stop_writer: Any = None
        self._saved_env: dict[str, str | None] = {}
        self._workers: list[_Worker] = []
        self._free_slots: list[int] = []
        self._jobs: dict[int, _Job] = {}
        self._job_seq = 0
        self._lock = threading.Lock()
        # Serializes start()/shutdown(); separate from ``_lock`` so the
        # collector and reaper never block behind process spawning.
        self._lifecycle_lock = threading.Lock()
        # Serializes respawn batches (PYTHONPATH is process-global
        # state; two concurrent _spawn_env blocks would corrupt it).
        self._respawn_lock = threading.Lock()
        self._collector: threading.Thread | None = None
        self._collector_error: str | None = None
        self._started = False
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        # Double-checked: call() is documented thread-safe and starts
        # the backend lazily, so two dispatcher threads can race here --
        # without the lock each would spawn a full worker set and the
        # second would reassign the pipe set, stranding jobs shipped to
        # workers bound to the replaced channels.
        if self._started:
            return
        with self._lifecycle_lock:
            if self._started:
                return
            import multiprocessing as mp

            # Janitor first: reclaim segments a previous hard-killed
            # process left in /dev/shm before allocating new ones.
            shm.reap_orphans()
            self._ctx = mp.get_context("spawn")
            self._stop_reader, self._stop_writer = self._ctx.Pipe(
                duplex=False
            )
            self._free_slots = list(range(self.num_workers - 1, -1, -1))
            with self._spawn_env():
                for _ in range(self.num_workers):
                    self._workers.append(
                        self._spawn_worker(self._free_slots.pop())
                    )
            self._collector_error = None
            self._collector = threading.Thread(
                target=self._collect, name="repro-shm-collector", daemon=True
            )
            self._collector.start()
            self._closed = False
            self._started = True

    def _spawn_env(self) -> Any:
        """The environment spawned interpreters start in.

        They must be able to import the repro package, and they run one
        BLAS thread each unless the user's environment says otherwise
        (an explicit value wins).
        """
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])

        class _Env:
            def __enter__(_self) -> None:
                old_path = os.environ.get("PYTHONPATH")
                spawn_env = {"PYTHONPATH": os.pathsep.join(
                    [src_root] + ([old_path] if old_path else []))}
                for var in BLAS_THREAD_ENV:
                    if var not in os.environ:
                        spawn_env[var] = "1"
                self._saved_env = {var: os.environ.get(var)
                                   for var in spawn_env}
                os.environ.update(spawn_env)

            def __exit__(_self, *exc_info: object) -> None:
                for var, value in self._saved_env.items():
                    if value is None:
                        os.environ.pop(var, None)
                    else:
                        os.environ[var] = value

        return _Env()

    def _spawn_worker(self, slot: int) -> _Worker:
        request_end, request_writer = self._ctx.Pipe(duplex=False)
        recv_end, send_end = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main, args=(request_end, send_end), daemon=True,
        )
        spawned = time.monotonic()
        process.start()
        # Drop the parent's copies of the worker's ends: the result pipe
        # must hit EOF (worker death detection) as soon as the worker's
        # copy closes, and a write to a dead worker's request pipe must
        # fail instead of filling a buffer nobody reads.
        request_end.close()
        send_end.close()
        worker = _Worker(process, request_writer, recv_end, slot, spawned)
        self._result_conns[recv_end] = worker
        return worker

    def shutdown(self) -> None:
        with self._lifecycle_lock:
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        if not self._started:
            return
        # Closed first: a sweep must not escalate or respawn workers
        # while the table is being torn down underneath it.
        self._closed = True
        for worker in self._workers:
            worker.send(None)
        for worker in self._workers:
            worker.process.join(timeout=self.shutdown_join)
            if worker.process.is_alive():
                # Hung (or SIGSTOP'd) worker: the sentinel will never be
                # read.  SIGTERM is not delivered to a stopped process;
                # SIGKILL always is, so escalate with bounded joins.
                worker.process.terminate()
                worker.process.join(timeout=self.escalate_grace)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=self.escalate_grace)
            worker.close()
        # Unblock and retire the collector thread.  The stop pipe has
        # the parent as its only writer, so this send can never block on
        # a lock a dead worker took with it (the failure mode a shared
        # result queue had).
        try:
            self._stop_writer.send_bytes(b"stop")
        except (BrokenPipeError, OSError):  # pragma: no cover - torn pipe
            pass
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        with self._lock:
            for job in self._jobs.values():
                job.error = ReproError("process backend shut down")
                job.event.set()
            self._jobs.clear()
            for conn in self._result_conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - collector closed it
                    pass
            self._result_conns.clear()
        for conn in (self._stop_reader, self._stop_writer):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    # Already closed -- e.g. by the fault that killed the
                    # collector; Connection.close() is not idempotent.
                    pass
        self._stop_reader = self._stop_writer = None
        self._workers.clear()
        self._free_slots = []
        self._started = False

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live workers (tests assert persistence on these)."""
        return tuple(w.process.pid for w in self._workers
                     if w.process.is_alive())

    def _note_inflight(self, slot: int, count: int) -> None:
        """Publish one worker's in-flight job-count gauge.

        Callers hold ``self._lock``: the dispatcher's increment and the
        collector's decrement then publish in the order they mutated
        ``outstanding``, so the gauge's last value is the true count.
        """
        telemetry.gauge(f"pool.inflight.w{slot}", float(count))

    # -- dispatch ---------------------------------------------------------

    def _collect(self) -> None:
        from multiprocessing.connection import wait as connection_wait

        stop = self._stop_reader
        try:
            while True:
                with self._lock:
                    senders = dict(self._result_conns)
                # Bounded wait so pipes of workers respawned since the
                # snapshot join the multiplex set on the next pass.
                for conn in connection_wait([*senders, stop], timeout=0.2):
                    if conn is stop:
                        return
                    sender = senders[conn]
                    try:
                        body = conn.recv_bytes()
                    except (EOFError, OSError):
                        # Worker died (possibly mid-send: a truncated
                        # message reads as EOF).  The sweep redispatches
                        # its jobs; here just retire the pipe.
                        with self._lock:
                            self._result_conns.pop(conn, None)
                        conn.close()
                        continue
                    heard = time.monotonic()
                    if body == _HELLO:
                        with self._lock:
                            sender.heard = heard
                            self.longest_boot = max(self.longest_boot or 0.0,
                                                    heard - sender.spawned)
                        continue
                    job_id, status, payload, seconds, records = (
                        pickle.loads(body))
                    with self._lock:
                        sender.heard = heard
                        job = self._jobs.pop(job_id, None)
                        if job is not None and status == "ok":
                            longest = self.longest_tasks.get(job.kind, 0.0)
                            self.longest_tasks[job.kind] = max(longest,
                                                               seconds)
                        for worker in self._workers:
                            if job_id in worker.outstanding:
                                worker.outstanding.discard(job_id)
                                self._note_inflight(
                                    worker.slot, len(worker.outstanding))
                    if job is None:
                        continue  # already failed, or redispatch duplicate
                    job.records, job.sender = records, sender
                    if status == "ok":
                        job.result = payload
                    else:
                        job.error = payload
                    job.event.set()
        except BaseException:  # noqa: BLE001 - collector is load-bearing
            # The collector is the only path that completes jobs; if it
            # dies every pending and future wait would spin forever.
            # Record the traceback (call() re-raises it) and fail every
            # pending job now.
            tb = traceback.format_exc()
            self._collector_error = tb
            telemetry.event("pool.collector_died", traceback=tb)
            with self._lock:
                pending = list(self._jobs.values())
                self._jobs.clear()
                for worker in self._workers:
                    worker.outstanding.clear()
            for job in pending:
                job.error = WorkerCrashedError(
                    f"result collector thread died:\n{tb}"
                )
                job.event.set()

    def _check_collector(self) -> None:
        """Raise if the result-collector thread is no longer serving."""
        if self._closed:
            return
        collector = self._collector
        if self._collector_error is not None or (
            collector is not None and not collector.is_alive()
        ):
            raise WorkerCrashedError(
                "result collector thread died; jobs can never complete"
                + (f":\n{self._collector_error}"
                   if self._collector_error else "")
            )

    def sweep_workers(self) -> None:
        """One supervision pass: escalate hung workers, reap dead ones.

        Run by every dispatcher's poll loop while its job is out.  A
        worker counts as *hung* only while it owes results: its oldest
        outstanding job -- the one a worker serving its queue in order
        runs -- has been running longer than that job's deadline
        (:meth:`_deadline_for`), counted from the later of its dispatch
        and the worker's previous message; or, while the worker is still
        booting, the job has waited longer than the boot deadline
        (:attr:`longest_boot`), counted from spawn or dispatch.
        """
        if not self._started or self._closed:
            return
        hung: list[tuple[_Worker, float]] = []
        now = time.monotonic()
        with self._lock:
            for worker in self._workers:
                if worker.escalating or not worker.process.is_alive():
                    continue
                oldest = min(
                    (self._jobs[j] for j in worker.outstanding
                     if j in self._jobs),
                    key=lambda job: job.dispatched, default=None)
                if oldest is None:
                    continue
                if worker.heard is None:
                    deadline = self._deadline(self.longest_boot)
                    since = max(worker.spawned, oldest.dispatched)
                else:
                    deadline = self._deadline_for(oldest.kind)
                    since = max(worker.heard, oldest.dispatched)
                if deadline is not None and now - since > deadline:
                    worker.escalating = True
                    hung.append((worker, deadline))
        for worker, deadline in hung:
            self._escalate(worker, deadline)
        self._reap_dead_workers()

    def _deadline_for(self, kind: str) -> float | None:
        """Hang deadline of a job of ``kind`` (None: not judged)."""
        return self._deadline(self.longest_tasks.get(kind))

    def _deadline(self, longest: float | None) -> float | None:
        """The pinned deadline, else :func:`measured_deadline` of the
        ``longest`` reading (None: no reading yet, not judged)."""
        if self._deadline_pinned:
            return self._pinned_deadline
        return None if longest is None else measured_deadline(longest)

    def _escalate(self, worker: _Worker, deadline: float) -> None:
        """terminate -> bounded join -> kill -> join; then it is dead."""
        pid = worker.process.pid
        self.hung_workers += 1
        telemetry.add("supervisor.hung_workers", 1)
        telemetry.event("supervisor.hung", pid=pid, deadline=deadline)
        try:
            telemetry.event("supervisor.escalate", pid=pid,
                            slot=worker.slot, stage="sigterm")
            worker.process.terminate()
            worker.process.join(timeout=self.escalate_grace)
            if worker.process.is_alive():
                telemetry.event("supervisor.escalate", pid=pid,
                                slot=worker.slot, stage="sigkill")
                worker.process.kill()
                worker.process.join(timeout=self.escalate_grace)
        except Exception:  # pragma: no cover - process already reaped
            pass

    def _reap_dead_workers(self) -> None:
        """Handle dead workers: redispatch or fail their jobs; respawn."""
        redispatch: list[tuple[int, _Job]] = []
        failed: list[tuple[_Job, WorkerCrashedError]] = []
        with self._lock:
            dead = [w for w in self._workers if not w.process.is_alive()]
            if not dead:
                return
            for worker in dead:
                self._workers.remove(worker)
                self._free_slots.append(worker.slot)
                # The dead worker holds nothing any more; zero its gauge
                # so the in-flight tracks drain even across a crash.
                self._note_inflight(worker.slot, 0)
                for job_id in sorted(worker.outstanding):
                    job = self._jobs.get(job_id)
                    if job is None:
                        continue
                    if (not self._closed
                            and job.redispatches < self.max_redispatch):
                        job.redispatches += 1
                        redispatch.append((job_id, job))
                    else:
                        del self._jobs[job_id]
                        failed.append((job, WorkerCrashedError(
                            f"worker process {worker.process.pid} died "
                            f"with the job outstanding"
                            + (" (redispatch budget spent)"
                               if job.redispatches else "")
                        )))
        telemetry.add("pool.worker_crashes", len(dead))
        for worker in dead:
            worker.close()
            telemetry.event("supervisor.worker_dead",
                            pid=worker.process.pid, slot=worker.slot,
                            stranded=len(worker.outstanding))
        respawned: list[tuple[int, int | None]] = []
        if not self._closed:
            with self._respawn_lock:
                with self._spawn_env():
                    with self._lock:
                        while (len(self._workers) < self.num_workers
                               and self._free_slots):
                            slot = self._free_slots.pop()
                            spawned = self._spawn_worker(slot)
                            self._workers.append(spawned)
                            self.respawns += 1
                            telemetry.add("supervisor.respawns", 1)
                            respawned.append((slot, spawned.process.pid))
        for slot, pid in respawned:
            telemetry.event("supervisor.respawn", slot=slot, pid=pid)
        # Fail jobs only after replacements exist: a waiter that wakes
        # on WorkerCrashedError may immediately re-dispatch.
        for job, error in failed:
            job.error = error
            job.event.set()
        if self._closed:
            return
        # Re-dispatch stranded jobs to the (possibly fresh) survivors.
        shipments: list[tuple[_Worker, int, _Job]] = []
        with self._lock:
            for job_id, job in redispatch:
                target = min(
                    (w for w in self._workers
                     if w.process.is_alive() and not w.escalating),
                    key=lambda w: len(w.outstanding),
                    default=None,
                )
                if target is None:
                    self._jobs.pop(job_id, None)
                    job.error = WorkerCrashedError(
                        "no live worker to re-dispatch a stranded job to"
                    )
                    job.event.set()
                    continue
                target.outstanding.add(job_id)
                job.dispatched = time.monotonic()
                self._note_inflight(target.slot, len(target.outstanding))
                shipments.append((target, job_id, job))
        for target, job_id, job in shipments:
            target.send((job_id, job.payload, job.record))
            self.redispatches += 1
            telemetry.add("supervisor.redispatches", 1)
            telemetry.event("supervisor.redispatch", job=job_id,
                            slot=target.slot, pid=target.process.pid)

    def _next_job_id(self) -> int:
        with self._lock:
            self._job_seq += 1
            return self._job_seq

    def _dispatch(self, job: _Job) -> bool:
        """Ship ``job`` to the least-loaded live worker; False if none.

        Workers that died since the last sweep (idle ones included:
        nobody awaits them) are replaced first.
        """
        self._reap_dead_workers()
        with self._lock:
            target = min(
                (w for w in self._workers
                 if w.process.is_alive() and not w.escalating),
                key=lambda w: len(w.outstanding),
                default=None,
            )
            if target is None:
                return False
            job_id = job.job_id
            target.outstanding.add(job_id)
            job.dispatched = time.monotonic()
            self._jobs[job_id] = job
            self._note_inflight(target.slot, len(target.outstanding))
        target.send((job_id, job.payload, job.record))
        return True

    def _merge_records(self, job: _Job) -> None:
        """Fold a job's worker records into the active collectors."""
        collectors = telemetry.active_collectors()
        if job.records and job.sender is not None and collectors:
            remote.merge_records(job.records, collectors,
                                 pid=job.sender.process.pid,
                                 slot=job.sender.slot, job=job.job_id)

    def _await(self, job: _Job) -> Any:
        """Block for a dispatched job, supervising while it waits."""
        while not job.event.wait(timeout=0.2):
            self._check_collector()
            self.sweep_workers()
        if job.error is not None:
            raise job.error
        return job.result

    def _payload(self, fn: Callable[..., Any], args: tuple) -> bytes:
        """Start the backend and pickle one task for shipping."""
        if self._closed:
            raise ReproError("process backend is shut down")
        self.start()
        try:
            return pickle.dumps((fn, args))
        except Exception as exc:
            raise ReproError(
                f"task {getattr(fn, '__name__', fn)!r} cannot be shipped "
                f"to a worker process: {exc}; process-backend tasks and "
                f"their arguments must pickle (move array payloads into "
                f"shared memory)"
            ) from exc

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        payload = self._payload(fn, args)
        job = _Job(payload, job_id=self._next_job_id(), kind=_task_kind(fn),
                   record=bool(telemetry.active_collectors()))
        try:
            with telemetry.span("pool/dispatch", job=job.job_id,
                                task=getattr(fn, "__name__", str(fn))):
                if not self._dispatch(job):
                    raise WorkerCrashedError("no live worker processes")
                telemetry.add("pool.shipped_jobs", 1)
                return self._await(job)
        finally:
            self._merge_records(job)

    def broadcast(self, fn: Callable[..., Any], *args: Any) -> list[Any]:
        """Run ``fn(*args)`` once on every live worker; ordered results.

        Used for per-worker introspection (``repro workers``): unlike
        :meth:`call`, which targets the least-loaded worker, this ships
        one job to *each* worker's queue.
        """
        payload = self._payload(fn, args)
        self._reap_dead_workers()
        kind = _task_kind(fn)
        record = bool(telemetry.active_collectors())
        dispatched: list[tuple[_Worker, int, _Job]] = []
        with self._lock:
            for worker in self._workers:
                if not worker.process.is_alive() or worker.escalating:
                    continue
                self._job_seq += 1
                job = _Job(payload, job_id=self._job_seq, kind=kind,
                           record=record)
                worker.outstanding.add(self._job_seq)
                job.dispatched = time.monotonic()
                self._jobs[self._job_seq] = job
                dispatched.append((worker, self._job_seq, job))
        for worker, job_id, _ in dispatched:
            worker.send((job_id, payload, record))
        telemetry.add("pool.shipped_jobs", len(dispatched))
        try:
            return [self._await(job) for _, _, job in dispatched]
        finally:
            for _, _, job in dispatched:
                self._merge_records(job)

    # -- supervision surface ----------------------------------------------

    def set_task_deadline(self, seconds: float | None) -> None:
        """Pin the hang deadline (``None`` disables hang detection).

        A pinned deadline applies to every job and no longer follows
        the measured task times.
        """
        self._pinned_deadline = seconds
        self._deadline_pinned = True

    def supervisor_state(self) -> dict[str, Any]:
        """Parent-side supervision snapshot (pids, silences, counters).

        A worker's ``silent`` is the seconds since it was last heard from
        (since spawn, while booting), reported only while it owes work.
        """
        workers: list[dict[str, Any]] = []
        now = time.monotonic()
        with self._lock:
            for worker in self._workers:
                last = (worker.spawned if worker.heard is None
                        else worker.heard)
                workers.append({
                    "pid": worker.process.pid,
                    "slot": worker.slot,
                    "alive": worker.process.is_alive(),
                    "booting": worker.heard is None,
                    "outstanding": len(worker.outstanding),
                    "silent": (now - last) if worker.outstanding else None,
                })
            deadlines = {kind: self._deadline_for(kind)
                         for kind in self.longest_tasks}
            longest = max(self.longest_tasks.values(), default=None)
        return {
            "backend": self.name,
            "num_workers": self.num_workers,
            # The pin, else the largest deadline any task kind earned.
            "task_deadline": (
                self._pinned_deadline
                if self._deadline_pinned or longest is None
                else measured_deadline(longest)),
            "task_deadlines": deadlines,
            "respawns": self.respawns,
            "redispatches": self.redispatches,
            "hung_workers": self.hung_workers,
            "workers": workers,
        }


# -- worker-side engine execution over shared memory ------------------------
#
# Everything below runs inside the spawned workers.  State persists for
# the worker's lifetime: engines (with their generated kernels and
# scratch workspaces) are cached per construction key, and shared-memory
# attachments are cached per segment name, so steady-state calls do no
# codegen, no allocation and no cross-process copies.

_ENGINE_CACHE: dict = {}
_ATTACH_CACHE: "OrderedDict[str, shm.SharedArray]" = OrderedDict()


def _cached_engine(engine_name: str, spec: Any) -> Any:
    key = (engine_name, spec)
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        from repro.ops.engine import make_engine

        # A miss means codegen + workspace allocation in the hot path --
        # worth a trace record; steady-state hits stay silent.
        telemetry.add("worker.engine_cache_misses")
        engine = make_engine(engine_name, spec)
        _ENGINE_CACHE[key] = engine
    return engine


def _cached_attach(descriptor: shm.ShmDescriptor) -> Any:
    # Arena segments are keyed by their arena-unique role: a descriptor
    # carrying a known role but a *new* segment name means the parent
    # reallocated that role (geometry change) and unlinked the old
    # segment -- close our mapping now instead of pinning the dead
    # segment's pages until the name ages out of the LRU.
    key = descriptor.role or descriptor.name
    seg = _ATTACH_CACHE.get(key)
    if seg is not None:
        if seg.name == descriptor.name:
            _ATTACH_CACHE.move_to_end(key)
            return seg.ndarray
        del _ATTACH_CACHE[key]
        seg.close()
    telemetry.add("worker.attach_cache_misses")
    seg = shm.SharedArray.attach(descriptor)
    _ATTACH_CACHE[key] = seg
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_SIZE:
        _, old = _ATTACH_CACHE.popitem(last=False)
        old.close()
    return seg.ndarray


def run_engine_slice(
    engine_name: str,
    spec: Any,
    method: str,
    primary_desc: shm.ShmDescriptor,
    shared_desc: shm.ShmDescriptor,
    out_desc: shm.ShmDescriptor,
    lo: int,
    hi: int,
    slot: int | None,
    options: tuple[tuple[str, Any], ...] = (),
) -> None:
    """Run one engine method over ``[lo, hi)`` directly in shared memory.

    ``forward`` / ``backward_data`` write their output slice into
    ``out[lo:hi]``; ``backward_weights`` (``slot`` set) slices *both*
    operands and writes its per-worker partial into ``out[slot]``.
    ``options`` are the method's keyword arguments (``backward_data``'s
    ``crop``).  The return value is None on purpose -- results live in
    the segments.
    """
    with telemetry.span(f"worker/{method}", engine=engine_name, lo=lo,
                        hi=hi):
        engine = _cached_engine(engine_name, spec)
        primary = _cached_attach(primary_desc)
        shared = _cached_attach(shared_desc)
        out = _cached_attach(out_desc)
        if slot is not None:
            out[slot] = engine.backward_weights(primary[lo:hi], shared[lo:hi])
        else:
            out[lo:hi] = getattr(engine, method)(primary[lo:hi], shared,
                                                 **dict(options))


# -- worker-side whole-step shards --------------------------------------------
#
# The barrier scheduler's training step is one dispatch: each worker runs
# ``Network.forward`` -> loss gradient -> ``Network.backward`` for its
# image range on an inline *replica* of the network -- fusion and the
# pooled export included -- and only gradients meet in the parent (see
# ``repro.runtime.parallel.ShardedStep``).  The same function runs under
# every backend, and in the parent for shard 0; what differs is how it
# reaches the arrays, and where the layers' own telemetry lands (the
# parent's collectors, or the job's records).

#: What a shard reads or writes: the array itself (in the parent, which
#: every shard under serial and thread and shard 0 under process run in)
#: or the descriptor of the shared-memory segment holding it (a helper
#: process).
ArrayHandle = Union[np.ndarray, shm.ShmDescriptor]

#: One parameter's place in the flat parameter and gradient buffers:
#: byte offset, shape, dtype.
ParamSlot = tuple[int, tuple[int, ...], str]


def _resolve(handle: ArrayHandle) -> np.ndarray:
    if isinstance(handle, shm.ShmDescriptor):
        array: np.ndarray = _cached_attach(handle)
        return array
    return handle


def param_views(flat: np.ndarray,
                layout: tuple[ParamSlot, ...]) -> list[np.ndarray]:
    """Views of the flat byte buffer ``flat`` at the slots of ``layout``."""
    views = []
    for offset, shape, dtype in layout:
        item = np.dtype(dtype)
        end = offset + math.prod(shape) * item.itemsize
        views.append(flat[offset:end].view(item).reshape(shape))
    return views


def blas_threads() -> str:
    """The BLAS thread count this process's environment asks for, or
    ``"1"`` once :func:`pin_caller_blas` pinned it."""
    for var in BLAS_THREAD_ENV:
        value = os.environ.get(var)
        if value:
            return value
    return "1" if _caller_blas else "unset"


#: OpenBLAS's thread-count setter under the names its builds export
#: (numpy's wheels bundle a prefixed, 64-bit-integer ``scipy_openblas``).
_BLAS_SETTERS = ("openblas_set_num_threads",
                 "scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads")

#: Whether :func:`pin_caller_blas` pinned (None: it has not looked yet).
_caller_blas: bool | None = None


def pin_caller_blas() -> None:
    """Run this process's OpenBLAS on one thread, as its helpers do.

    The caller of a process pool computes range 0 beside helpers that
    each run one BLAS thread (:meth:`ProcessBackend._spawn_env`).  Left
    at OpenBLAS's default of a thread per core, the caller oversubscribes
    the cores: a ``cifar10_net`` step at batch 16 took 1.7x as long on
    two.  An explicit environment value wins, as it does for the
    helpers.  Process-wide, once; does nothing where the process loaded
    no OpenBLAS (it is found among the mapped libraries).
    """
    global _caller_blas
    if _caller_blas is not None:
        return
    _caller_blas = False
    if any(os.environ.get(var) for var in BLAS_THREAD_ENV):
        return
    try:
        with open("/proc/self/maps", encoding="ascii",
                  errors="replace") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line})
    except OSError:  # pragma: no cover - no procfs
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter(1)
                _caller_blas = True
                return


@dataclass(frozen=True)
class ShardJob:
    """What one step's shards read and where they write (picklable).

    A shard is a pure function of this and its range: everything that
    varies per step lives in the buffers, so a retried or re-dispatched
    attempt recomputes the identical bytes.
    """

    #: Identifies the sharded step this job belongs to: the replica
    #: cache's key.
    token: str
    #: ``Network.structure()``: the layer chain with the engines deployed
    #: for this step.
    structure: tuple[Any, ...]
    input_shape: tuple[int, ...]
    layout: tuple[ParamSlot, ...]
    #: Images in the whole batch: the denominator of the mean loss.
    batch: int
    #: ``[nbytes]`` uint8, the parameters at the slots of ``layout``.
    params: ArrayHandle
    inputs: ArrayHandle
    labels: ArrayHandle
    #: ``(layer index, whole-batch noise)`` of each stochastic layer.
    noise: tuple[tuple[int, ArrayHandle], ...]
    #: ``[batch, classes]``; a shard writes rows ``[lo, hi)``.
    logits: ArrayHandle
    #: ``[workers, nbytes]`` uint8; shard ``index`` accumulates its
    #: gradient partial in row ``index``, laid out as ``params``.
    grads: ArrayHandle


@dataclass(frozen=True)
class ShardReport:
    """What a shard tells the parent beyond the arrays it wrote."""

    #: ``(layer index, zero elements, elements)`` of the output error
    #: each conv-like layer received.
    zeros: tuple[tuple[int, int, int], ...]
    #: ``(layer index, phase, engine, reason)`` of every engine the
    #: replica's numeric guard replaced by the fallback.
    failures: tuple[tuple[int, str, str, str], ...]


def _identity(handle: ArrayHandle) -> object:
    """What tells two of a step's buffers apart: the segment's name, or
    the array itself (a view keeps it alive, so its id is not reused)."""
    return handle.name if isinstance(handle, shm.ShmDescriptor) else id(handle)


class _Replica:
    """An inline copy of a network's layer chain over one shard's buffers.

    Built over them (:meth:`repro.nn.network.Network.replica`): its
    layers' parameter arrays are views of the job's parameter buffer
    (never copies -- the parent updates it in place between steps),
    their gradient arrays views of the shard's own row of the gradient
    buffer, which the shard zeroes and accumulates in.  No other shard
    writes that row, and no attempt outlives its step, so a retry or
    redispatch of the shard rewrites it alone.  A cached replica serving
    another shard, or reallocated buffers, is rebound.
    """

    def __init__(self, job: ShardJob, index: int) -> None:
        from repro.nn.network import Network

        self.structure = job.structure
        self._layout = job.layout
        self.network: Any = Network.replica(
            job.structure, job.input_shape, *self._views(job, index))
        self._keys = [(layer, layer.param_keys)
                      for layer in self.network.layers if layer.param_keys]
        self._bound: object = (_identity(job.params), _identity(job.grads),
                               index)

    def _views(self, job: ShardJob,
               index: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return (param_views(_resolve(job.params), self._layout),
                param_views(_resolve(job.grads)[index], self._layout))

    def unbind(self) -> None:
        """Let go of the buffers (their segments may be closing)."""
        for layer, keys in self._keys:
            layer.bind_params(dict.fromkeys(keys), dict.fromkeys(keys))
        self._bound = None

    def bind(self, job: ShardJob, index: int) -> None:
        """View ``job``'s buffers as shard ``index`` (cheap when bound)."""
        bound = (_identity(job.params), _identity(job.grads), index)
        if bound == self._bound:
            return
        # Drop the old views first: attaching a reallocated segment
        # closes the stale mapping, which must not have exports left.
        self.unbind()
        params, grads = (iter(views) for views in self._views(job, index))
        for layer, keys in self._keys:
            layer.bind_params({key: next(params) for key in keys},
                              {key: next(grads) for key in keys})
        self._bound = bound


def _run_shard(replica: _Replica, job: ShardJob, index: int, lo: int,
               hi: int) -> ShardReport:
    """The body of :func:`run_step_shard` on a checked-out replica."""
    from repro.nn.layers.conv import ReplicaConvLayer
    from repro.nn.losses import cross_entropy_grad

    replica.bind(job, index)
    network = replica.network
    rows = hi - lo
    # Private copies: layers cache their input across the call, and
    # the buffers are rewritten by the next publish.
    inputs = np.array(_resolve(job.inputs)[lo:hi])
    labels = np.array(_resolve(job.labels)[lo:hi])
    for i, handle in job.noise:
        network.layers[i].preset_noise(np.array(_resolve(handle)[lo:hi]))
    # Per layer, so a dense layer's backward writes its weight gradient
    # fresh instead of clearing it first and adding to the zeros.
    network.zero_grads()
    logits = network.forward(inputs)
    network.backward(cross_entropy_grad(logits, labels, job.batch),
                     need_input_error=False)

    zeros: list[tuple[int, int, int]] = []
    failures: list[tuple[int, str, str, str]] = []
    shapes = network.layer_shapes
    for i, layer in enumerate(network.layers):
        measured = getattr(layer, "last_error_sparsity", None)
        if measured is not None:
            size = rows * math.prod(shapes[i + 1])
            zeros.append((i, round(measured * size), size))
        if isinstance(layer, ReplicaConvLayer):
            for phase, engine, reason in layer.take_failures():
                failures.append((i, phase, engine, reason))
    _resolve(job.logits)[lo:hi] = logits
    return ShardReport(tuple(zeros), tuple(failures))


class ReplicaCache:
    """Built replicas: one free-list per sharded step.

    One replica per *concurrent shard*: a shard checks a replica out and
    back in, and the list grows to the number of shards a step runs at
    once (the thread backend runs them all in one process) -- replicas
    hold cached activations that two shards must never share.  Any free
    replica serves any shard: it is rebound to the shard's gradient row
    (:meth:`_Replica.bind`).  A step whose structure changed (an engine
    was redeployed or quarantined) drops the stale replicas.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[str, tuple[tuple[Any, ...], list[_Replica]]] = {}

    def __len__(self) -> int:
        with self._lock:
            return sum(len(free) for _, free in self._free.values())

    def checkout(self, job: ShardJob, index: int) -> _Replica:
        stale: list[_Replica] = []
        with self._lock:
            entry = self._free.get(job.token)
            if entry is not None and entry[0] == job.structure:
                if entry[1]:
                    return entry[1].pop()
            else:
                if entry is not None:
                    stale = entry[1]
                self._free[job.token] = (job.structure, [])
        for replica in stale:
            replica.unbind()
        # A miss means layer construction (engines, generated kernels,
        # workspaces) in the hot path -- worth a trace record.
        telemetry.add("worker.replica_builds")
        return _Replica(job, index)

    def checkin(self, job: ShardJob, replica: _Replica) -> None:
        with self._lock:
            entry = self._free.get(job.token)
            if entry is not None and entry[0] == replica.structure:
                entry[1].append(replica)
                return
        replica.unbind()

    def discard(self, token: str) -> None:
        """Drop the replicas of one sharded step (it was released)."""
        with self._lock:
            entry = self._free.pop(token, None)
        for replica in entry[1] if entry is not None else ():
            replica.unbind()


#: The replicas of a spawned worker process (in-process backends pass
#: the cache their ``ShardedStep`` owns instead).
_WORKER_REPLICAS = ReplicaCache()


def run_step_shard(job: ShardJob, index: int, lo: int, hi: int,
                   replicas: ReplicaCache | None = None) -> ShardReport:
    """One whole-network FP + loss gradient + BP over images ``[lo, hi)``.

    Writes the logits rows into ``job.logits[lo:hi]`` and accumulates
    the flat gradient partial in ``job.grads[index]``, which the
    replica's gradient arrays view; returns the small rest.
    """
    cache = replicas if replicas is not None else _WORKER_REPLICAS
    with telemetry.span("worker/step_shard", shard=index, lo=lo, hi=hi,
                        blas=blas_threads(), malloc=pin_malloc_thresholds()):
        replica = cache.checkout(job, index)
        try:
            return _run_shard(replica, job, index, lo, hi)
        finally:
            cache.checkin(job, replica)


def worker_diagnostics() -> dict[str, Any]:
    """Worker-side cache/identity info (shipped back for tests)."""
    return {
        "pid": os.getpid(),
        "engines_cached": len(_ENGINE_CACHE),
        "segments_attached": len(_ATTACH_CACHE),
        "replicas_cached": len(_WORKER_REPLICAS),
        "numpy_random_loaded": "numpy.random" in sys.modules,
        "blas_threads": blas_threads(),
        "malloc_thresholds": pin_malloc_thresholds(),
        "executable": sys.executable,
    }
