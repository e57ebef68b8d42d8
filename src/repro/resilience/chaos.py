"""The chaos harness: train a small real network under a fault plan.

``run_chaos`` drives a short MNIST-scale training job with a named
:class:`~repro.resilience.faults.FaultPlan` active and the resilient
execution policy applied, then reports whether the job *survived*
(completed all epochs), whether its loss still *improved*, and which
faults actually fired.  With ``check_resume`` it additionally replays
the same job stopped after ``epochs - 1`` epochs and resumes it with
``resume_latest()`` from the directory the stopped run left, asserting
the resumed run's parameters are bit-identical to the uninterrupted
run's.

The resume comparison relies on two properties of the stack:

* retries and straggler reassignment are numerics-neutral (tasks are
  pure and idempotent), so a faulted epoch still produces the exact
  bytes a fault-free scheduler ordering would; and
* the named plans fire all their ``at`` faults early (first epoch of
  the default geometry), so the epoch trained *after* the resume point
  is fault-free in both the uninterrupted and the resumed run --
  invocation counters reset on resume, which would otherwise replay
  first-epoch faults into the final epoch.

Besides the injection plans, two **real-kill** plans
(:data:`repro.resilience.faults.REAL_KILL_PLANS`) strike live worker
processes with actual signals mid-step -- ``kill9`` sends SIGKILL,
``hang`` sends SIGSTOP and relies on the process backend's hang deadline
to escalate -- then assert the run survived, its final weights are
bit-identical to an unfaulted serial run, and no ``/dev/shm`` segment
leaked.  Their resume leg goes further: a child process trains with a
batch journal armed and is SIGKILL'd *mid-epoch*; the parent reaps the
orphaned segments with the shm janitor and resumes from the journal,
asserting bit-identity again.

This module imports the training stack, so it lives outside
``repro.resilience.__init__`` to keep the resilience primitives
importable from low-level runtime modules without cycles.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.nn.serialize import state_position
from repro.nn.training_loop import TrainingHistory, TrainingLoop
from repro.obs.monitor import TrainingMonitor
from repro.resilience import faults
from repro.resilience.policy import RetryPolicy, apply_policy
from repro.resilience.quarantine import default_registry
from repro.runtime import shm
from repro.runtime.backends import ProcessBackend

#: Counters the report surfaces (when present in the collected run).
REPORT_COUNTERS = (
    "faults.injected",
    "pool.retries",
    "pool.stragglers",
    "pool.timeouts",
    "pool.task_failures",
    "pool.worker_crashes",
    "supervisor.hung_workers",
    "supervisor.respawns",
    "supervisor.redispatches",
    "shm.reaped_segments",
    "engine.fallbacks",
    "quarantine.engines",
    "sgd.skipped_batches",
    "train.checkpoints",
    "train.journal_writes",
)

#: Re-exported for the CLI: chaos accepts these on top of plan_names().
REAL_KILL_PLANS = faults.REAL_KILL_PLANS


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    plan: str
    seed: int
    epochs: int
    survived: bool
    improved: bool
    final_loss: float
    skipped_batches: int
    injections: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    error: str = ""
    resume_checked: bool = False
    resume_identical: bool = False
    #: Real-kill plans only: final weights vs the unfaulted serial run
    #: (None when the plan does not check bit-identity).
    bit_identical: bool | None = None
    #: Real-kill plans only: our /dev/shm segments that survived the run.
    leaked_segments: list[str] = field(default_factory=list)
    #: The attached :class:`~repro.obs.monitor.TrainingMonitor` report
    #: of the main run (per-layer time, goodput, drift, retunes).
    monitor_report: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        """The CI gate: survived, still learning, resume held (if run)."""
        if not (self.survived and self.improved):
            return False
        if self.bit_identical is False or self.leaked_segments:
            return False
        return self.resume_identical if self.resume_checked else True

    def lines(self) -> list[str]:
        """A human-readable summary, one line per fact."""
        out = [
            f"chaos plan: {self.plan} (seed {self.seed}, "
            f"{self.epochs} epochs)",
            f"survived:  {self.survived}"
            + (f" ({self.error})" if self.error else ""),
            f"improved:  {self.improved} "
            f"(final train loss {self.final_loss:.4f})",
            f"skipped batches: {self.skipped_batches}",
        ]
        for name in REPORT_COUNTERS:
            if name in self.counters:
                out.append(f"  {name}: {int(self.counters[name])}")
        if self.injections:
            out.append("faults fired:")
            out.extend(f"  {line}" for line in self.injections)
        else:
            out.append("faults fired: none")
        if self.bit_identical is not None:
            out.append(f"weights bit-identical to serial: "
                       f"{self.bit_identical}")
        if self.leaked_segments:
            out.append(f"leaked shm segments: {self.leaked_segments}")
        if self.resume_checked:
            out.append(f"kill/resume bit-identical: {self.resume_identical}")
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot (the chaos CLI's ``--out`` artifact)."""
        return {
            "plan": self.plan,
            "seed": self.seed,
            "epochs": self.epochs,
            "ok": self.ok,
            "survived": self.survived,
            "improved": self.improved,
            "final_loss": self.final_loss,
            "skipped_batches": self.skipped_batches,
            "injections": list(self.injections),
            "counters": dict(self.counters),
            "error": self.error,
            "resume_checked": self.resume_checked,
            "resume_identical": self.resume_identical,
            "bit_identical": self.bit_identical,
            "leaked_segments": list(self.leaked_segments),
            "monitor": self.monitor_report,
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the report as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def _params_bytes(network) -> bytes:
    """All parameters concatenated -- the bit-identity fingerprint."""
    return b"".join(
        np.ascontiguousarray(param).tobytes()
        for _, param, _ in network.parameters()
    )


def _build_job(seed: int, samples: int, threads: int, batch: int,
               checkpoint_dir: str | Path | None,
               backend: str = "thread",
               scheduler: str = "barrier") -> TrainingLoop:
    """A fresh, deterministic training job (network + data + loop)."""
    from repro.data.synthetic import mnist_like
    from repro.nn.zoo import mnist_net

    network = mnist_net(
        scale=0.25,
        rng=np.random.default_rng(seed),
        threads=threads if threads and threads > 1 else None,
        backend=backend,
    )
    data = mnist_like(samples, seed=seed)
    return TrainingLoop(
        network,
        data,
        batch_size=batch,
        shuffle_seed=seed,
        checkpoint_dir=checkpoint_dir,
        scheduler=scheduler,
    )


def _close(loop: TrainingLoop) -> None:
    for layer in loop.network.conv_layers():
        layer.close()


def _run_segment(loop: TrainingLoop, epochs: int,
                 plan: faults.FaultPlan | None,
                 policy: RetryPolicy) -> TrainingHistory:
    """Run ``loop`` to ``epochs`` total epochs under plan + policy."""
    default_registry().clear()
    if plan is None:
        with apply_policy(policy):
            return loop.run(epochs)
    with faults.inject(plan), apply_policy(policy):
        return loop.run(epochs)


def default_policy() -> RetryPolicy:
    """The retry/timeout policy the chaos CLI trains under."""
    return RetryPolicy(max_retries=2, backoff_base=0.01, timeout=0.25,
                       max_stragglers=1)


def kill_chaos_policy() -> RetryPolicy:
    """The policy for the real-kill plans.

    No per-attempt deadline: hang recovery belongs to the process
    backend's hang deadline (a Python-side timeout would race it and double
    the work on a loaded host), while crash recovery gets generous retry
    and redispatch budgets.
    """
    return RetryPolicy(max_retries=3, backoff_base=0.01, timeout=None,
                       max_redispatches=2)


# -- real-kill plans (kill9 / hang) ------------------------------------------


def _process_backends(network) -> list[ProcessBackend]:
    """The live :class:`ProcessBackend` of each distinct conv-layer pool
    (one, for a network :func:`build_network` made)."""
    backends: list[ProcessBackend] = []
    for layer in network.conv_layers():
        pool = getattr(layer, "_pool", None)
        backend = pool.backend if pool is not None else None
        if isinstance(backend, ProcessBackend) and backend not in backends:
            backends.append(backend)
    return backends


#: Hang deadline pinned by the ``hang`` plan: short enough that a
#: SIGSTOP'd worker is escalated within the test budget, long enough
#: that a healthy small-batch task never trips it.
HANG_PLAN_DEADLINE = 1.5

#: Delay before the mid-step strike fired from a timer thread.
_MIDSTEP_DELAY = 0.05


def run_journal_job(seed: int, samples: int, threads: int, batch: int,
                    checkpoint_dir: str, epochs: int,
                    backend: str = "process",
                    scheduler: str = "barrier") -> None:
    """Child-process entry of the journal kill/resume leg.

    Runs the standard chaos job with a batch journal written after
    *every* batch; the parent SIGKILLs this process mid-epoch and then
    resumes from the journal it left behind.
    """
    loop = _build_job(seed, samples, threads, batch, checkpoint_dir,
                      backend, scheduler)
    loop.journal_every = 1
    try:
        loop.run(epochs)
    finally:
        _close(loop)


def _check_journal_resume(seed: int, samples: int, threads: int, batch: int,
                          epochs: int, scheduler: str, ref_bytes: bytes,
                          policy: RetryPolicy) -> bool:
    """SIGKILL a journaling child mid-epoch; resume; compare weights.

    The child is a whole training process (process backend), so the kill
    also orphans its ``/dev/shm`` segments -- the janitor must reclaim
    them before the resumed run is considered clean.
    """
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-journal-") as tmp:
        child = ctx.Process(
            target=run_journal_job,
            args=(seed, samples, threads, batch, tmp, epochs,
                  "process", scheduler),
        )
        child.start()
        journal = Path(tmp) / "journal.npz"
        # Strike as soon as the journal shows the final epoch underway:
        # the kill then lands mid-epoch with batches still remaining.
        deadline = time.monotonic() + 300.0
        while child.is_alive() and time.monotonic() < deadline:
            position = state_position(journal)
            if position is not None and position[0] >= epochs:
                break
            time.sleep(0.02)
        if child.is_alive() and child.pid is not None:
            os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30.0)
        # The child's workers exit on their own (request pipe EOF);
        # give them a moment, then reap the orphaned segments the
        # SIGKILL'd owner could never unlink.
        time.sleep(0.5)
        shm.reap_orphans()
        # Resume in this process from whatever the journal pinned.
        # The serial backend is bit-identical to the process backend
        # under the same scheduler, and much cheaper for the replay.
        resumed = _build_job(seed, samples, threads, batch, tmp,
                             "serial", scheduler)
        with apply_policy(policy):
            resumed.resume_latest()
            resumed.run(epochs)
        _close(resumed)
        return _params_bytes(resumed.network) == ref_bytes


def _run_real_kill(report: ChaosReport, plan_name: str, seed: int,
                   epochs: int, batch: int, samples: int, threads: int,
                   scheduler: str, check_resume: bool,
                   policy: RetryPolicy) -> ChaosReport:
    """Drive the ``kill9`` / ``hang`` plan and fill in ``report``."""
    sig = signal.SIGKILL if plan_name == "kill9" else signal.SIGSTOP

    # Unfaulted serial reference: same worker count, so the partition
    # geometry (and hence the fixed gradient reduction order) is
    # identical, and same scheduler -- the barrier step shards the whole
    # network, the dag slices each conv layer, and the two sum the dense
    # layers' products over different row sets.
    reference = _build_job(seed, samples, threads, batch, None,
                           "serial", scheduler)
    ref_history = reference.run(epochs)
    ref_bytes = _params_bytes(reference.network)
    _close(reference)

    pre_existing = set(shm.host_segments())
    loop = _build_job(seed, samples, threads, batch, None,
                      "process", scheduler)
    monitor = TrainingMonitor()
    monitor.attach(loop)
    strikes: list[str] = []
    struck_pids: list[int] = []
    timers: list[threading.Timer] = []

    def _signal_worker(backend: ProcessBackend, when: str,
                       epoch: int, index: int) -> None:
        pids = backend.worker_pids()
        if not pids:  # pragma: no cover - all workers already down
            return
        try:
            os.kill(pids[0], sig)
        except OSError:  # pragma: no cover - worker exited under us
            return
        struck_pids.append(pids[0])
        strikes.append(
            f"{plan_name} SIG{'KILL' if sig == signal.SIGKILL else 'STOP'} "
            f"pid {pids[0]} {when} @ epoch {epoch} batch {index}"
        )

    def strike(epoch: int, index: int, result) -> None:
        # Two strikes: between steps early in epoch 1, and mid-step at
        # the top of epoch 2 (a timer fires while the next batch's
        # tasks are in flight).
        if (epoch, index) not in ((1, 1), (2, 0)):
            return
        backends = _process_backends(loop.network)
        if not backends:  # pragma: no cover - layers not on process yet
            return
        if plan_name == "hang":
            # SIGSTOP leaves the worker "alive"; only the hang deadline
            # unblocks it.  Pin a short one (and a short kill
            # grace) so escalation happens inside the test budget.
            for backend in backends:
                backend.set_task_deadline(HANG_PLAN_DEADLINE)
                backend.escalate_grace = 0.5
        target = backends[index % len(backends)]
        if (epoch, index) == (1, 1):
            _signal_worker(target, "between-steps", epoch, index)
        else:
            timer = threading.Timer(
                _MIDSTEP_DELAY, _signal_worker,
                args=(target, "mid-step", epoch, index),
            )
            timer.start()
            timers.append(timer)

    loop.add_batch_hook(strike)
    try:
        with telemetry.collect(monitor.collector) as collector:
            with apply_policy(policy):
                default_registry().clear()
                history = loop.run(epochs)
                # The mid-step strike can land in the run's final
                # moments: the victim may not be reaped (and the crash
                # counted) until after loop.run returns.  Join the
                # strike timers and sweep until every SIGKILL'd pid is
                # gone, so the counter snapshot below is deterministic.
                for timer in timers:
                    timer.join(timeout=5.0)
                if sig == signal.SIGKILL and struck_pids:
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        backends = _process_backends(loop.network)
                        for backend in backends:
                            backend.sweep_workers()
                        live = {pid for b in backends
                                for pid in b.worker_pids()}
                        if not live.intersection(struck_pids):
                            break
                        time.sleep(0.02)  # pragma: no cover - SIGKILL lag
    except Exception as exc:  # noqa: BLE001 - survival is the result
        report.error = f"{type(exc).__name__}: {exc}"
        _close(loop)
        shm.reap_orphans()
        return report
    finally:
        for timer in timers:
            timer.join(timeout=5.0)
        report.counters = {
            name: value
            for name, value in collector.counters.items()
            if name in REPORT_COUNTERS
        }
        report.injections = list(strikes)
        report.monitor_report = monitor.report().to_dict()
    _close(loop)
    report.survived = True
    report.improved = history.improved()
    report.final_loss = history.final.train_loss
    report.skipped_batches = sum(e.skipped_batches for e in history.epochs)
    report.bit_identical = (
        _params_bytes(loop.network) == ref_bytes
        and history.loss_curve() == ref_history.loss_curve()
    )
    leaked = list(shm.owned_segments())
    leaked += sorted(set(shm.host_segments()) - pre_existing)
    report.leaked_segments = sorted(set(leaked))

    if check_resume and epochs >= 2:
        report.resume_checked = True
        report.resume_identical = _check_journal_resume(
            seed, samples, threads, batch, epochs, scheduler,
            ref_bytes, policy,
        )
    return report


def run_chaos(
    plan_name: str = "smoke",
    seed: int = 0,
    epochs: int = 3,
    batch: int = 8,
    samples: int = 48,
    threads: int = 2,
    backend: str = "thread",
    scheduler: str = "barrier",
    check_resume: bool = False,
    checkpoint_dir: str | Path | None = None,
    policy: RetryPolicy | None = None,
) -> ChaosReport:
    """Train under a named fault plan and report survival.

    The job itself is fixed (quarter-scale MNIST net, synthetic data)
    so a plan + seed is fully reproducible; ``check_resume`` replays it
    stopped after ``epochs - 1`` epochs and resumes the directory it
    left, comparing final parameter bytes against the uninterrupted run.

    The real-kill plans (``kill9``, ``hang``) ignore ``backend`` (they
    require the process backend -- real signals need real processes) and
    route ``check_resume`` through the mid-epoch batch journal instead
    of the epoch checkpoint.
    """
    if plan_name in REAL_KILL_PLANS:
        report = ChaosReport(plan=plan_name, seed=seed, epochs=epochs,
                             survived=False, improved=False,
                             final_loss=float("nan"), skipped_batches=0)
        return _run_real_kill(report, plan_name, seed, epochs, batch,
                              samples, threads, scheduler, check_resume,
                              policy or kill_chaos_policy())

    plan = faults.get_plan(plan_name, seed)
    policy = policy or default_policy()
    report = ChaosReport(plan=plan_name, seed=seed, epochs=epochs,
                         survived=False, improved=False,
                         final_loss=float("nan"), skipped_batches=0)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp_dir = Path(tmp)
        ckpt_a = Path(checkpoint_dir) if checkpoint_dir else tmp_dir / "a"
        loop = _build_job(seed, samples, threads, batch, ckpt_a, backend,
                          scheduler)
        injector = faults.FaultInjector(plan)
        # The monitor shares the chaos collector: its hooks watch the
        # main run, and its final report rides along on the ChaosReport.
        monitor = TrainingMonitor()
        monitor.attach(loop)
        try:
            with telemetry.collect(monitor.collector) as collector:
                with faults.inject(injector), apply_policy(policy):
                    default_registry().clear()
                    history = loop.run(epochs)
        except Exception as exc:  # noqa: BLE001 - survival is the result
            report.error = f"{type(exc).__name__}: {exc}"
            _close(loop)
            return report
        finally:
            report.counters = {
                name: value
                for name, value in collector.counters.items()
                if name in REPORT_COUNTERS
            }
            report.injections = [
                f"{inj.site} {inj.kind} @ invocation {inj.invocation}"
                for inj in injector.fired()
            ]
            report.monitor_report = monitor.report().to_dict()
        _close(loop)
        report.survived = True
        report.improved = history.improved()
        report.final_loss = history.final.train_loss
        report.skipped_batches = sum(e.skipped_batches for e in history.epochs)
        final_bytes = _params_bytes(loop.network)
        final_losses = history.loss_curve()

        if check_resume and epochs >= 2:
            report.resume_checked = True
            # The "killed" run: same job, same faults, stopped one epoch
            # short of the full run.
            killed = _build_job(seed, samples, threads, batch, tmp_dir / "b",
                                backend, scheduler)
            _run_segment(killed, epochs - 1, plan, policy)
            _close(killed)
            # The resumed run: a fresh process would rebuild the job from
            # scratch, so we do too -- then resume and finish.  No fault
            # plan: the named plans are spent before the resume point,
            # and re-activating one would replay first-epoch faults.
            resumed = _build_job(seed, samples, threads, batch, tmp_dir / "b",
                                 backend, scheduler)
            resumed.resume_latest()
            resumed_history = _run_segment(resumed, epochs, None, policy)
            _close(resumed)
            report.resume_identical = (
                _params_bytes(resumed.network) == final_bytes
                and resumed_history.loss_curve() == final_losses
            )
    return report
