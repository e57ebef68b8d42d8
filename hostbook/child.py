"""One repetition of one workload, run inside a fresh child process.

The driver (``run.py``) starts this through ``run.py --child``; emitted
kernel caches, the default quarantine registry and ``ru_maxrss`` are
process-global, so sharing a process would let one workload warm
another.  The only instrumentation in an untraced run is the step
recorder: two ``perf_counter`` reads around ``SGDTrainer.step``.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import threading
import time
from pathlib import Path
from time import perf_counter

from spec import WORKLOADS, Workload

_TICK = os.sysconf("SC_CLK_TCK")
_REPLAY_STEPS = 8
_INLINE_RTOL = 1e-5
_SURVIVOR_GRACE_S = 2.0


# -- /proc sampling -----------------------------------------------------------

def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``: the pool's worker processes.

    multiprocessing's resource tracker is also a child; it serves the
    interpreter, lives until its parent exits, and is not a worker.
    """
    pids: list[int] = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            for child in path.read_text().split():
                cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
                if b"resource_tracker" not in cmdline:
                    pids.append(int(child))
        except OSError:
            continue
    return pids


def cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of one process from ``/proc/<pid>/stat``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def vm_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# -- the step recorder ----------------------------------------------------------

class StepRecorder:
    """Observes step boundaries through a wrapper on ``SGDTrainer.step``."""

    def __init__(self, warm: int, timed: int, tracer=None, host=None):
        #: A ``probes.HostSampler`` read at both ends of the timed region,
        #: so every repetition carries its own reading of the host.
        self.host = host
        self.warm = warm
        self.last = warm + timed
        self.rows: list[tuple[float, float, float, bool]] = []
        #: In a traced repetition the tracer is on through set-up and
        #: warm-up and for every other timed step (each with the stretch
        #: of loop before it); the steps between run untraced, so their
        #: neighbours' extra time is the tracer's cost and not the host's
        #: drift, which moves step times by 10% within seconds here.
        self.tracer = tracer
        self.traced_rows: list[int] = []
        self.ready: dict | None = None
        self.done: dict | None = None
        self.quarantine_at: int | None = None
        self._undo: list = []

    def _snapshot(self) -> dict:
        workers = child_pids(os.getpid())
        return {
            "cpu_self": self_cpu_seconds(),
            "cpu_workers": sum(cpu_seconds(p) for p in workers),
            "workers": len(workers),
            "rss_self_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rss_workers_mb": sum(vm_hwm_mb(p) for p in workers),
        }

    def install(self) -> None:
        from repro.nn.sgd import SGDTrainer
        from repro.resilience.quarantine import QuarantineRegistry

        rows, warm, last = self.rows, self.warm, self.last
        tracer, traced_rows = self.tracer, self.traced_rows
        orig_step = SGDTrainer.step

        def step(trainer, inputs, labels):
            if tracer is not None and tracer.enabled:
                traced_rows.append(len(rows))
            t0 = perf_counter()
            result = orig_step(trainer, inputs, labels)
            rows.append((t0, perf_counter(), result.loss, result.skipped))
            n = len(rows)
            if tracer is not None:
                tracer.enabled = not warm <= n < last or (n - warm) % 2 == 0
            if n == warm:
                # Set-up ends here; the host burst and the snapshot come
                # before the timed wall starts, so they are in neither.
                mono = time.monotonic()
                if self.host is not None:
                    self.host.sample()
                self.ready = self._snapshot()
                self.ready["mono"] = mono
                self.ready["pc"] = perf_counter()
            elif n == last:
                self.done = self._snapshot()
                if self.host is not None:
                    self.host.sample()
            return result

        orig_quarantine = QuarantineRegistry.quarantine

        def quarantine(registry, *args, **kwargs):
            if self.quarantine_at is None:
                self.quarantine_at = len(rows)
            return orig_quarantine(registry, *args, **kwargs)

        SGDTrainer.step = step
        QuarantineRegistry.quarantine = quarantine
        self._undo = [(SGDTrainer, "step", orig_step),
                      (QuarantineRegistry, "quarantine", orig_quarantine)]

    def uninstall(self) -> None:
        while self._undo:
            cls, attr, orig = self._undo.pop()
            setattr(cls, attr, orig)


def inject_pool_sleep(ms: float) -> None:
    """Selftest hook: slow every max-pool forward by ``ms``.

    A known slowdown planted from the benchmark side, so ``--selftest``
    can show the book and ``--compare`` detect it.
    """
    from repro.nn.layers.pool import MaxPoolLayer

    orig = MaxPoolLayer.forward
    seconds = ms / 1e3

    def forward(layer, inputs, training=True):
        time.sleep(seconds)
        return orig(layer, inputs, training=training)

    MaxPoolLayer.forward = forward


# -- building and running the workloads ---------------------------------------

def _build(w: Workload, seed: int, scale: float, threads, backend):
    import numpy as np

    from repro.data.synthetic import cifar10_like, mnist_like
    from repro.nn.zoo import cifar10_net, mnist_net

    rng = np.random.default_rng(seed)
    kwargs = dict(scale=scale, rng=rng, threads=threads, backend=backend)
    if w.net == "cifar":
        return cifar10_net(**kwargs), cifar10_like(w.samples, seed=seed)
    return mnist_net(**kwargs), mnist_like(w.samples, seed=seed)


def _close(network) -> None:
    for layer in network.conv_layers():
        layer.close()


def cli_argv(w: Workload, scale: float, epochs: int) -> list[str]:
    return ["train", "--net", w.net, "--scale", str(scale),
            "--batch", str(w.batch), "--samples", str(w.samples),
            "--epochs", str(epochs), "--recheck", "1", "--threads", "1",
            "--format", "json"]


def _train(w: Workload, job: dict) -> dict:
    """Run the training job; returns what the run itself reported."""
    per_epoch = math.ceil(w.samples / w.batch)
    epochs = math.ceil((job["warm"] + job["timed"]) / per_epoch)
    if w.via_cli:
        from repro import cli

        out = io.StringIO()
        code = cli.main(cli_argv(w, job["scale"], epochs), out=out)
        report = json.loads(out.getvalue())
        return {"exit_code": code,
                "epoch_losses": [e["train_loss"] for e in report["epochs"]],
                "retunes": report["retunes"],
                "skipped_batches": sum(e["skipped_batches"]
                                       for e in report["epochs"])}
    from repro.nn.training_loop import TrainingLoop

    network, data = _build(w, job["seed"], job["scale"], w.threads, w.backend)
    try:
        loop = TrainingLoop(network, data, batch_size=w.batch,
                            shuffle_seed=job["seed"])
        loop.run(epochs)
    finally:
        _close(network)
    return {}


# -- checks, outside the timed region -------------------------------------------

def _conv_specs(w: Workload, scale: float):
    network, _ = _build(w, 0, scale, None, "thread")
    return [layer.padded_spec for layer in network.conv_layers()]


def check_engines(w: Workload, scale: float) -> list[str]:
    """Every registered engine against the float64 oracle."""
    import numpy as np

    import oracle
    from repro.ops.engine import engine_names, make_engine

    failures = []
    rng = np.random.default_rng(1234)
    for spec in _conv_specs(w, scale):
        x = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
        wts = (rng.standard_normal(spec.weight_shape) * 0.1).astype(np.float32)
        eo = rng.standard_normal((2,) + spec.output_shape).astype(np.float32)
        eo[rng.random(eo.shape) < 0.85] = 0.0
        want = {
            "forward": oracle.forward(x, wts, spec.sy, spec.sx),
            "backward_data": oracle.backward_data(
                eo, wts, spec.input_shape, spec.sy, spec.sx),
            "backward_weights": oracle.backward_weights(
                eo, x, spec.fy, spec.fx, spec.sy, spec.sx),
        }
        args = {"forward": (x, wts), "backward_data": (eo, wts),
                "backward_weights": (eo, x)}
        for name in engine_names():
            engine = make_engine(name, spec)
            for method, operands in args.items():
                got = getattr(engine, method)(*operands)
                if not oracle.close(got, want[method]):
                    failures.append(f"{name}.{method} on {spec}")
    return failures


def _replay_losses(w: Workload, seed: int, scale: float, steps: int,
                   threads, backend: str) -> tuple[list[float], list[float]]:
    """(step losses, epoch mean losses) of an untuned in-process replay."""
    from repro.nn.training_loop import TrainingLoop

    network, data = _build(w, seed, scale, threads, backend)
    try:
        loop = TrainingLoop(network, data, batch_size=w.batch,
                            shuffle_seed=seed, preflight=False)
        losses: list[float] = []
        loop.add_batch_hook(lambda _e, _i, result: losses.append(result.loss))
        per_epoch = math.ceil(w.samples / w.batch)
        history = loop.run(math.ceil(steps / per_epoch))
    finally:
        _close(network)
    return losses[:steps], history.loss_curve()


def check_losses(w: Workload, job: dict, losses: list[float],
                 run_report: dict) -> list[str]:
    failures = []
    if not all(math.isfinite(x) for x in losses):
        failures.append("non-finite step loss")
    if w.via_cli:
        # The CLI fixes its own seed (0); epoch 1 is post-optimize,
        # epoch 2 post-retune -- both must track the untuned engines.
        _, want = _replay_losses(w, 0, job["scale"],
                                 2 * (w.samples // w.batch), None, "thread")
        for epoch, (got, ref) in enumerate(
                zip(run_report["epoch_losses"], want), start=1):
            if abs(got - ref) > 0.01 * abs(ref):
                failures.append(
                    f"epoch {epoch} loss {got!r} not within 1% of untuned "
                    f"replay {ref!r}")
    elif w.threads:
        # Bitwise against the same batch partition run inline (the
        # serial backend).  Against cifar_inline itself -- one GEMM over
        # the whole batch, another summation order -- the losses agree
        # bitwise at seed 0 only and to 1 ulp elsewhere (measured, seeds
        # 0-4), so that comparison is held to _INLINE_RTOL.
        steps = min(_REPLAY_STEPS, len(losses))
        same_split, _ = _replay_losses(w, job["seed"], job["scale"], steps,
                                       w.threads, "serial")
        if losses[:steps] != same_split:
            failures.append(f"first {steps} losses differ bitwise from the "
                            f"serial backend on the same {w.threads}-way split")
        inline, _ = _replay_losses(w, job["seed"], job["scale"], steps,
                                   None, "thread")
        if any(abs(a - b) > _INLINE_RTOL * abs(b)
               for a, b in zip(losses, inline)):
            failures.append(f"first {steps} losses not within "
                            f"{_INLINE_RTOL} of the inline run")
    return failures


def check_hygiene() -> dict:
    """After teardown: nothing quarantined, no shm, no live children."""
    from repro.resilience.quarantine import default_registry
    from repro.runtime import shm

    deadline = time.monotonic() + _SURVIVOR_GRACE_S
    survivors = child_pids(os.getpid())
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = child_pids(os.getpid())
    mine = f"{shm.SEGMENT_PREFIX}{os.getpid():x}-"
    return {
        "quarantined": [f"{r.layer}/{r.phase}/{r.engine}: {r.reason}"
                        for r in default_registry().records()],
        "shm_leaked": [name for name in shm.host_segments()
                       if name.startswith(mine)],
        "orphan_procs": survivors,
    }


# -- entry ---------------------------------------------------------------------

def run_repetition(job: dict) -> dict:
    """Run one repetition described by ``job``; returns its raw record."""
    # ``mono`` stamps are comparable with the driver's spawn stamp
    # (CLOCK_MONOTONIC is system-wide); ``pc`` stamps with the steps'.
    stamps = {"enter_mono": time.monotonic(), "enter_pc": perf_counter()}
    import numpy  # noqa: F401  (after the driver pinned BLAS in our env)

    import repro.cli  # noqa: F401  (the full import cost a user pays)
    stamps["imported_pc"] = perf_counter()

    w = WORKLOADS[job["workload"]]
    if job.get("pool_sleep_ms"):
        # Innermost: the planted delay must land inside the pool's span.
        inject_pool_sleep(job["pool_sleep_ms"])
    tracer = None
    if job["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # Outermost, so its two clock reads bracket the tracer's step span
    # and a traced step's duration carries the tracer's whole overhead.
    from probes import HostSampler

    host = HostSampler(stream=False)
    recorder = StepRecorder(job["warm"], job["timed"], tracer, host)
    recorder.install()

    raised = None
    run_report: dict = {}
    try:
        run_report = _train(w, job)
    except Exception as error:  # noqa: BLE001 -- a failed run is a result
        raised = f"{type(error).__name__}: {error}"
    recorder.uninstall()
    if tracer is not None:
        tracer.uninstall()

    rows, ready, done = recorder.rows, recorder.ready, recorder.done
    record: dict = {
        "workload": w.name, "seed": job["seed"], "traced": job["traced"],
        "warm": job["warm"], "timed": job["timed"],
        "attempted": job["timed"], "raised": raised,
        "completed": max(0, min(len(rows), recorder.last) - job["warm"]),
        "losses": [float(r[2]) for r in rows[:recorder.last]],
        "skipped": sum(1 for r in rows[job["warm"]:recorder.last] if r[3]),
        "quarantine_at": recorder.quarantine_at,
        "run_report": run_report,
        "stamps": stamps,
        "pid": os.getpid(),
    }
    if rows:
        stamps["first_step_pc"] = rows[0][0]
    if ready is not None:
        stamps["ready_mono"] = ready["mono"]
        stamps["warm_end_pc"] = rows[job["warm"] - 1][1]
    if ready is not None and done is not None:
        ends = [ready["pc"]] + [r[1] for r in rows[job["warm"]:recorder.last]]
        record.update(
            wall_s=ends[-1] - ends[0],
            intervals_ms=[(b - a) * 1e3 for a, b in zip(ends, ends[1:])],
            step_ms=[(r[1] - r[0]) * 1e3
                     for r in rows[job["warm"]:recorder.last]],
            cpu_self_s=done["cpu_self"] - ready["cpu_self"],
            cpu_workers_s=done["cpu_workers"] - ready["cpu_workers"],
            workers=done["workers"],
            rss_self_mb=done["rss_self_mb"],
            rss_workers_mb=done["rss_workers_mb"],
            host=host.metrics(),
        )
    record["hygiene"] = check_hygiene()
    if tracer is not None and "wall_s" in record:
        from tracer import attribute

        spans = tracer.export()
        record["spans"] = spans
        record["traced_rows"] = recorder.traced_rows
        record["trace"] = attribute(spans, threading.get_ident(), rows,
                                    recorder.traced_rows, job["warm"],
                                    recorder.last)
    if job.get("check") and raised is None:
        failures = check_engines(w, job["scale"])
        failures += check_losses(w, job, record["losses"], run_report)
        record["check_failures"] = failures
    return record
