"""The host book's fixed vocabulary: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root carries the same names (its format
admits only name/unit/better/bound); the ``layer`` and ``moves`` columns
kept here are what ``hostbook/README.md`` tabulates, and ``--selftest``
checks the two stay in step.  Stdlib only: the driver process imports
this before numpy so the BLAS pins can still take effect.
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMA = "hostbook/1"

#: Repetitions per workload; each runs in a fresh child process.
REPETITIONS = 3

#: ``--seconds`` value at which the step counts below apply unscaled
#: (the full book).  Other values scale the *counts*, never a clock:
#: both sides of an A/B do identical work.
FULL_SECONDS = 30

#: BLAS thread pins applied to every child before numpy loads.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    net: str            # "cifar" | "mnist"
    batch: int
    samples: int
    warm_steps: int
    timed_steps: int    # per repetition at FULL_SECONDS
    min_timed: int      # floor when --seconds scales the count down
    step_ms: float      # seed-commit p50, sizes the child timeout only
    threads: int | None = None
    backend: str = "thread"
    via_cli: bool = False

    def timed_for(self, seconds: float) -> int:
        """Timed steps per repetition for a ``--seconds`` budget."""
        steps = max(self.min_timed,
                    round(self.timed_steps * seconds / FULL_SECONDS))
        if self.via_cli:
            # The CLI trains whole epochs; epoch 1 is the warm-up.
            per_epoch = self.samples // self.batch
            steps = max(per_epoch, round(steps / per_epoch) * per_epoch)
        return steps


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "cifar_inline",
        "flop-bound reference: CIFAR net, default gemm engines, no pool, "
        "no tuner; every other configuration must beat it",
        net="cifar", batch=16, samples=64, warm_steps=8, timed_steps=64,
        min_timed=16, step_ms=135.0),
    Workload(
        "cifar_spg",
        "the paper's headline path as shipped: repro train (SpgCNN + CLI "
        "cost backend + monitor); only workload using core/stencil/sparse",
        net="cifar", batch=8, samples=64, warm_steps=8, timed_steps=40,
        min_timed=16, step_ms=400.0, via_cli=True),
    Workload(
        "cifar_process",
        "same arithmetic as cifar_inline through the process runtime "
        "(pool, executor, shm arena, supervisor); losses must match bitwise",
        net="cifar", batch=16, samples=64, warm_steps=8, timed_steps=64,
        min_timed=16, step_ms=115.0, threads=2, backend="process"),
    Workload(
        "mnist_inline",
        "dispatch-bound: 7 ms steps of tiny GEMMs, so per-call overhead "
        "added to help CIFAR shows here as a loss",
        net="mnist", batch=8, samples=256, warm_steps=32, timed_steps=1000,
        min_timed=200, step_ms=7.2),
)}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: The seven end-to-end metrics of the book.
#:
#: Bounds.  The issue asked for 10% on the wall-clock and CPU metrics.
#: This host does not allow it: its speed moves between regimes that
#: last minutes (co-tenants on the same cores; user+sys CPU seconds grow
#: with the wall, so it is slower execution, not waiting), and over ten
#: interleaved runs of unchanged code the quartile spread of every
#: timing metric came out at 7-13% in a calm half hour and 8-23% in a
#: rough one (README.md, "Noise").  A bound a metric's own spread
#: exceeds would reject unchanged code, so the timing metrics carry the
#: contract's cap of 0.25 and ``--compare`` reports ``unresolved``
#: where the repetitions of one set already spread wider than that.
#: ``peak_rss_mb`` repeats to 0.3% and keeps 10%.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "child interpreter start to end of last warm-up step"),
    EndToEnd("images_per_s", "img/s", "higher", 0.25,
             "timed images / wall from end of warm-up to last step"),
    EndToEnd("step_ms_p50", "ms", "lower", 0.25,
             "median step-to-step interval"),
    EndToEnd("step_ms_p90", "ms", "lower", 0.25,
             "90th percentile step-to-step interval"),
    EndToEnd("cpu_s_per_kimg", "s", "lower", 0.25,
             "user+sys CPU seconds of child and workers per 1000 images"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "child ru_maxrss + VmHWM of live workers at the last step"),
    EndToEnd("step_fail_share", "ratio", "lower", 0.0,
             "(raised + skipped + post-quarantine steps) / attempted"),
)

#: The end-to-end names that go into BENCHMARK.json and the driver's
#: JSON line.  The driver contract wants metrics that are never 0 and
#: whose ten-run quartile spread stays inside the bound (at most 0.25):
#: ``step_fail_share`` is 0 on a healthy run, so the contract carries it
#: as ``failed/attempted``; ``step_ms_p90`` spread 15-31% here (one
#: repetition in a slow regime owns the pooled tail), so it is printed,
#: stored and compared by the book but not declared to the driver.
DRIVER_END_TO_END = ("setup_s", "images_per_s", "step_ms_p50",
                     "cpu_s_per_kimg", "peak_rss_mb")


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    source: str   # "trace" | "probe"
    moves: str    # end-to-end metric @ workload this should move


def _rows(layer: str, source: str, moves: str, *rows: tuple[str, str, str]
          ) -> tuple[PerLayer, ...]:
    return tuple(PerLayer(n, u, b, layer, source, moves) for n, u, b in rows)


_LOW_MS = "ms", "lower"

PER_LAYER: tuple[PerLayer, ...] = (
    *_rows("nn", "trace",
           "images_per_s, step_ms_p50 @ mnist_inline most; pool/relu @ "
           "cifar_inline; serial_share caps images_per_s @ cifar_process",
           ("nn.fp_ms", *_LOW_MS), ("nn.bp_ms", *_LOW_MS),
           ("nn.update_ms", *_LOW_MS), ("nn.loop_gap_ms", *_LOW_MS),
           ("nn.pool_ms", *_LOW_MS), ("nn.relu_ms", *_LOW_MS),
           ("nn.dense_ms", *_LOW_MS), ("nn.conv_self_ms", *_LOW_MS),
           ("nn.serial_share", "ratio", "lower"),
           ("nn.goodput_gflops", "GFLOP/s", "higher")),
    *_rows("conv", "trace",
           "conv_deep.* -> images_per_s @ cifar_inline, cifar_process; "
           "conv_in.bd_ms (dead work) -> images_per_s @ mnist_inline, "
           "cifar_spg",
           ("conv_in.fp_ms", *_LOW_MS), ("conv_in.bd_ms", *_LOW_MS),
           ("conv_in.dw_ms", *_LOW_MS), ("conv_deep.fp_ms", *_LOW_MS),
           ("conv_deep.bd_ms", *_LOW_MS), ("conv_deep.dw_ms", *_LOW_MS)),
    *_rows("core", "trace",
           "pick_hit_share -> images_per_s, step_ms_p50 @ cifar_spg; "
           "optimize_ms -> setup_s @ cifar_spg; nothing elsewhere",
           ("core.optimize_ms", *_LOW_MS), ("core.replan_ms", *_LOW_MS),
           ("core.retunes", "count", "lower"),
           ("core.pick_hit_share", "ratio", "higher")),
    *_rows("ops/blas", "probe",
           "images_per_s @ cifar_inline, cifar_process; tiny_fp_ms @ "
           "mnist_inline",
           ("blas.gemm_gflops", "GFLOP/s", "higher"),
           ("ops.unfold_ms", *_LOW_MS), ("ops.gemm.fp_ms", *_LOW_MS),
           ("ops.gemm.bd_ms", *_LOW_MS), ("ops.gemm.dw_ms", *_LOW_MS),
           ("ops.gemm.tiny_fp_ms", *_LOW_MS)),
    *_rows("stencil", "probe",
           "step_ms_p50 @ cifar_spg; cold_ms -> setup_s @ cifar_spg",
           ("stencil.fp_ms.conv_in", *_LOW_MS),
           ("stencil.fp_ms.conv_deep", *_LOW_MS),
           ("stencil.fp_ms.mnist", *_LOW_MS),
           ("stencil.cold_ms", *_LOW_MS),
           ("stencil.fp_vs_gemm.conv_in", "ratio", "lower"),
           ("stencil.fused_vs_chain", "ratio", "lower")),
    *_rows("sparse", "probe",
           "images_per_s, step_ms_p50 @ cifar_spg",
           ("sparse.compress_ms", *_LOW_MS),
           ("sparse.ctcsr_build_ms", *_LOW_MS),
           ("sparse.bd_ms.s85", *_LOW_MS), ("sparse.bd_ms.s98", *_LOW_MS),
           ("sparse.dw_ms.s85", *_LOW_MS), ("sparse.dw_ms.s98", *_LOW_MS),
           ("sparse.bd_vs_gemm.s85", "ratio", "lower"),
           ("sparse.bd_vs_gemm.s98", "ratio", "lower")),
    *_rows("runtime", "trace",
           "images_per_s, step_ms_p50, step_ms_p90, cpu_s_per_kimg, "
           "peak_rss_mb @ cifar_process",
           ("runtime.exec_ms", *_LOW_MS),
           ("runtime.worker_cpu_share", "ratio", "higher"),
           ("runtime.parent_cpu_share", "ratio", "lower"),
           ("runtime.teardown_ms", *_LOW_MS),
           ("runtime.shm_leaked", "count", "lower"),
           ("runtime.orphan_procs", "count", "lower")),
    *_rows("runtime", "probe",
           "spawn_ms -> setup_s @ cifar_process; dispatch/publish/step "
           "-> images_per_s @ cifar_process",
           ("runtime.spawn_ms.process", *_LOW_MS),
           ("runtime.dispatch_us.thread", "us", "lower"),
           ("runtime.dispatch_us.process", "us", "lower"),
           ("runtime.shm_publish_us", "us", "lower"),
           ("runtime.step_ms.thread_barrier", *_LOW_MS),
           ("runtime.step_ms.thread_dag", *_LOW_MS),
           ("runtime.step_ms.process_dag", *_LOW_MS)),
    *_rows("telemetry/check", "probe",
           "images_per_s @ cifar_spg (monitor on); setup_s everywhere",
           ("telemetry.overhead_share", "ratio", "lower"),
           ("check.preflight_ms", *_LOW_MS)),
    *_rows("setup", "trace", "decompose setup_s",
           ("setup.import_ms", *_LOW_MS), ("setup.build_ms", *_LOW_MS),
           ("setup.warmup_ms", *_LOW_MS)),
    *_rows("tracer", "trace", "must stay <= 0.03",
           ("trace.overhead_share", "ratio", "lower")),
    *_rows("host", "probe",
           "must not move with code; >10% shift marks a pair noisy-host",
           ("host.matmul_gflops", "GFLOP/s", "higher"),
           ("host.stream_gbs", "GB/s", "higher"),
           ("host.numpy_call_us", "us", "lower")),
)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
HOST_METRICS = tuple(m.name for m in PER_LAYER if m.layer == "host")

#: A shift beyond this in any ``host.*`` metric marks a pair noisy-host.
HOST_SHIFT = 0.10
