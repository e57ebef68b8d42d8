"""The probe pass: leaf functions timed directly at the workloads' shapes.

Runs once per book in its own fresh child process (so ``stencil.cold_ms``
really is cold).  ``conv_in`` is the conv fed by the image, ``conv_deep``
the last conv; CIFAR probes use batch 16, MNIST batch 8; error sparsity
is fixed at 0.85 and 0.98, the values the training runs measure.

Every timing is the median of up to ``reps`` calls after one untimed
call; a cell stops early once its timed calls have used ``_CELL_BUDGET_S``
(the sparse kernels take 0.3-0.8 s a call at these shapes).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from time import perf_counter

import numpy as np

FP_ENGINES = ("parallel-gemm", "gemm-in-parallel", "stencil")
BP_ENGINES = ("parallel-gemm", "gemm-in-parallel", "sparse")
_GEMM = "gemm-in-parallel"
_STREAM_CAP = 128 << 20
_CELL_BUDGET_S = 0.4


def median_ms(fn, reps: int) -> float:
    fn()
    samples: list[float] = []
    while len(samples) < reps and sum(samples) < _CELL_BUDGET_S:
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e3


def _sparse_error(rng, shape, sparsity):
    eo = rng.standard_normal(shape).astype(np.float32)
    eo[rng.random(shape) < sparsity] = 0.0
    return eo


def _llc_bytes() -> int:
    best = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        digits = text[:-1] if text[-1] in "KMG" else text
        best = max(best, int(digits) * unit)
    return best or (32 << 20)


class HostSampler:
    """What must *not* move with code: raw BLAS, memory and call cost.

    The host's speed drifts by 10% and more over seconds, so one burst
    of calls is one draw of that drift.  ``sample()`` is called several
    times (between the sections of the probe pass; at both ends of a
    repetition's timed region) and the metrics are medians over all the
    bursts.  ``stream=False`` leaves out the 128 MiB copy, whose first
    touch alone costs over a second.
    """

    _CALLS = 20000

    def __init__(self, stream: bool = True):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((512, 512)).astype(np.float32)
        b = rng.standard_normal((512, 512)).astype(np.float32)
        out = np.empty_like(a)
        x, y, z = (np.ones(8, dtype=np.float32) for _ in range(3))

        def call_loop():
            add = np.add
            for _ in range(self._CALLS):
                add(x, y, out=z)

        # name -> (kernel, timed calls per burst, seconds -> metric)
        self._kernels: dict = {
            "host.matmul_gflops": (lambda: np.matmul(a, b, out=out), 20,
                                   lambda s: 2 * 512 ** 3 / s / 1e9),
            "host.numpy_call_us": (call_loop, 5,
                                   lambda s: s * 1e6 / self._CALLS),
        }
        self.llc_bytes = _llc_bytes()
        self.stream_array_bytes = 0
        if stream:
            # 4x the last-level cache, capped: this guest reports the
            # whole socket's 260 MB L3, first-touch faults cost seconds
            # per GiB here, and copies of 128 MiB to 1 GiB all read the
            # same ~20 GB/s (smaller arrays read 10-25 GB/s depending on
            # how many huge pages they got).
            src = np.ones(min(4 * self.llc_bytes, _STREAM_CAP) // 8)
            dst = np.empty_like(src)
            np.copyto(dst, src)   # first touch, untimed
            self.stream_array_bytes = int(src.nbytes)
            # One read and one write of the array per copy.
            self._kernels["host.stream_gbs"] = (
                lambda: np.copyto(dst, src), 4,
                lambda s: 2 * src.nbytes / s / 1e9)
        self._samples: dict = {name: [] for name in self._kernels}

    def sample(self) -> None:
        for name, (fn, reps, _) in self._kernels.items():
            fn()
            for _ in range(reps):
                t0 = perf_counter()
                fn()
                self._samples[name].append(perf_counter() - t0)

    def metrics(self) -> dict:
        return {name: to_metric(statistics.median(self._samples[name]))
                for name, (_, _, to_metric) in self._kernels.items()}


def _specs(scale: float) -> dict:
    from repro.nn.zoo import cifar10_net, mnist_net

    cifar = cifar10_net(scale=scale, rng=np.random.default_rng(0)).conv_layers()
    mnist = mnist_net(scale=scale, rng=np.random.default_rng(0)).conv_layers()
    return {"conv_in": (cifar[0].padded_spec, 16),
            "conv_deep": (cifar[-1].padded_spec, 16),
            "mnist": (mnist[0].padded_spec, 8)}


def engine_table(scale: float, reps: int) -> tuple[dict, float]:
    """ms per batch for layer x phase x engine, plus ``stencil.cold_ms``.

    This is the host book's row-per-(layer, phase, engine) table; the
    named ``ops.*``/``stencil.*``/``sparse.*`` metrics are cells of it.
    """
    from repro.ops.engine import make_engine

    rng = np.random.default_rng(0)
    specs = _specs(scale)
    table: dict = {}
    cold_ms = None
    for role, (spec, batch) in specs.items():
        x = rng.standard_normal((batch,) + spec.input_shape).astype(np.float32)
        w = (rng.standard_normal(spec.weight_shape) * 0.1).astype(np.float32)
        if cold_ms is None:
            # First stencil construction + call in this process: codegen,
            # schedule, verification and the first dispatch.
            t0 = perf_counter()
            make_engine("stencil", spec).forward(x, w)
            cold_ms = (perf_counter() - t0) * 1e3
        errors = {"s85": _sparse_error(rng, (batch,) + spec.output_shape, 0.85)}
        if role == "conv_deep":
            errors["s98"] = _sparse_error(
                rng, (batch,) + spec.output_shape, 0.98)
        cells: dict = {"fp": {}}
        for name in FP_ENGINES:
            engine = make_engine(name, spec)
            cells["fp"][name] = median_ms(lambda: engine.forward(x, w), reps)
        for tag, eo in errors.items():
            bd, dw = cells.setdefault(f"bd.{tag}", {}), cells.setdefault(
                f"dw.{tag}", {})
            for name in BP_ENGINES:
                engine = make_engine(name, spec)
                bd[name] = median_ms(lambda: engine.backward_data(eo, w), reps)
                dw[name] = median_ms(
                    lambda: engine.backward_weights(eo, x), reps)
        table[role] = cells
    return table, cold_ms


def ops_probes(scale: float, reps: int) -> dict:
    from repro.blas.gemm import gemm
    from repro.ops.unfold import unfold
    from repro.sparse.ctcsr import ctcsr_from_dense
    from repro.sparse.kernels import compress_error, error_matrix

    rng = np.random.default_rng(0)
    spec, _ = _specs(scale)["conv_deep"]
    m, k, n = spec.nf, spec.nc * spec.fy * spec.fx, spec.out_ny * spec.out_nx
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    gemm_ms = median_ms(lambda: gemm(a, b), max(reps, 10))
    image = rng.standard_normal(spec.input_shape).astype(np.float32)
    eo = _sparse_error(rng, spec.output_shape, 0.85)
    matrix = error_matrix(spec, eo)
    return {
        "blas.gemm_gflops": 2.0 * m * k * n / (gemm_ms * 1e-3) / 1e9,
        "ops.unfold_ms": median_ms(lambda: unfold(spec, image), max(reps, 10)),
        "sparse.compress_ms": median_ms(
            lambda: compress_error(spec, eo), max(reps, 10)),
        "sparse.ctcsr_build_ms": median_ms(
            lambda: ctcsr_from_dense(matrix), max(reps, 10)),
    }


def fused_vs_chain(scale: float, reps: int) -> float:
    """``FusedConvReluPool`` forward over the conv+relu+pool chain's."""
    from repro.nn.layers.fused import fuse_conv_relu_pool
    from repro.nn.zoo import cifar10_net

    net = cifar10_net(scale=scale, rng=np.random.default_rng(0))
    conv, relu, pool = net.layers[:3]
    # The chain's conv runs the same technique the fused kernel is
    # generated from, so the ratio isolates fusion.
    conv.set_fp_engine("stencil")
    fused = fuse_conv_relu_pool(conv, pool)
    x = np.random.default_rng(0).standard_normal(
        (16,) + conv.spec.input_shape).astype(np.float32)

    def chain():
        pool.forward(relu.forward(conv.forward(x)))

    return (median_ms(lambda: fused.forward(x), reps)
            / median_ms(chain, reps))


def _noop(lo, hi):
    return hi - lo


def runtime_probes(scale: float, reps: int, steps: tuple[int, int]) -> dict:
    from repro.data.synthetic import cifar10_like
    from repro.nn.training_loop import TrainingLoop
    from repro.nn.zoo import cifar10_net
    from repro.runtime.pool import WorkerPool
    from repro.runtime.shm import SharedArray

    metrics: dict = {}
    for backend in ("thread", "process"):
        with WorkerPool(2, backend=backend) as pool:
            t0 = perf_counter()
            pool.map_batches(_noop, 2)
            first_ms = (perf_counter() - t0) * 1e3
            if backend == "process":
                metrics["runtime.spawn_ms.process"] = first_ms
            metrics[f"runtime.dispatch_us.{backend}"] = median_ms(
                lambda: pool.map_batches(_noop, 2), 50 * reps) * 1e3

    batch = np.random.default_rng(0).standard_normal(
        (16, 3, 36, 36)).astype(np.float32)

    def publish():
        SharedArray.from_array(batch).unlink()

    metrics["runtime.shm_publish_us"] = median_ms(publish, 20 * reps) * 1e3

    warm, timed = steps
    for backend, scheduler in (("thread", "barrier"), ("thread", "dag"),
                               ("process", "dag")):
        net = cifar10_net(scale=scale, rng=np.random.default_rng(0),
                          threads=2, backend=backend)
        data = cifar10_like(64, seed=0)
        loop = TrainingLoop(net, data, batch_size=16, scheduler=scheduler)
        ends: list[float] = []
        loop.add_batch_hook(lambda *_: ends.append(perf_counter()))
        try:
            loop.run(-(-(warm + timed) // 4))
        finally:
            for layer in net.conv_layers():
                layer.close()
        timed_ends = ends[warm - 1:warm + timed]
        metrics[f"runtime.step_ms.{backend}_{scheduler}"] = statistics.median(
            (b - a) * 1e3 for a, b in zip(timed_ends, timed_ends[1:]))
    return metrics


def telemetry_probes(scale: float, reps: int, pairs: int) -> dict:
    from repro import telemetry
    from repro.check.graph import preflight_network
    from repro.data.synthetic import cifar10_like
    from repro.nn.sgd import SGDTrainer
    from repro.nn.zoo import cifar10_net

    net = cifar10_net(scale=scale, rng=np.random.default_rng(0))
    data = cifar10_like(64, seed=0)
    trainer = SGDTrainer(net)
    batches = [(data.images[lo:lo + 16], data.labels[lo:lo + 16])
               for lo in range(0, 64, 16)]
    for x, y in batches:
        trainer.step(x, y)
    on, off = [], []
    for i in range(pairs):
        x, y = batches[i % len(batches)]
        t0 = perf_counter()
        trainer.step(x, y)
        off.append(perf_counter() - t0)
        with telemetry.collect():
            t0 = perf_counter()
            trainer.step(x, y)
            on.append(perf_counter() - t0)
    return {
        "telemetry.overhead_share":
            statistics.median(on) / statistics.median(off) - 1.0,
        "check.preflight_ms": median_ms(
            lambda: preflight_network(net), max(reps, 5)),
    }


def run_probes(job: dict) -> dict:
    """The whole probe pass; ``job`` carries scale and size knobs."""
    scale, reps = job["scale"], job["reps"]
    section_seconds: dict = {}

    def section(name, fn, *args):
        t0 = time.monotonic()
        result = fn(*args)
        section_seconds[name] = time.monotonic() - t0
        return result

    host = section("host_setup", HostSampler)
    section("host_0", host.sample)
    table, cold_ms = section("engine_table", engine_table, scale, reps)
    section("host_1", host.sample)
    metrics = section("ops", ops_probes, scale, reps)
    deep, conv_in, mnist = table["conv_deep"], table["conv_in"], table["mnist"]
    metrics.update({
        "ops.gemm.fp_ms": deep["fp"][_GEMM],
        "ops.gemm.bd_ms": deep["bd.s85"][_GEMM],
        "ops.gemm.dw_ms": deep["dw.s85"][_GEMM],
        "ops.gemm.tiny_fp_ms": mnist["fp"][_GEMM],
        "stencil.fp_ms.conv_in": conv_in["fp"]["stencil"],
        "stencil.fp_ms.conv_deep": deep["fp"]["stencil"],
        "stencil.fp_ms.mnist": mnist["fp"]["stencil"],
        "stencil.cold_ms": cold_ms,
        "stencil.fp_vs_gemm.conv_in":
            conv_in["fp"]["stencil"] / conv_in["fp"][_GEMM],
        "stencil.fused_vs_chain": section("fused", fused_vs_chain, scale, reps),
    })
    for tag in ("s85", "s98"):
        metrics[f"sparse.bd_ms.{tag}"] = deep[f"bd.{tag}"]["sparse"]
        metrics[f"sparse.dw_ms.{tag}"] = deep[f"dw.{tag}"]["sparse"]
        metrics[f"sparse.bd_vs_gemm.{tag}"] = (
            deep[f"bd.{tag}"]["sparse"] / deep[f"bd.{tag}"][_GEMM])
    metrics.update(section("runtime", runtime_probes, scale, reps,
                           tuple(job["runtime_steps"])))
    section("host_2", host.sample)
    metrics.update(section("telemetry", telemetry_probes, scale, reps,
                           job["telemetry_pairs"]))
    section("host_3", host.sample)
    metrics.update(host.metrics())
    return {
        "metrics": metrics, "engine_table": table,
        "llc_bytes": host.llc_bytes,
        "stream_array_bytes": host.stream_array_bytes,
        "section_seconds": section_seconds,
    }
