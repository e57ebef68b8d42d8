"""Wall-clock scaling of the thread-based image-parallel runtime.

The executable counterpart of GEMM-in-Parallel: batches of real kernel
work distributed over worker threads.  numpy's kernels release the GIL,
so the measured ratio should not collapse; the assertion is conservative
(parallel no slower than 1.5x serial) because CI hosts vary, and it
carries the ``wallclock`` marker: deselected by default, run by
``-m wallclock``.  So does the barrier-vs-DAG comparison of summed
worker idle time (:mod:`repro.obs.idle`, EXPERIMENTS.md "Comparing
barrier vs DAG idle time").
"""

import os

import numpy as np
import pytest

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.data.synthetic import mnist_like
from repro.nn.training_loop import TrainingLoop
from repro.nn.zoo import mnist_net
from repro.obs.idle import total_worker_idle
from repro.ops.engine import make_engine
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool

SPEC = ConvSpec(nc=16, ny=48, nx=48, nf=32, fy=3, fx=3)
BATCH = 8


def _data():
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((BATCH,) + SPEC.input_shape).astype(np.float32)
    weights = rng.standard_normal(SPEC.weight_shape).astype(np.float32)
    return inputs, weights


def test_serial_forward_baseline(benchmark):
    inputs, weights = _data()
    engine = make_engine("gemm-in-parallel", SPEC)
    out = benchmark(engine.forward, inputs, weights)
    assert out.shape[0] == BATCH


@pytest.mark.parametrize("workers", [2, 4])
def test_threaded_forward(benchmark, workers):
    inputs, weights = _data()
    with ParallelExecutor("gemm-in-parallel", SPEC,
                          pool=WorkerPool(workers)) as executor:
        out = benchmark(executor.forward, inputs, weights)
    assert out.shape[0] == BATCH


@pytest.mark.wallclock
def test_threading_does_not_collapse(benchmark, show):
    import time

    inputs, weights = _data()
    engine = make_engine("gemm-in-parallel", SPEC)

    def best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def measure():
        t_serial = best_of(lambda: engine.forward(inputs, weights))
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(4)) as executor:
            t_parallel = best_of(lambda: executor.forward(inputs, weights))
        return t_serial, t_parallel

    t_serial, t_parallel = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        f"image-parallel runtime: serial {t_serial * 1e3:.2f} ms, "
        f"4 threads {t_parallel * 1e3:.2f} ms "
        f"(speedup {t_serial / t_parallel:.2f}x)"
    )
    assert t_parallel < 1.5 * t_serial


@pytest.mark.wallclock
@pytest.mark.skipif(os.cpu_count() < 2,
                    reason="idle win needs real hardware concurrency")
def test_dag_idles_less_than_barrier():
    """With 2 workers on >= 2 cores, summed worker idle gaps under the
    DAG stay below the barrier path's."""
    idle = {}
    for scheduler in ("barrier", "dag"):
        network = mnist_net(scale=1.0, rng=np.random.default_rng(0),
                            threads=2, backend="thread")
        loop = TrainingLoop(network, mnist_like(64, seed=0), batch_size=16,
                            scheduler=scheduler, preflight=False)
        with telemetry.collect() as tel:
            loop.run(1)
        for layer in network.conv_layers():
            layer.close()
        idle[scheduler] = total_worker_idle(tel)
    assert idle["dag"] < idle["barrier"]
