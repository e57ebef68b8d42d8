"""Wall-clock scaling of the thread-based image-parallel runtime.

The executable counterpart of GEMM-in-Parallel: batches of real kernel
work distributed over worker threads.  numpy's kernels release the GIL,
so the measured ratio should not collapse; the assertion is conservative
(parallel no slower than 1.5x serial) because CI hosts vary, and it
carries the ``wallclock`` marker: deselected by default, run by
``-m wallclock``.
"""

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
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
    with WorkerPool(workers) as pool, \
            ParallelExecutor("gemm-in-parallel", SPEC, pool) as executor:
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
        with WorkerPool(4) as pool, \
                ParallelExecutor("gemm-in-parallel", SPEC, pool) as executor:
            t_parallel = best_of(lambda: executor.forward(inputs, weights))
        return t_serial, t_parallel

    t_serial, t_parallel = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        f"image-parallel runtime: serial {t_serial * 1e3:.2f} ms, "
        f"4 threads {t_parallel * 1e3:.2f} ms "
        f"(speedup {t_serial / t_parallel:.2f}x)"
    )
    assert t_parallel < 1.5 * t_serial

