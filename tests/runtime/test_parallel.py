"""Tests for the thread-parallel engine executor."""

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
from repro.errors import ReproError
from repro.ops.engine import make_engine
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool
from tests.conftest import random_conv_data

SPEC = ConvSpec(nc=3, ny=14, nx=14, nf=5, fy=3, fx=3)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    return random_conv_data(SPEC, rng, batch=9, error_sparsity=0.5)


@pytest.fixture(scope="module")
def oracle(data):
    inputs, weights, err = data
    engine = make_engine("reference", SPEC)
    return {
        "fp": engine.forward(inputs, weights),
        "bd": engine.backward_data(err, weights),
        "bw": engine.backward_weights(err, inputs),
    }


@pytest.mark.parametrize("engine_name", ["gemm-in-parallel", "stencil", "sparse"])
@pytest.mark.parametrize("workers", [1, 3, 8])
class TestParallelEquivalence:
    def test_forward(self, engine_name, workers, data, oracle):
        inputs, weights, _ = data
        with ParallelExecutor(engine_name, SPEC,
                              pool=WorkerPool(workers)) as executor:
            got = executor.forward(inputs, weights)
        np.testing.assert_allclose(got, oracle["fp"], atol=1e-3)

    def test_backward_data(self, engine_name, workers, data, oracle):
        _, weights, err = data
        with ParallelExecutor(engine_name, SPEC,
                              pool=WorkerPool(workers)) as executor:
            got = executor.backward_data(err, weights)
        np.testing.assert_allclose(got, oracle["bd"], atol=1e-3)

    def test_backward_weights(self, engine_name, workers, data, oracle):
        inputs, _, err = data
        with ParallelExecutor(engine_name, SPEC,
                              pool=WorkerPool(workers)) as executor:
            got = executor.backward_weights(err, inputs)
        np.testing.assert_allclose(got, oracle["bw"], atol=1e-2)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("engine_name", ["gemm-in-parallel", "stencil"])
def test_cropped_backward_data_equals_the_inline_engine(engine_name, backend,
                                                        data):
    # crop=1 on this 3x3 spec is the correlation form for the GEMM
    # engine and crop-after for the stencil: the slices must run the
    # form the inline engine runs, into an output sized for the result.
    _, weights, err = data
    want = make_engine(engine_name, SPEC).backward_data(err, weights, crop=1)
    assert want.shape == (9,) + SPEC.cropped_input_shape(1)
    with ParallelExecutor(engine_name, SPEC,
                          pool=WorkerPool(3, backend=backend)) as executor:
        got = executor.backward_data(err, weights, crop=1)
    assert got.tobytes() == want.tobytes()


class TestExecutorBehaviour:
    def test_more_workers_than_images(self, data, oracle):
        inputs, weights, _ = data
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(32)) as executor:
            got = executor.forward(inputs, weights)
        np.testing.assert_allclose(got, oracle["fp"], atol=1e-3)

    def test_empty_batch_rejected(self, data):
        _, weights, _ = data
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2)) as executor:
            with pytest.raises(ReproError):
                executor.forward(
                    np.zeros((0,) + SPEC.input_shape, np.float32), weights
                )

    def test_backward_weights_empty_batch_rejected(self, data):
        inputs, _, _ = data
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2)) as executor:
            with pytest.raises(ReproError, match="empty batch"):
                executor.backward_weights(
                    np.zeros((0,) + SPEC.output_shape, np.float32),
                    inputs[:0],
                )

    def test_dead_next_engine_attribute_removed(self):
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2)) as executor:
            assert not hasattr(executor, "_next_engine")
            assert executor.name == "gemm-in-parallel"


class TestEngineCheckout:
    """Concurrent attempts never share an engine's mutable scratch."""

    def test_overlapping_checkouts_get_distinct_engines(self):
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2)) as executor:
            first = executor._checkout_engine()
            second = executor._checkout_engine()
            # More live attempts than workers (two phases' slices
            # overlapping under the DAG): the free-list grows instead of
            # handing out a busy engine.
            third = executor._checkout_engine()
            assert first is not second
            assert second is not third and first is not third
            assert len(executor._engines) == 3
            for engine in (first, second, third):
                executor._checkin_engine(engine)

    def test_checkin_makes_engine_reusable(self):
        with ParallelExecutor("gemm-in-parallel", SPEC,
                              pool=WorkerPool(2)) as executor:
            engine = executor._checkout_engine()
            executor._checkin_engine(engine)
            assert executor._checkout_engine() is engine
            executor._checkin_engine(engine)

    def test_close_leaves_the_callers_pool_running(self, data, oracle):
        inputs, weights, _ = data
        with WorkerPool(2) as pool:
            with ParallelExecutor("gemm-in-parallel", SPEC, pool) as executor:
                executor.forward(inputs, weights)
            executor.close()  # idempotent
            assert pool.map_batches(lambda lo, hi: hi - lo, 4) == [2, 2]
            again = ParallelExecutor("gemm-in-parallel", SPEC, pool)
            np.testing.assert_allclose(again.forward(inputs, weights),
                                       oracle["fp"], atol=1e-3)
            again.close()

    def test_engines_checked_out_on_demand_are_built_alike(self):
        with WorkerPool(2) as pool, \
                ParallelExecutor("stencil", SPEC, pool) as executor:
            # The engines built up front and the one an overlap checks
            # out on demand are built alike.
            extra = [executor._checkout_engine() for _ in range(3)]
            assert len(executor._engines) == 3
            assert {(e.name, e.spec) for e in executor._engines} == \
                {("stencil", SPEC)}
            for engine in extra:
                executor._checkin_engine(engine)
