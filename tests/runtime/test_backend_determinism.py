"""Cross-backend determinism and spawn-safety.

The executor's contract is that serial, thread and process execution of
the same engine over the same batch are **bit-identical** -- same
partitioning, same in-place slice writes, same fixed-order gradient
reduction.  These tests pin that, plus the picklability every object
crossing the spawn boundary depends on.
"""

import pickle

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
from repro.ops.engine import make_engine
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool
from repro.runtime.shm import owned_segments
from tests.conftest import random_conv_data

SPEC = ConvSpec(nc=3, ny=12, nx=12, nf=4, fy=3, fx=3)

ENGINES = ["gemm-in-parallel", "parallel-gemm", "stencil", "sparse"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    return random_conv_data(SPEC, rng, batch=7, error_sparsity=0.6)


@pytest.fixture(scope="module")
def process_pool():
    pool = WorkerPool(2, backend="process")
    yield pool
    pool.shutdown()


def _run_all(engine_name, pool, data):
    inputs, weights, err = data
    with ParallelExecutor(engine_name, SPEC, pool=pool) as executor:
        return (
            executor.forward(inputs, weights),
            executor.backward_data(err, weights),
            executor.backward_weights(err, inputs),
        )


@pytest.mark.parametrize("engine_name", ENGINES)
class TestBitIdenticalAcrossBackends:
    def test_serial_thread_process_agree_exactly(
        self, engine_name, data, process_pool
    ):
        serial = _run_all(engine_name, WorkerPool(2, backend="serial"), data)
        thread = _run_all(engine_name, WorkerPool(2, backend="thread"), data)
        process = _run_all(engine_name, process_pool, data)
        for s, t, p in zip(serial, thread, process):
            np.testing.assert_array_equal(t, s)
            np.testing.assert_array_equal(p, s)

    def test_no_segment_leaks_after_process_run(
        self, engine_name, data, process_pool
    ):
        before = set(owned_segments())
        _run_all(engine_name, process_pool, data)
        assert set(owned_segments()) == before


class TestSpawnSafetyPickling:
    """Everything shipped to a spawned worker must survive pickling."""

    def test_convspec_round_trips(self):
        clone = pickle.loads(pickle.dumps(SPEC))
        assert clone == SPEC

    @pytest.mark.parametrize("engine_name", ENGINES + ["reference"])
    def test_engines_round_trip_and_compute(self, engine_name, data):
        inputs, weights, _ = data
        engine = make_engine(engine_name, SPEC)
        expected = engine.forward(inputs, weights)
        clone = pickle.loads(pickle.dumps(engine))
        np.testing.assert_array_equal(clone.forward(inputs, weights),
                                      expected)

    def test_generated_kernel_round_trips(self):
        from repro.stencil.emit_c import emit_stencil_c_unit, host_pipeline

        unit = emit_stencil_c_unit(SPEC, host_pipeline(None, "fp"))
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit and clone.source == unit.source

    def test_fault_plan_round_trips(self):
        plan = FaultPlan(
            name="t",
            specs=(FaultSpec(site="pool.task", kind="corrupt", at=(2,),
                             value=0.0),),
            seed=3,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
