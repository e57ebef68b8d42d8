"""Cross-engine equivalence: every engine must match the reference oracle."""

import numpy as np
import pytest

import repro  # noqa: F401 - registers all engines
from repro.core.convspec import ConvSpec
from repro.errors import PlanError, ShapeError
from repro.ops.engine import engine_names, make_engine
from repro.ops.gemm_conv import GemmInParallelEngine
from tests.conftest import SMALL_SPECS, random_conv_data

ALL_ENGINES = ("parallel-gemm", "gemm-in-parallel", "stencil", "sparse")


@pytest.fixture(scope="module")
def oracle_results():
    results = {}
    rng = np.random.default_rng(99)
    for spec in SMALL_SPECS:
        inputs, weights, err = random_conv_data(spec, rng, batch=3,
                                                error_sparsity=0.6)
        engine = make_engine("reference", spec)
        results[spec] = {
            "data": (inputs, weights, err),
            "fp": engine.forward(inputs, weights),
            "bd": engine.backward_data(err, weights),
            "bw": engine.backward_weights(err, inputs),
        }
    return results


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
class TestEngineEquivalence:
    def test_forward(self, engine_name, spec, oracle_results):
        inputs, weights, _ = oracle_results[spec]["data"]
        engine = make_engine(engine_name, spec)
        got = engine.forward(inputs, weights)
        np.testing.assert_allclose(got, oracle_results[spec]["fp"], atol=1e-3)

    def test_backward_data(self, engine_name, spec, oracle_results):
        _, weights, err = oracle_results[spec]["data"]
        engine = make_engine(engine_name, spec)
        got = engine.backward_data(err, weights)
        np.testing.assert_allclose(got, oracle_results[spec]["bd"], atol=1e-3)

    def test_backward_weights(self, engine_name, spec, oracle_results):
        inputs, _, err = oracle_results[spec]["data"]
        engine = make_engine(engine_name, spec)
        got = engine.backward_weights(err, inputs)
        np.testing.assert_allclose(got, oracle_results[spec]["bw"], atol=1e-3)


class TestRegistry:
    def test_all_engines_registered(self):
        names = engine_names()
        for expected in ALL_ENGINES + ("reference",):
            assert expected in names

    def test_unknown_engine_rejected(self):
        with pytest.raises(PlanError):
            make_engine("does-not-exist", SMALL_SPECS[0])

    def test_engines_reject_padded_specs(self):
        padded = ConvSpec(nc=1, ny=6, nx=6, nf=1, fy=3, fx=3, pad=1)
        with pytest.raises(ShapeError):
            make_engine("gemm-in-parallel", padded)


class TestBatchValidation:
    def test_rejects_wrong_batch_shapes(self, rng):
        spec = SMALL_SPECS[0]
        engine = make_engine("gemm-in-parallel", spec)
        inputs, weights, err = random_conv_data(spec, rng)
        with pytest.raises(ShapeError):
            engine.forward(inputs[:, :, :-1], weights)
        with pytest.raises(ShapeError):
            engine.forward(inputs, weights[:-1])
        with pytest.raises(ShapeError):
            engine.backward_data(err[:, :, :-1], weights)

    def test_engines_take_no_core_count(self):
        # Cores are the worker pool's and the machine model's, not an
        # engine's: every engine is built from its spec alone.
        for name in ALL_ENGINES + ("reference",):
            with pytest.raises(TypeError):
                make_engine(name, SMALL_SPECS[0], num_cores=2)


class TestGemmInParallelScheduling:
    def test_the_two_gemm_schedules_compute_the_same_bits(self, rng):
        # On the host both issue one np.matmul per product; only the
        # machine model prices their schedules apart.
        spec = SMALL_SPECS[1]
        inputs, weights, err = random_conv_data(spec, rng, batch=3)
        one = make_engine("gemm-in-parallel", spec)
        other = make_engine("parallel-gemm", spec)
        assert isinstance(one, GemmInParallelEngine)
        for method, args in (("forward", (inputs, weights)),
                             ("backward_data", (err, weights)),
                             ("backward_weights", (err, inputs))):
            assert getattr(one, method)(*args).tobytes() == \
                getattr(other, method)(*args).tobytes(), method

    def test_single_image_batch(self, rng):
        spec = SMALL_SPECS[1]
        inputs, weights, _ = random_conv_data(spec, rng, batch=1)
        got = make_engine("gemm-in-parallel", spec).forward(inputs, weights)
        want = make_engine("reference", spec).forward(inputs, weights)
        np.testing.assert_allclose(got, want, atol=1e-3)


class TestSparsityLevels:
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9, 1.0])
    def test_sparse_engine_handles_all_sparsities(self, sparsity, rng):
        spec = SMALL_SPECS[2]
        inputs, weights, err = random_conv_data(
            spec, rng, batch=2, error_sparsity=sparsity
        )
        sparse = make_engine("sparse", spec)
        oracle = make_engine("reference", spec)
        np.testing.assert_allclose(
            sparse.backward_data(err, weights),
            oracle.backward_data(err, weights),
            atol=1e-3,
        )
        np.testing.assert_allclose(
            sparse.backward_weights(err, inputs),
            oracle.backward_weights(err, inputs),
            atol=1e-3,
        )
