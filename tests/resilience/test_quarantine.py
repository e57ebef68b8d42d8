"""Tests for the engine quarantine registry and graceful degradation."""

import copy

import numpy as np
import pytest

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.core.plan import FALLBACK_ENGINE, FP_CANDIDATES
from repro.errors import ReproError
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.quarantine import QuarantineRegistry, default_registry


class TestRegistry:
    def test_quarantine_and_lookup(self):
        registry = QuarantineRegistry()
        registry.quarantine("c1", "fp", "stencil", reason="raised")
        assert registry.is_quarantined("c1", "fp", "stencil")
        assert not registry.is_quarantined("c1", "bp", "stencil")
        assert not registry.is_quarantined("c2", "fp", "stencil")

    def test_filter_preserves_order(self):
        registry = QuarantineRegistry()
        registry.quarantine("c1", "fp", "b")
        candidates = ("a", "b", "c")
        assert registry.filter(candidates, "c1", "fp") == ("a", "c")
        assert registry.filter(candidates, "c1", "bp") == candidates

    def test_idempotent_counts_once(self):
        registry = QuarantineRegistry()
        with telemetry.collect() as tel:
            registry.quarantine("c1", "fp", "stencil")
            registry.quarantine("c1", "fp", "stencil")
        assert tel.counters["quarantine.engines"] == 1
        assert len(registry.records()) == 1

    def test_rejects_bad_phase(self):
        with pytest.raises(ReproError):
            QuarantineRegistry().quarantine("c1", "sideways", "stencil")

    def test_clear(self):
        registry = QuarantineRegistry()
        registry.quarantine("c1", "fp", "stencil")
        registry.clear()
        assert not registry.is_quarantined("c1", "fp", "stencil")

    def test_deepcopy_shares_the_registry(self):
        # Copying a network deep-copies its layers; the registry is
        # process-wide infrastructure and must be shared, not cloned (its
        # lock is unpicklable anyway).
        registry = QuarantineRegistry()
        assert copy.deepcopy(registry) is registry
        assert copy.copy(registry) is registry

    def test_deepcopied_network_shares_the_registry_not_the_weights(self):
        net = small_net()
        replica = copy.deepcopy(net)
        original, copied = net.conv_layers()[0], replica.conv_layers()[0]
        assert copied._quarantine is original._quarantine
        assert copied._quarantine is default_registry()
        copied.weights[0, 0, 0, 0] = 123.0
        assert original.weights[0, 0, 0, 0] != 123.0

    def test_deepcopied_network_computes_the_same_forward(self):
        net = small_net()
        replica = copy.deepcopy(net)
        inputs = np.random.default_rng(1).standard_normal(
            (2, 1, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(replica.forward(inputs, training=False),
                                      net.forward(inputs, training=False))


def small_net():
    from repro.nn.netdef import build_network

    return build_network(
        {
            "input": [1, 8, 8],
            "layers": [
                {"type": "conv", "features": 3, "kernel": 3},
                {"type": "relu"},
                {"type": "flatten"},
                {"type": "dense", "features": 3},
            ],
        },
        rng=np.random.default_rng(0),
    )


def conv_layer(quarantine, threads=None):
    from repro.nn.layers.conv import ConvLayer

    return ConvLayer(
        ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3, name="c1"),
        rng=np.random.default_rng(0),
        threads=threads,
        quarantine=quarantine,
    )


class TestDegradation:
    def test_engine_fault_falls_back_to_reference(self):
        registry = QuarantineRegistry()
        layer = conv_layer(registry)
        x = np.random.default_rng(1).standard_normal(
            (2, 2, 8, 8)).astype(np.float32)
        clean = layer.forward(x)
        primary = layer.fp_engine_name
        assert primary != FALLBACK_ENGINE
        plan = FaultPlan("t", specs=(
            FaultSpec(site="engine.fp", kind="raise", at=(1,)),
        ))
        with telemetry.collect() as tel, inject(plan):
            degraded = layer.forward(x)
        np.testing.assert_allclose(degraded, clean, atol=1e-4)
        assert registry.is_quarantined("c1", "fp", primary)
        assert layer.fp_engine_name == FALLBACK_ENGINE
        assert tel.counters["engine.fallbacks"] == 1

    def test_nonfinite_output_quarantines_engine(self):
        registry = QuarantineRegistry()
        layer = conv_layer(registry)
        primary = layer.fp_engine_name
        x = np.random.default_rng(2).standard_normal(
            (2, 2, 8, 8)).astype(np.float32)
        # Finite inputs, NaN output: the engine is at fault.
        real_forward = layer._fp_engine.forward
        layer._fp_engine.forward = lambda inputs, weights: np.full_like(
            real_forward(inputs, weights), np.nan
        )
        out = layer.forward(x)
        assert np.isfinite(out).all()  # fallback re-ran cleanly
        assert registry.is_quarantined("c1", "fp", primary)
        assert layer.fp_engine_name == FALLBACK_ENGINE

    def test_wrong_shape_quarantines_engine(self):
        registry = QuarantineRegistry()
        layer = conv_layer(registry)
        primary = layer.fp_engine_name
        x = np.random.default_rng(3).standard_normal(
            (2, 2, 8, 8)).astype(np.float32)
        layer._fp_engine.forward = lambda inputs, weights: np.zeros(
            (1, 1), dtype=np.float32
        )
        out = layer.forward(x)
        assert out.shape == (2,) + layer.spec.output_shape
        assert registry.is_quarantined("c1", "fp", primary)

    def test_poisoned_inputs_pass_through_unblamed(self):
        # NaN inputs produce NaN outputs in any engine: that is the
        # upstream guard's problem, not grounds for quarantine.
        registry = QuarantineRegistry()
        layer = conv_layer(registry)
        x = np.full((1, 2, 8, 8), np.nan, dtype=np.float32)
        out = layer.forward(x)
        assert np.isnan(out).any()
        assert not registry.records()

    def test_quarantined_engine_blocked_at_deploy(self):
        registry = QuarantineRegistry()
        layer = conv_layer(registry)
        registry.quarantine("c1", "fp", "stencil")
        layer.set_fp_engine("stencil")
        assert layer.fp_engine_name == FALLBACK_ENGINE


class TestAutotunerIntegration:
    def test_plan_skips_quarantined_candidates(self):
        from repro.core.autotuner import Autotuner, ModelCostBackend
        from repro.machine.spec import xeon_e5_2650

        registry = QuarantineRegistry()
        spec = ConvSpec(nc=8, ny=12, nx=12, nf=8, fy=3, fx=3, name="c1")
        backend = ModelCostBackend(xeon_e5_2650(), cores=4, batch=8)
        baseline = Autotuner(backend, quarantine=registry).plan_layer(
            spec, layer_name="c1", sparsity=0.9
        )
        registry.quarantine("c1", "fp", baseline.fp_engine)
        replanned = Autotuner(backend, quarantine=registry).plan_layer(
            spec, layer_name="c1", sparsity=0.9
        )
        assert replanned.fp_engine != baseline.fp_engine
        assert baseline.fp_engine not in replanned.fp_timings

    def test_all_candidates_benched_degrades_to_fallback(self):
        from repro.core.autotuner import Autotuner, ModelCostBackend
        from repro.machine.spec import xeon_e5_2650

        registry = QuarantineRegistry()
        spec = ConvSpec(nc=8, ny=12, nx=12, nf=8, fy=3, fx=3, name="c1")
        backend = ModelCostBackend(xeon_e5_2650(), cores=4, batch=8)
        tuner = Autotuner(backend, quarantine=registry)
        for engine in FP_CANDIDATES:
            registry.quarantine("c1", "fp", engine)
        plan = tuner.plan_layer(spec, layer_name="c1", sparsity=0.9)
        assert plan.fp_engine == FALLBACK_ENGINE

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()
