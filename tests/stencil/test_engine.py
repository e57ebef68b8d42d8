"""Tests for the StencilEngine wrapper."""

import numpy as np
import pytest

from repro import native
from repro.core.convspec import ConvSpec
from repro.ops.engine import make_engine
from repro.stencil.engine import StencilEngine
from repro.stencil.passes import SchedulePipeline, Vectorize
from tests.conftest import SMALL_SPECS, random_conv_data


class TestConstruction:
    def test_engine_reports_the_block_its_printer_used(self):
        engine = StencilEngine(SMALL_SPECS[1])
        stats = engine.block_stats()
        assert stats["fmas"] > 0
        budget = native.vector_registers()[0] \
            if engine.lowering == "c" else 16
        assert stats["registers_used"] <= budget

    def test_forward_source_is_specialized(self):
        spec = ConvSpec(nc=2, ny=10, nx=10, nf=4, fy=3, fx=3)
        engine = StencilEngine(spec)
        assert engine.forward_source.count("np.tensordot") == 9

    def test_custom_register_file(self):
        """The register budget is the schedule's: a pipeline vectorized
        for 8 registers yields that tile, and the C printer an
        accumulator block inside that budget."""
        spec = SMALL_SPECS[0]
        pipeline = SchedulePipeline("fp", (Vectorize(num_registers=8),))
        engine = StencilEngine(spec, pipeline=pipeline)
        assert engine.tile == pipeline.vector_block(spec)
        assert engine.tile.ry * engine.tile.rx + 2 <= 8
        if engine.lowering == "c":
            unit = engine._native.unit
            features, rows = unit.literal("FB"), unit.literal("RB")
            # accumulators + the input column + the broadcast weight
            assert features * rows + rows + spec.fy - 1 + 1 <= 8

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError):
            StencilEngine(SMALL_SPECS[0], num_cores=0)


class TestEquivalence:
    @pytest.mark.parametrize("spec", SMALL_SPECS[:3], ids=lambda s: s.describe())
    def test_all_three_computations(self, spec, rng):
        inputs, weights, err = random_conv_data(spec, rng, batch=2)
        engine = StencilEngine(spec)
        oracle = make_engine("reference", spec)
        np.testing.assert_allclose(
            engine.forward(inputs, weights), oracle.forward(inputs, weights),
            atol=1e-3,
        )
        np.testing.assert_allclose(
            engine.backward_data(err, weights), oracle.backward_data(err, weights),
            atol=1e-3,
        )
        np.testing.assert_allclose(
            engine.backward_weights(err, inputs),
            oracle.backward_weights(err, inputs),
            atol=1e-3,
        )

    def test_1x1_convolution(self, rng):
        spec = ConvSpec(nc=4, ny=6, nx=6, nf=3, fy=1, fx=1)
        inputs, weights, _ = random_conv_data(spec, rng, batch=1)
        engine = StencilEngine(spec)
        oracle = make_engine("reference", spec)
        np.testing.assert_allclose(
            engine.forward(inputs, weights), oracle.forward(inputs, weights),
            atol=1e-3,
        )
