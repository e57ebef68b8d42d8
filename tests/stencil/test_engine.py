"""Tests for the StencilEngine wrapper."""

import numpy as np
import pytest

from repro import native
from repro.core.convspec import ConvSpec
from repro.ops.engine import make_engine
from repro.stencil.emit_c import emit_stencil_c_unit, host_pipeline
from repro.stencil.engine import StencilEngine
from repro.stencil.passes import SchedulePipeline, Vectorize
from tests.conftest import SMALL_SPECS, random_conv_data


def _fits_the_register_file(unit, spec, registers):
    """The accumulator block, the input column and the broadcast weight
    fit ``registers`` vector registers."""
    features, rows = unit.literal("FB"), unit.literal("RB")
    return features * rows + rows + spec.fy - 1 + 1 <= registers


class TestConstruction:
    def test_engine_reports_the_block_its_printer_used(self):
        """The host unit's block fits the host's register file, and it
        is the unit a lowered engine runs."""
        spec = SMALL_SPECS[1]
        unit = emit_stencil_c_unit(spec, host_pipeline("fp"))
        assert _fits_the_register_file(unit, spec,
                                       native.vector_registers()[0])
        engine = StencilEngine(spec)
        if engine.lowering == "c":
            assert engine._native.unit == unit

    def test_custom_register_file(self):
        """The register budget is the schedule's: a pipeline vectorized
        for 8 registers prints an accumulator block inside that budget."""
        spec = SMALL_SPECS[0]
        pipeline = SchedulePipeline("fp", (Vectorize(num_registers=8),))
        unit = emit_stencil_c_unit(spec, pipeline)
        assert _fits_the_register_file(unit, spec, 8)


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
