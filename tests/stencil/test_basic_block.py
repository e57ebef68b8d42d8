"""Tests for the register tile's closed-form counts and the tile optimizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tables import TABLE2_LAYERS
from repro.errors import CodegenError
from repro.machine.spec import xeon_e5_2650
from repro.stencil.basic_block import TileChoice, optimize_register_tile


def _enumerated_loads(tile: TileChoice) -> int:
    """The block's loads by walking Fig. 7's structure: one per distinct
    input vector (row ``ty + ky``, column ``tx * V + kx``)."""
    return len({(ty + ky, tx * tile.vector_width + kx)
                for ty in range(tile.ry) for tx in range(tile.rx)
                for ky in range(tile.fy) for kx in range(tile.fx)})


class TestFigure7Example:
    """The paper's Fig. 7: a 1x2 stencil (Fx=1, Fy=2) with rx=1, ry=2."""

    def test_instruction_counts(self):
        tile = TileChoice(fy=2, fx=1, ry=2, rx=1, vector_width=8)
        assert tile.loads == 3  # ivec0, ivec1, ivec2
        assert tile.fmas == 4  # ivec1 contributes twice, ivec0/2 once each
        assert tile.broadcasts == 2  # one weight per tap
        assert tile.stores == 2  # the two accumulators

    def test_middle_load_is_reused(self):
        # Four FMAs from three loads: exactly one input vector feeds two.
        tile = TileChoice(fy=2, fx=1, ry=2, rx=1, vector_width=8)
        assert tile.fmas - tile.loads == 1
        assert tile.loads_per_fma == pytest.approx(0.75)


class TestTable2Layers:
    """The tile the optimizer picks for every Table 2 layer on the
    paper's Xeon (16 ymm registers, 8 floats) and its counts."""

    #: kernel size -> (loads, fmas, broadcasts, stores) of the 14x1 tile.
    COUNTS = {3: (48, 126, 9, 14), 5: (90, 350, 25, 14),
              7: (140, 686, 49, 14), 11: (264, 1694, 121, 14)}

    @pytest.mark.parametrize("spec", [s for table in TABLE2_LAYERS.values()
                                      for s in table], ids=lambda s: s.name)
    def test_counts(self, spec):
        machine = xeon_e5_2650()
        tile = optimize_register_tile(spec.fy, spec.fx,
                                      machine.num_vector_registers,
                                      machine.vector_width)
        assert (tile.ry, tile.rx) == (14, 1)
        assert (tile.loads, tile.fmas, tile.broadcasts, tile.stores) \
            == self.COUNTS[spec.fy]
        assert tile.loads == _enumerated_loads(tile)


class TestClosedForm:
    @given(st.integers(1, 7), st.integers(1, 11), st.integers(1, 8),
           st.integers(1, 8), st.sampled_from((1, 2, 4, 8, 16)))
    @settings(max_examples=200, deadline=None)
    def test_loads_match_the_enumerated_block(self, fy, fx, ry, rx, v):
        tile = TileChoice(fy, fx, ry, rx, v)
        assert tile.loads == _enumerated_loads(tile)
        assert tile.fmas == ry * rx * fy * fx
        assert tile.broadcasts == fy * fx and tile.stores == ry * rx

    def test_kernels_wider_than_a_vector_share_columns(self):
        # With Fx > V the columns tx * V + kx overlap across tx.
        fy, fx, ry, rx = 1, 5, 1, 3
        assert TileChoice(fy, fx, ry, rx, vector_width=2).loads \
            == (rx - 1) * 2 + fx
        assert TileChoice(fy, fx, ry, rx, vector_width=8).loads == rx * fx

    def test_outputs_and_registers(self):
        tile = TileChoice(fy=2, fx=2, ry=3, rx=4, vector_width=8)
        assert tile.outputs_per_block == 3 * 4 * 8
        assert tile.registers_used == 3 * 4 + 2
        assert tile.summary()["registers_used"] == 14

    def test_rejects_nonpositive_params(self):
        with pytest.raises(CodegenError):
            TileChoice(fy=0, fx=1, ry=1, rx=1)


class TestSpatialReuse:
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_taller_tiles_reuse_loads_better(self, fy, fx, ry):
        # Loads per FMA = (ry + Fy - 1) / (ry * Fy): decreasing in ry.
        short = TileChoice(fy, fx, ry, rx=1, vector_width=8)
        tall = TileChoice(fy, fx, ry + 1, rx=1, vector_width=8)
        assert tall.loads_per_fma <= short.loads_per_fma + 1e-12

    def test_single_tap_kernel_has_one_load_per_fma(self):
        tile = TileChoice(fy=1, fx=1, ry=4, rx=2, vector_width=8)
        assert tile.loads_per_fma == pytest.approx(1.0)


class TestTileOptimizer:
    def test_respects_register_budget(self):
        choice = optimize_register_tile(fy=3, fx=3, num_registers=16)
        assert choice.ry * choice.rx + 2 <= 16

    def test_prefers_tall_tiles_for_tall_kernels(self):
        # For Fy > 1 kernels the y-reuse pushes the optimizer to tall tiles.
        choice = optimize_register_tile(fy=5, fx=5, num_registers=16)
        assert choice.ry > choice.rx

    def test_optimum_beats_1x1_tile(self):
        choice = optimize_register_tile(fy=3, fx=3, num_registers=16)
        naive = TileChoice(3, 3, 1, 1, vector_width=8)
        assert choice.instructions_per_output <= naive.instructions_per_output

    def test_rejects_tiny_register_file(self):
        with pytest.raises(CodegenError):
            optimize_register_tile(fy=2, fx=2, num_registers=2)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_optimality(self, fy, fx):
        choice = optimize_register_tile(fy, fx, num_registers=16)
        budget = 16 - 2
        for ry in range(1, budget + 1):
            for rx in range(1, budget // ry + 1):
                cost = TileChoice(fy, fx, ry, rx, 8).instructions_per_output
                assert choice.instructions_per_output <= cost + 1e-12
