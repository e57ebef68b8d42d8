"""Tests for the schedulable loop IR: vocabulary and fingerprints."""

import pytest

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.stencil.loopir import (
    PARALLEL,
    REDUCE_ATOMIC,
    REDUCE_ORDERED,
    Dim,
    PoolWindow,
    conv_bp_data_nest,
    conv_bp_weights_nest,
    conv_fp_nest,
    fused_fp_nest,
    stable_fingerprint,
)

SPEC = ConvSpec(nc=3, ny=14, nx=14, nf=4, fy=3, fx=3)


class TestVocabulary:
    def test_dim_kinds_reject_unknown(self):
        with pytest.raises(CodegenError):
            Dim("oy", 4, "sideways")
        with pytest.raises(CodegenError):
            Dim("oy", 0, PARALLEL)

    def test_fp_nest_dim_kinds_encode_float_semantics(self):
        """The kinds are the legality oracle every pass consults."""
        stage = conv_fp_nest(SPEC).stages[0]
        kinds = {li.dim.name: li.dim.kind for li in stage.loops}
        # Output-plane dims: freely tileable/reorderable.
        assert kinds["oy"] == kinds["ox"] == kinds["f"] == PARALLEL
        # Taps accumulate in emission order: order is observable in fp32.
        assert kinds["ky"] == kinds["kx"] == REDUCE_ORDERED
        # Channels reduce inside one tensordot: cannot be split at all.
        assert kinds["c"] == REDUCE_ATOMIC

    def test_bp_weights_spatial_dims_are_atomic(self):
        """dw accumulates over the whole output plane inside each tap's
        tensordot, so oy/ox cannot be tiled for this family."""
        stage = conv_bp_weights_nest(SPEC).stages[0]
        kinds = {li.dim.name: li.dim.kind for li in stage.loops}
        assert kinds["oy"] == kinds["ox"] == REDUCE_ATOMIC

    def test_nests_carry_their_accesses(self):
        for builder in (conv_fp_nest, conv_bp_data_nest, conv_bp_weights_nest):
            stage = builder(SPEC).stages[0]
            assert stage.stmt.out.index, builder.__name__
            assert stage.stmt.reads, builder.__name__
            read_bufs = {a.buffer for a in stage.stmt.reads}
            assert stage.stmt.out.buffer not in read_bufs or stage.stmt.accumulate

    def test_fused_nest_has_three_stages_and_tile_scoped_act(self):
        nest = fused_fp_nest(SPEC, 2)
        assert nest.fused
        assert [s.name for s in nest.stages] == ["conv", "relu", "maxpool"]
        # The algorithm alone keeps act in memory; the fuse pass is what
        # rescopes it to one pool-row tile.
        from repro.stencil.loopir import GLOBAL, TILE
        from repro.stencil.passes import default_pipeline

        assert nest.buffer("act").scope == GLOBAL
        scheduled = default_pipeline(
            "fused_fp", pool_kernel=2, pool_stride=2
        ).build_nest(SPEC)
        assert scheduled.buffer("act").scope == TILE

    def test_pool_window_geometry(self):
        pool = PoolWindow(3, 2)
        assert pool.out_extent(7) == 3
        assert pool.rows_needed(3) == 7
        with pytest.raises(CodegenError):
            pool.out_extent(2)
        with pytest.raises(CodegenError):
            PoolWindow(0, 1)


class TestFingerprint:
    def test_stable_across_calls_and_length(self):
        fp = stable_fingerprint("conv 3x14x14")
        assert fp == stable_fingerprint("conv 3x14x14")
        assert len(fp) == 12
        assert len(stable_fingerprint("x", 16)) == 16

    def test_distinct_inputs_do_not_collide(self):
        assert stable_fingerprint("a") != stable_fingerprint("b")
