"""Tests for the reusable engine scratch workspace."""

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops.gemm_conv import GemmInParallelEngine
from repro.ops.workspace import Workspace
from repro.sparse.engine import SparseBPEngine
from tests.conftest import random_conv_data

SPEC = ConvSpec(nc=3, ny=10, nx=10, nf=4, fy=3, fx=3)


class TestWorkspace:
    def test_scratch_reuses_matching_geometry(self):
        ws = Workspace()
        first = ws.scratch("u", (4, 5), np.float32)
        again = ws.scratch("u", (4, 5), np.float32)
        assert again is first
        assert ws.allocations == 1
        assert ws.reuse_hits == 1

    def test_scratch_reallocates_on_geometry_change(self):
        ws = Workspace()
        first = ws.scratch("u", (4, 5), np.float32)
        other = ws.scratch("u", (4, 5), np.float64)
        assert other is not first
        third = ws.scratch("u", (5, 4), np.float64)
        assert third is not other
        assert ws.allocations == 3
        assert ws.reuse_hits == 0

    def test_zeros_clears_previous_contents(self):
        ws = Workspace()
        buf = ws.zeros("acc", (3, 3), np.float32)
        buf[...] = 42.0
        again = ws.zeros("acc", (3, 3), np.float32)
        assert again is buf
        np.testing.assert_array_equal(again, np.zeros((3, 3), np.float32))

    def test_tags_are_independent(self):
        ws = Workspace()
        a = ws.scratch("a", (2,), np.float32)
        b = ws.scratch("b", (2,), np.float32)
        assert a is not b
        assert len(ws) == 2

    def test_release_drops_buffers(self):
        ws = Workspace()
        ws.scratch("a", (8,), np.float64)
        assert ws.nbytes == 64
        ws.release()
        assert len(ws) == 0
        assert ws.nbytes == 0
        # Next request reallocates cleanly.
        ws.scratch("a", (8,), np.float64)
        assert ws.allocations == 2


def test_zeroed_once_zeroes_on_allocation_only():
    ws = Workspace()
    buf = ws.zeroed_once("plane", (4, 4), np.float32)
    assert not buf.any()
    buf[1:3, 1:3] = 7.0
    again = ws.zeroed_once("plane", (4, 4), np.float32)
    assert again is buf and again[1, 1] == 7.0 and again[0, 0] == 0.0
    # A new geometry is a new, zeroed buffer ...
    assert not ws.zeroed_once("plane", (5, 4), np.float32).any()
    # ... and so is the first request after a release.
    ws.zeroed_once("plane", (5, 4), np.float32)[:] = 1.0
    ws.release()
    assert not ws.zeroed_once("plane", (5, 4), np.float32).any()


class TestEngineWorkspaceReuse:
    def test_gemm_engine_reuses_buffers_across_batches(self, rng):
        inputs, weights, err = random_conv_data(SPEC, rng, batch=3)
        engine = GemmInParallelEngine(SPEC)
        engine.forward(inputs, weights)
        engine.backward_data(err, weights)
        allocations = engine.workspace.allocations
        engine.forward(inputs, weights)
        engine.backward_data(err, weights)
        assert engine.workspace.allocations == allocations
        assert engine.workspace.reuse_hits > 0

    def test_sparse_engine_reuses_buffers_across_batches(self, rng):
        inputs, weights, err = random_conv_data(
            SPEC, rng, batch=3, error_sparsity=0.5
        )
        engine = SparseBPEngine(SPEC)
        engine.backward_data(err, weights)
        engine.backward_weights(err, inputs)
        allocations = engine.workspace.allocations
        engine.backward_data(err, weights)
        engine.backward_weights(err, inputs)
        assert engine.workspace.allocations == allocations

    def test_release_workspace_then_recompute(self, rng):
        inputs, weights, _ = random_conv_data(SPEC, rng, batch=2)
        engine = GemmInParallelEngine(SPEC)
        expected = engine.forward(inputs, weights)
        engine.release_workspace()
        np.testing.assert_array_equal(engine.forward(inputs, weights),
                                      expected)
