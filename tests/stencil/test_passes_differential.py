"""Differential pass-correctness suite (the schedulable-IR gate).

Every pipeline the schedule search can enumerate for the families the C
printer lowers (``fp`` and ``fused_fp`` at stride 1) -- default,
cache-derived tiling, structured tile/reorder/jam variants, register
budgets and vector widths, and the seeded-random samples -- must print
a unit whose output is *bitwise* identical to the default schedule's on
the same data.  Schedules only rearrange work the bit-exactness envelope
allows; any drift is a bug in a pass or the printer, not noise.
"""

import numpy as np
import pytest

from repro import native
from repro.nn.schedule import ScheduleSearch
from repro.ops.workspace import Workspace
from repro.stencil import emit_c
from repro.stencil.loopir import PoolWindow
from repro.stencil.passes import (
    IllegalSchedule,
    Reorder,
    SchedulePipeline,
    Tile,
    default_pipeline,
)
from tests.conftest import SMALL_SPECS, needs_cc, random_conv_data

#: Seeded searcher: its candidate sets include the random tile/order
#: samples, so iterating them exercises the whole enumerable space.
SEARCH = ScheduleSearch(seed=7, verify=False)

POOL = 2


def _zoo_specs():
    """The convs the tuned workloads deploy the C units on."""
    from repro.nn.zoo import cifar10_net, mnist_net

    return [layer.padded_spec for net in (cifar10_net(scale=0.25),
                                          mnist_net(scale=0.25))
            for layer in net.conv_layers()]


STRIDE_1 = [s for s in SMALL_SPECS + _zoo_specs() if (s.sy, s.sx) == (1, 1)]


def _unit(spec, pipeline, pool=None):
    unit, reason = native.kernels_for(emit_c.load_stencil_kernels, spec,
                                      pipeline, pool)
    assert unit is not None, reason
    return unit


def _fused(spec, pipeline, inputs, weights, bias):
    unit = _unit(spec, pipeline, PoolWindow(POOL, POOL))
    out, argmax, _ = unit.fused_forward(inputs, weights, bias,
                                        unit.scratch(Workspace()))
    return out, argmax


@needs_cc
@pytest.mark.parametrize("spec", STRIDE_1, ids=lambda s: s.describe())
class TestBitIdentity:
    def test_fp_candidates(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=2)
        want = _unit(spec, None).forward(inputs, weights)
        for pipeline in SEARCH.candidates(spec, "fp"):
            got = _unit(spec, pipeline).forward(inputs, weights)
            assert got.tobytes() == want.tobytes(), pipeline.describe()

    def test_fused_candidates(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=2)
        bias = rng.standard_normal(spec.nf).astype(np.float32)
        want = _fused(spec, None, inputs, weights, bias)
        for pipeline in SEARCH.candidates(spec, "fused_fp",
                                          pool_kernel=POOL,
                                          pool_stride=POOL):
            got = _fused(spec, pipeline, inputs, weights, bias)
            assert got[0].tobytes() == want[0].tobytes(), pipeline.describe()
            assert got[1].tobytes() == want[1].tobytes(), pipeline.describe()

    def test_fused_matches_unfused_chain(self, spec, rng):
        """Fusion is a schedule, not a new algorithm: the fused kernel
        must reproduce conv -> bias -> ReLU -> max-pool bit for bit."""
        inputs, weights, _ = random_conv_data(spec, rng, batch=2)
        bias = rng.standard_normal(spec.nf).astype(np.float32)
        got, got_arg = _fused(spec, None, inputs, weights, bias)
        conv = _unit(spec, None).forward(inputs, weights)
        act = np.maximum(conv + bias[None, :, None, None], 0)
        windows = np.lib.stride_tricks.sliding_window_view(
            act, (POOL, POOL), axis=(2, 3))[:, :, ::POOL, ::POOL]
        windows = windows.reshape(got.shape + (POOL * POOL,))
        want_arg = windows.argmax(axis=-1)
        want = np.take_along_axis(windows, want_arg[..., None],
                                  axis=-1)[..., 0]
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_arg, want_arg)


class TestIllegalSchedules:
    """Passes refuse work outside the bit-exactness envelope."""

    SPEC = SMALL_SPECS[1]

    def _run(self, family, *passes, **pool):
        # Pipelines are structurally closed (end in vectorize; fused
        # families carry fuse) -- the *application* is what must refuse.
        from repro.stencil.passes import Fuse, Vectorize

        tail = ((Fuse(1),) if family == "fused_fp" else ()) + (Vectorize(),)
        pipeline = SchedulePipeline(family=family,
                                    passes=tuple(passes) + tail, **pool)
        pipeline.build_nest(self.SPEC)

    def test_reduction_dims_do_not_tile(self):
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("c", 2))
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("ky", 2))

    def test_bp_weights_spatial_dims_do_not_tile(self):
        # oy/ox reduce inside each tap's tensordot for dw: atomic.
        with pytest.raises(IllegalSchedule):
            self._run("bp_weights", Tile("oy", 2))

    def test_taps_do_not_reorder_in_gather_nests(self):
        # fp taps accumulate into out in emission order: observable.
        with pytest.raises(IllegalSchedule):
            self._run("fp", Reorder(("f", "c", "kx", "ky", "oy", "ox")))

    def test_fused_nests_tile_only_pool_rows(self):
        with pytest.raises(IllegalSchedule):
            self._run("fused_fp", Tile("oy", 2),
                      pool_kernel=POOL, pool_stride=POOL)

    def test_double_tile_is_rejected(self):
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("oy", 2), Tile("oy", 2))

    def test_two_dim_spatial_tiling_is_rejected(self):
        # tile(oy)+tile(ox) shrinks the vector primitive's operands
        # enough to flip its internal FMA path: outside the envelope.
        with pytest.raises(IllegalSchedule):
            self._run("fp", Tile("oy", 2), Tile("ox", 2))

    def test_taps_do_reorder_in_scatter_free_nests(self):
        # The same permutation is legal for bp_weights: each tap writes
        # a disjoint dw slice, so tap order is unobservable there.
        default = default_pipeline("bp_weights")
        nest = default.base_nest(self.SPEC)
        names = tuple(li.dim.name for li in nest.stages[0].loops)
        assert names  # sanity: builds
        self._run("bp_weights", Reorder(("kx", "ky", "f", "c", "oy", "ox")))
