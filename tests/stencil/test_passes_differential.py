"""Differential gate over the printed stencil units.

A host prints its ``fp`` and ``fused_fp`` units vectorized for its own
register file (:func:`repro.stencil.emit_c.host_pipeline`), so a host
only ever runs one of the files :func:`repro.native.vector_registers`
can return.  Every one of them must print a unit whose output is
*bitwise* identical to this host's default on the same data: the FMA
order per output element is the printer's constant, and the register
file moves only where the blocks are laid.  Any drift is a bug in the
printer, not noise.
"""

import dataclasses

import numpy as np
import pytest

from repro import native
from repro.errors import CodegenError
from repro.ops.workspace import Workspace
from repro.stencil import emit_c
from repro.stencil.loopir import PoolWindow, conv_fp_nest, fused_fp_nest
from repro.stencil.passes import (
    Fuse,
    IllegalSchedule,
    SchedulePipeline,
    Vectorize,
    default_pipeline,
)
from tests.conftest import SMALL_SPECS, needs_cc, random_conv_data

POOL = 2

#: Every ``(registers, floats per vector)`` a host can print for.
REGISTER_FILES = [(32, 16), (16, 8), (16, 4)]


def _zoo_specs():
    """The convs the tuned workloads deploy the C units on."""
    from repro.nn.zoo import cifar10_net, mnist_net

    return [layer.padded_spec for net in (cifar10_net(scale=0.25),
                                          mnist_net(scale=0.25))
            for layer in net.conv_layers()]


STRIDE_1 = [s for s in SMALL_SPECS + _zoo_specs() if (s.sy, s.sx) == (1, 1)]


def _host_unit(spec, pool=None):
    unit, reason = native.kernels_for(emit_c.load_stencil_kernels, spec, pool)
    assert unit is not None, reason
    return unit


def _printed_unit(spec, pipeline):
    """The unit ``pipeline`` prints for ``spec``, loaded as it is; this
    gate, not the build's self-check, judges its bits."""
    return native.load_kernels(
        emit_c.NativeStencilKernels, spec,
        emit_c.emit_stencil_c_unit(spec, pipeline), lambda kernels: None)


def _fused(unit, inputs, weights, bias):
    out, argmax, _ = unit.fused_forward(inputs, weights, bias,
                                        unit.scratch(Workspace()))
    return out, argmax


@needs_cc
@pytest.mark.parametrize("spec", STRIDE_1, ids=lambda s: s.describe())
class TestBitIdentity:
    def test_fp_at_every_register_file(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=2)
        want = _host_unit(spec).forward(inputs, weights)
        for registers in REGISTER_FILES:
            pipeline = SchedulePipeline("fp", (Vectorize(*registers),))
            got = _printed_unit(spec, pipeline).forward(inputs, weights)
            assert got.tobytes() == want.tobytes(), pipeline.describe()

    def test_fused_at_every_register_file(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=2)
        bias = rng.standard_normal(spec.nf).astype(np.float32)
        want = _fused(_host_unit(spec, PoolWindow(POOL, POOL)),
                      inputs, weights, bias)
        for registers in REGISTER_FILES:
            pipeline = SchedulePipeline(
                "fused_fp", (Fuse(), Vectorize(*registers)),
                pool_kernel=POOL, pool_stride=POOL)
            got = _fused(_printed_unit(spec, pipeline), inputs, weights, bias)
            assert got[0].tobytes() == want[0].tobytes(), pipeline.describe()
            assert got[1].tobytes() == want[1].tobytes(), pipeline.describe()

    def test_fused_matches_unfused_chain(self, spec, rng):
        """Fusion is a schedule, not a new algorithm: the fused kernel
        must reproduce conv -> bias -> ReLU -> max-pool bit for bit."""
        inputs, weights, _ = random_conv_data(spec, rng, batch=2)
        bias = rng.standard_normal(spec.nf).astype(np.float32)
        got, got_arg = _fused(_host_unit(spec, PoolWindow(POOL, POOL)),
                              inputs, weights, bias)
        conv = _host_unit(spec).forward(inputs, weights)
        act = np.maximum(conv + bias[None, :, None, None], 0)
        windows = np.lib.stride_tricks.sliding_window_view(
            act, (POOL, POOL), axis=(2, 3))[:, :, ::POOL, ::POOL]
        windows = windows.reshape(got.shape + (POOL * POOL,))
        want_arg = windows.argmax(axis=-1)
        want = np.take_along_axis(windows, want_arg[..., None],
                                  axis=-1)[..., 0]
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_arg, want_arg)


def test_pipelines_the_printer_cannot_lower_are_refused():
    """A pipeline must end in its one vectorize pass, and a fused one
    must fuse: neither can be built otherwise."""
    with pytest.raises(CodegenError, match="vectorize"):
        SchedulePipeline("fp", ())
    with pytest.raises(CodegenError, match="vectorize"):
        SchedulePipeline("fused_fp", (Vectorize(), Fuse()),
                         pool_kernel=POOL, pool_stride=POOL)
    with pytest.raises(CodegenError, match="must contain fuse"):
        SchedulePipeline("fused_fp", (Vectorize(),),
                         pool_kernel=POOL, pool_stride=POOL)


class TestIllegalSchedules:
    """Passes and pipelines refuse what the C printers do not lower."""

    SPEC = SMALL_SPECS[1]

    def test_a_nest_is_vectorized_once(self):
        nest = default_pipeline("fp").build_nest(self.SPEC)
        assert nest.vectorized
        with pytest.raises(IllegalSchedule, match="already vectorized"):
            Vectorize().apply(nest)

    def test_fuse_needs_a_pooled_program(self):
        with pytest.raises(IllegalSchedule, match="fuse requires"):
            Fuse().apply(conv_fp_nest(self.SPEC))

    def test_fuse_needs_the_conv_relu_maxpool_chain(self):
        nest = fused_fp_nest(self.SPEC, POOL)
        conv, relu, pool = nest.stages
        swapped = dataclasses.replace(nest, stages=(conv, pool, relu))
        with pytest.raises(IllegalSchedule, match="unexpected stage chain"):
            Fuse().apply(swapped)

    def test_fuse_is_legal_only_in_the_fused_family(self):
        with pytest.raises(CodegenError, match="only legal in the fused_fp"):
            SchedulePipeline("fp", (Fuse(), Vectorize()))

    def test_the_fused_family_needs_a_pool_kernel(self):
        with pytest.raises(CodegenError, match="needs pool_kernel"):
            SchedulePipeline("fused_fp", (Fuse(), Vectorize()))

    def test_sparse_pipelines_take_no_passes(self):
        assert default_pipeline("sparse_bp_weights").passes == ()
        with pytest.raises(CodegenError, match="take no passes"):
            SchedulePipeline("sparse_bp_data", (Vectorize(),))

    def test_families_without_a_printer_have_no_pipeline(self):
        # The stencil engine serves its backward phases from
        # ops.reference: no unit is printed for them, so no schedule
        # names one.
        for family in ("bp_data", "bp_weights"):
            with pytest.raises(CodegenError, match="unknown pipeline family"):
                default_pipeline(family)
