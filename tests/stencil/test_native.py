"""The stencil FP kernels' C lowering (``repro.native`` + ``stencil.emit_c``).

What is pinned here, for the plain FP kernel and the fused
conv + ReLU + pool kernel:

* the compiled kernels compute Eq. 2 for any stride-1 geometry (a seeded
  Hypothesis differential against ``ops.reference``: row lengths that are
  no multiple of any vector width, feature and row counts that are no
  multiple of the accumulator block, 1 and 3 channels, non-square
  kernels and images, 1 x 1 and full-image kernels, batches 0, 1 and 3);
* equal artefacts compute equal bits -- across batch composition,
  reloads, pickling, a conv run fused vs as its chain, and
  serial/thread/process execution of one split;
* every way the native path can be unavailable ends on
  ``ops.reference`` with ``lowering == "reference"`` and the reason
  recorded;
* ``optimize()`` builds the units, a recheck compiles nothing, and a
  replica that loads another artefact is reported and quarantined.

Cases that need a compiler are skipped without one; every test runs on
a cache directory of its own.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native, telemetry
from repro.core.autotuner import CostBackend
from repro.core.convspec import ConvSpec
from repro.core.framework import SpgCNN
from repro.data.synthetic import cifar10_like
from repro.errors import CodegenError, ShapeError
from repro.nn.layers.activations import ReLULayer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.fused import fuse_conv_relu_pool
from repro.nn.layers.pool import MaxPoolLayer
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net
from repro.ops import reference as ref
from repro.ops.engine import make_engine
from repro.ops.workspace import Workspace
from repro.resilience.quarantine import default_registry
from repro.stencil import emit_c
from repro.stencil.loopir import PoolWindow
from repro.stencil.passes import SchedulePipeline, Vectorize
from tests.conftest import (
    SMALL_SPECS,
    fake_compiler,
    needs_cc,
    random_conv_data,
)

#: Tails in every blocked dim on every host: 5 features, 7 x 6 outputs.
SPEC = ConvSpec(nc=3, ny=9, nx=8, nf=5, fy=3, fx=3)
STRIDE_1 = [s for s in SMALL_SPECS if (s.sy, s.sx) == (1, 1)]


@pytest.fixture(autouse=True)
def cache(tmp_path, monkeypatch):
    """A private, empty unit cache (and no memo of earlier loads)."""
    directory = tmp_path / "native-cache"
    monkeypatch.setenv(native.CACHE_ENV, str(directory))
    native._resolved.cache_clear()
    yield directory
    native._resolved.cache_clear()


def _units(directory):
    return sorted(p.name for p in directory.glob("*.so"))


def _oracle(spec, inputs, weights):
    if not len(inputs):
        return np.zeros((0,) + spec.output_shape, np.float32)
    return np.stack([ref.forward(spec, x, weights) for x in inputs])


def _fused_unit(spec, kernel=2, stride=2):
    """``(unit, reason)`` of the fused conv + ReLU + pool C unit."""
    return native.kernels_for(emit_c.load_stencil_kernels, spec,
                              PoolWindow(kernel, stride))


def _chain(spec, pool_kernel, pool_stride, rng):
    """A stencil-FP conv -> ReLU -> pool chain and, over a twin of the
    conv with the same parameters, its fused run; random weights and a
    trained-looking bias."""
    convs = [ConvLayer(spec, fp_engine="stencil", bp_engine="stencil")
             for _ in range(2)]
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    bias = rng.standard_normal(spec.nf).astype(np.float32)
    for conv in convs:
        conv.weights, conv.bias = weights.copy(), bias.copy()
    pool = MaxPoolLayer(pool_kernel, pool_stride)
    return convs[0], ReLULayer(), pool, fuse_conv_relu_pool(convs[1], pool)


# -- differential ---------------------------------------------------------------

@st.composite
def native_cases(draw):
    """``(pre-padded stride-1 spec, batch)``."""
    ny, nx = draw(st.integers(1, 12)), draw(st.integers(1, 21))
    full = draw(st.sampled_from((False, False, False, True)))
    return ConvSpec(
        nc=draw(st.sampled_from((1, 3))), ny=ny, nx=nx,
        nf=draw(st.integers(1, 9)),
        fy=ny if full else draw(st.integers(1, min(ny, 5))),
        fx=nx if full else draw(st.integers(1, min(nx, 5))),
    ), draw(st.sampled_from((0, 1, 3)))


@needs_cc
@given(case=native_cases(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_native_forward_matches_the_reference(case, seed):
    spec, batch = case
    rng = np.random.default_rng(seed)
    inputs, weights, _ = random_conv_data(spec, rng, batch=batch)
    engine = make_engine("stencil", spec)
    assert engine.lowering == "c", engine.lowering_reason
    got = engine.forward(inputs, weights)
    assert got.shape == (batch,) + spec.output_shape
    np.testing.assert_allclose(got, _oracle(spec, inputs, weights),
                               atol=2e-3, err_msg=spec.describe())


@needs_cc
@given(case=native_cases(), window=st.sampled_from(((2, 2), (3, 2), (2, 1))),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_native_fused_kernel_matches_the_reference(case, window, seed):
    spec, batch = case
    kernel, stride = window
    if min(spec.out_ny, spec.out_nx) < kernel:
        return
    rng = np.random.default_rng(seed)
    inputs, weights, _ = random_conv_data(spec, rng, batch=batch)
    layer, pool = ConvLayer(spec, fp_engine="stencil"), MaxPoolLayer(kernel,
                                                                     stride)
    assert layer.fused_unit(pool) is not None, _fused_unit(spec, *window)[1]
    layer.weights = weights
    layer.bias = rng.standard_normal(spec.nf).astype(np.float32)
    got = layer.forward(inputs, pool=pool)
    act = np.maximum(_oracle(spec, inputs, weights)
                     + layer.bias[None, :, None, None], 0)
    want = MaxPoolLayer(kernel, stride).forward(act)
    np.testing.assert_allclose(got, want, atol=2e-3,
                               err_msg=spec.describe())


@pytest.mark.parametrize("extent,widest,want", [
    (24, 16, [(0, 16), (16, 8)]), (32, 16, [(0, 16), (16, 16)]),
    (13, 8, [(0, 8), (8, 4), (12, 1)]), (3, 16, [(0, 2), (2, 1)]),
])
def test_rows_are_vectors_with_narrower_tails(extent, widest, want):
    assert emit_c._row_chunks(extent, widest) == want


def test_accumulator_block_fits_the_schedules_budget():
    for registers in range(3, 40):
        pipeline = SchedulePipeline("fp", (Vectorize(registers, 8),))
        for spec in STRIDE_1:
            nest = pipeline.build_nest(spec)
            for rows in (1, 2, spec.out_ny):
                features, block_rows = emit_c.accumulator_block(nest, rows)
                assert 1 <= features <= spec.nf and 1 <= block_rows <= rows
                used = features * block_rows + block_rows + spec.fy - 1 + 1
                assert used <= registers or features == block_rows == 1


# -- equal artefacts, equal bits ------------------------------------------------

@needs_cc
@pytest.mark.parametrize("spec", STRIDE_1, ids=lambda s: s.describe())
def test_an_images_result_equals_its_singleton_call(spec, rng):
    inputs, weights, _ = random_conv_data(spec, rng, batch=5)
    engine = make_engine("stencil", spec)
    assert engine.lowering == "c"
    batched = engine.forward(inputs, weights)
    for i in range(len(inputs)):
        alone = make_engine("stencil", spec).forward(inputs[i:i + 1], weights)
        assert batched[i].tobytes() == alone[0].tobytes()
    assert engine.forward(inputs[1:3], weights).tobytes() == \
        batched[1:3].tobytes()


@needs_cc
def test_reloaded_and_pickled_engines_compute_the_same_bits(rng):
    inputs, weights, _ = random_conv_data(SPEC, rng, batch=3)
    first = make_engine("stencil", SPEC)
    out = first.forward(inputs, weights)
    native._resolved.cache_clear()                      # as a new process
    again = make_engine("stencil", SPEC)
    assert again.artifact == first.artifact is not None
    assert again.forward(inputs, weights).tobytes() == out.tobytes()
    clone = pickle.loads(pickle.dumps(first))
    assert clone.lowering == "c" and clone.artifact == first.artifact
    assert clone.forward(inputs, weights).tobytes() == out.tobytes()


@needs_cc
@pytest.mark.parametrize("window", [(2, 2), (3, 2)], ids=["2/2", "3/2"])
@pytest.mark.parametrize("spec", [
    ConvSpec(nc=3, ny=12, nx=11, nf=5, fy=3, fx=3, pad=1, name="c"),
    ConvSpec(nc=1, ny=28, nx=28, nf=6, fy=5, fx=5, name="mnist-like"),
], ids=lambda s: s.name)
def test_fused_equals_chain_bitwise_under_the_c_lowering(spec, window, rng):
    conv, relu, pool, fused = _chain(spec, *window, rng)
    assert conv.fp_lowering == "c" and fused.conv.fused_unit(pool) is not None
    x = rng.standard_normal((3,) + spec.input_shape).astype(np.float32)
    got = fused.forward(x)
    unit, _, argmax = fused.conv._pooled
    assert unit is not None                     # it ran fused
    want = pool.forward(relu.forward(conv.forward(x)))
    assert got.tobytes() == want.tobytes()
    # The argmax the fused backward scatters by is the chain's.
    selected = np.take_along_axis(
        np.lib.stride_tricks.sliding_window_view(
            relu.forward(conv.forward(x)), (pool.kernel,) * 2, axis=(2, 3)
        )[:, :, ::pool.stride, ::pool.stride].reshape(got.shape + (-1,)),
        argmax[..., None], axis=-1)[..., 0]
    assert selected.tobytes() == want.tobytes()
    err = rng.standard_normal(want.shape).astype(np.float32)
    want_err = conv.backward(relu.backward(pool.backward(err)))
    got_err = fused.backward(err)
    assert got_err.tobytes() == want_err.tobytes()
    assert fused.conv.d_weights.tobytes() == conv.d_weights.tobytes()
    assert fused.conv.d_bias.tobytes() == conv.d_bias.tobytes()


# -- choosing the lowering ------------------------------------------------------

def _assert_reference_serves(engine, rng, spec=SPEC):
    assert engine.lowering == "reference" and engine.artifact is None
    assert engine.lowering_reason
    inputs, weights, _ = random_conv_data(spec, rng, batch=2)
    np.testing.assert_allclose(engine.forward(inputs, weights),
                               _oracle(spec, inputs, weights), atol=2e-3)


class TestFallback:
    def test_no_compiler(self, monkeypatch, cache, rng):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        engine = make_engine("stencil", SPEC)
        _assert_reference_serves(engine, rng)
        assert "no C compiler" in engine.lowering_reason
        assert "no C compiler" in _fused_unit(SPEC)[1]
        conv = ConvLayer(SPEC, fp_engine="stencil")
        assert conv.fused_unit(MaxPoolLayer(2)) is None
        assert not cache.exists()

    def test_compiler_that_exits_1(self, monkeypatch, tmp_path, cache, rng):
        fake = fake_compiler(tmp_path, 'echo "boom" >&2; exit 1')
        monkeypatch.setattr(native, "find_compiler", lambda: fake)
        engine = make_engine("stencil", SPEC)
        _assert_reference_serves(engine, rng)
        assert "exited 1" in engine.lowering_reason
        assert list(cache.iterdir()) == []      # no temp left behind either

    def test_strided_spec_is_served_by_the_reference(self, cache, rng):
        spec = SMALL_SPECS[2]
        assert (spec.sy, spec.sx) == (2, 2)
        engine = make_engine("stencil", spec)
        _assert_reference_serves(engine, rng, spec)
        assert "stride-1" in engine.lowering_reason
        assert "stride-1" in _fused_unit(spec)[1]
        assert not cache.exists()

    @needs_cc
    def test_truncated_cached_unit(self, cache, rng):
        assert make_engine("stencil", SPEC).lowering == "c"
        (unit,) = cache.glob("*.so")
        # A new inode: the unit above is still mapped into this process,
        # and truncating a mapped file in place is a SIGBUS at exit.
        stub = unit.with_suffix(".tmp")
        stub.write_bytes(unit.read_bytes()[:100])
        os.replace(stub, unit)
        native._resolved.cache_clear()
        engine = make_engine("stencil", SPEC)
        _assert_reference_serves(engine, rng)
        assert "cannot load" in engine.lowering_reason

    @needs_cc
    def test_unit_failing_its_self_check_never_enters_the_cache(
            self, monkeypatch, cache, rng):
        def reject(kernels, pool):
            raise native.NativeBuildError("planted disagreement")

        monkeypatch.setattr(emit_c, "_self_check", reject)
        engine = make_engine("stencil", SPEC)
        _assert_reference_serves(engine, rng)
        assert "planted disagreement" in engine.lowering_reason
        assert list(cache.iterdir()) == []

    @needs_cc
    @pytest.mark.parametrize("build", [
        lambda spec: (lambda e: (e.lowering, e.lowering_reason))(
            make_engine("stencil", spec)),
        lambda spec: (lambda unit, reason: (
            "reference" if unit is None else "c", reason))(*_fused_unit(spec)),
    ], ids=["fp", "fused"])
    def test_self_check_catches_a_shifted_tap(self, monkeypatch, build):
        real = emit_c._block_function

        def shifted(*args):
            # Row 1's taps read row 0's weights: in bounds, wrong tap.
            name, lines = real(*args)
            assert any("_TAP_W[t + 1]]" in line for line in lines)
            return name, [line.replace("_TAP_W[t + 1]]", "_TAP_W[t + 0]]")
                          for line in lines]

        monkeypatch.setattr(emit_c, "_block_function", shifted)
        emit_c.emit_stencil_c_unit.cache_clear()
        try:
            built = build(ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3))
        finally:
            emit_c.emit_stencil_c_unit.cache_clear()
        lowering, reason = built
        assert lowering == "reference"
        assert "disagrees with the reference" in reason

    @needs_cc
    def test_foreign_operands_take_the_reference_per_call(self, rng):
        inputs, weights, _ = random_conv_data(SPEC, rng, batch=2)
        engine = make_engine("stencil", SPEC)
        assert engine.lowering == "c"
        served = engine.forward(inputs, weights)
        wide = engine.forward(inputs.astype(np.float64), weights)
        assert wide.dtype == np.float64           # the reference's
        np.testing.assert_allclose(wide, served, atol=1e-4)
        strided = np.ascontiguousarray(inputs.transpose(0, 1, 3, 2)) \
            .transpose(0, 1, 3, 2)
        assert not strided.flags.c_contiguous
        np.testing.assert_allclose(engine.forward(strided, weights), served,
                                   atol=1e-4)
        conv, pool = ConvLayer(SPEC, fp_engine="stencil"), MaxPoolLayer(2)
        assert conv.fused_unit(pool) is not None
        wide = conv.forward(inputs.astype(np.float64), pool=pool)
        assert conv._pooled[0] is None           # the chain served it
        np.testing.assert_allclose(wide, conv.forward(inputs, pool=pool),
                                   atol=1e-4)
        assert conv._pooled[0] is not None


@needs_cc
class TestForeignCallGuards:
    """The kernel wrappers check everything before the C call."""

    def test_wrong_operands_are_refused(self, rng):
        inputs, weights, _ = random_conv_data(SPEC, rng, batch=2)
        kernels = make_engine("stencil", SPEC)._native
        for bad in (inputs.astype(np.float64), inputs[:, :, :-1],
                    inputs[:, :, ::-1]):
            with pytest.raises(ShapeError):
                kernels.forward(bad, weights)
        with pytest.raises(ShapeError):
            kernels.forward(inputs, weights[:, :, :, :-1])

    def test_fused_kernel_checks_bias_and_scratch_too(self, rng):
        inputs, weights, _ = random_conv_data(SPEC, rng, batch=2)
        bias = np.zeros(SPEC.nf, np.float32)
        kernels = _fused_unit(SPEC)[0]
        scratch = kernels.scratch(Workspace())
        kernels.fused_forward(inputs, weights, bias, scratch)
        with pytest.raises(ShapeError):
            kernels.fused_forward(inputs[:, :1], weights, bias, scratch)
        with pytest.raises(ShapeError):
            kernels.fused_forward(inputs, weights, bias[:-1], scratch)
        with pytest.raises(ShapeError):
            kernels.fused_forward(inputs, weights, bias, scratch[:-1])
        with pytest.raises(ShapeError):
            kernels.fused_forward(inputs, weights, bias.astype(np.float64), scratch)

    def test_fused_backward_checks_the_argmax_too(self, rng):
        inputs, weights, _ = random_conv_data(SPEC, rng, batch=2)
        kernels = _fused_unit(SPEC)[0]
        out, argmax, _ = kernels.fused_forward(
            inputs, weights, np.zeros(SPEC.nf, np.float32),
            kernels.scratch(Workspace()))
        err = np.ones_like(out)
        assert kernels.unpool(out, argmax, err)[1] == 0
        for bad in ((out, argmax.astype(np.int32), err),
                    (out, argmax, err[:, :, ::-1]),
                    (out, argmax, err[:1]),
                    (out[..., :-1], argmax, err)):
            with pytest.raises(ShapeError):
                kernels.unpool(*bad)
        # An index naming no window element is left out and counted,
        # never written outside the error it is handed.
        argmax[0, 0, 0, 0] = 4
        assert kernels.unpool(out, argmax, err)[1] == 1
        argmax[0, 0, 0, 0] = 255
        assert kernels.unpool(out, argmax, err)[1] == 1

    def test_window_indices_take_one_byte_and_survive_unpool(self, rng):
        """Both pooling units store each window's index in one byte, and
        their scatter routes it as the chain's unpool does; an index
        wider than a byte is refused."""
        inputs, weights, _ = random_conv_data(SPEC, rng, batch=2)
        bias = rng.standard_normal(SPEC.nf).astype(np.float32)
        fused = _fused_unit(SPEC, 3, 2)[0]
        epilogue, reason = native.kernels_for(
            emit_c.load_epilogue_kernels, SPEC, PoolWindow(3, 2))
        assert epilogue is not None, reason
        act = ref.batch_forward(SPEC, inputs, weights)
        for out, argmax, _ in (
                fused.fused_forward(inputs, weights, bias,
                                    fused.scratch(Workspace())),
                epilogue.pool(act, bias)):
            assert argmax.dtype == np.uint8 and argmax.max() < 9
            err = rng.standard_normal(out.shape).astype(np.float32)
            conv_error, rejected = epilogue.unpool(out, argmax, err)
            assert rejected == 0
            assert conv_error.tobytes() == ref.unpool(
                out, argmax, err, 3, 2, act.shape).tobytes()
            with pytest.raises(ShapeError):
                epilogue.unpool(out, argmax.astype(np.int64), err)

    def test_a_window_one_byte_cannot_index_is_refused_at_build(self):
        spec = ConvSpec(nc=1, ny=20, nx=20, nf=2, fy=3, fx=3)
        emit_c.emit_epilogue_c_unit(spec, PoolWindow(16, 2))    # 256
        for emit in (
                lambda: emit_c.emit_epilogue_c_unit(spec, PoolWindow(17, 1)),
                lambda: emit_c.emit_stencil_c_unit(
                    spec, emit_c.host_pipeline("fused_fp", 17, 1))):
            with pytest.raises(CodegenError, match="one-byte"):
                emit()
        unit, reason = native.kernels_for(emit_c.load_epilogue_kernels,
                                          spec, PoolWindow(17, 1))
        assert unit is None and "one-byte" in reason


# -- deployment -------------------------------------------------------------------

class _Table(CostBackend):
    def __init__(self, costs):
        self.costs = costs

    def time(self, technique, phase, spec, sparsity):
        return self.costs.get((phase, technique), 1.0)


@needs_cc
class TestDeployment:
    def test_optimize_builds_and_deploys_a_recheck_compiles_nothing(
            self, cache, monkeypatch):
        net = cifar10_net(scale=0.25, rng=np.random.default_rng(0))
        spg = SpgCNN(net, _Table({("fp", "stencil"): 0.1}), recheck_epochs=1)
        # One engine per candidate, as the measuring backend builds them.
        for layer in net.conv_layers():
            make_engine("stencil", layer.padded_spec)
        plan = spg.optimize()
        assert [p.fp_engine for p in plan.layers] == ["stencil", "stencil"]
        assert [p.fp_lowering for p in plan.layers] == ["c", "c"]
        assert sum("stencil_fp" in name for name in _units(cache)) == 2
        # Both convs run fused, their units built in set-up.
        fused = [name for name in _units(cache) if "fused_fp" in name]
        assert len(fused) == 2
        assert all(p.fused and any(p.fused in name for name in fused)
                   for p in plan.layers)

        def no_compile(*args):
            raise AssertionError("a recheck compiled")

        monkeypatch.setattr(native, "_compile", no_compile)
        spg.after_epoch(1)
        assert [p.fp_lowering for p in spg.plan.layers] == ["c", "c"]

    def test_layer_reports_its_fp_lowering(self, rng):
        spec = ConvSpec(nc=3, ny=8, nx=8, nf=4, fy=3, fx=3, pad=1, name="c0")
        layer = ConvLayer(spec, fp_engine="stencil", rng=rng)
        assert layer.fp_lowering == "c" and layer.bp_lowering is None
        options = dict(layer.structure()[2])
        assert options["fp_artifact"] == layer.fp_artifact is not None
        assert options["bp_artifact"] is None
        x = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
        with telemetry.collect() as tel:
            layer.forward(x)
        (span,) = tel.find_spans("c0/fp")
        assert span.attrs["engine"] == "stencil"
        assert span.attrs["lowering"] == "c"
        gemm = ConvLayer(spec, rng=rng)
        assert gemm.fp_lowering is None and gemm.fp_artifact is None

    def test_lowering_is_reported_for_the_phase_the_unit_serves(self, rng):
        """The stencil engine's C unit is its FP kernel (its BP is the
        reference's), the sparse engine's its BP kernels: the other phase
        reports no lowering and ships no artefact, so a replica is never
        degraded over machine code that phase does not run."""
        spec = ConvSpec(nc=3, ny=8, nx=8, nf=4, fy=3, fx=3, pad=1, name="c0")
        layer = ConvLayer(spec, fp_engine="sparse", bp_engine="stencil",
                          rng=rng)
        assert layer._fp_engine.lowering == layer._bp_engine.lowering == "c"
        assert layer.fp_lowering is None and layer.bp_lowering is None
        options = dict(layer.structure()[2])
        assert options["fp_artifact"] is None is options["bp_artifact"]
        x = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
        with telemetry.collect() as tel:
            layer.backward(np.ones_like(layer.forward(x, training=True)))
        (span,) = tel.find_spans("c0/bp")
        assert span.attrs["engine"] == "stencil"
        assert span.attrs["lowering"] is None

    def test_a_fusing_conv_ships_the_chains_structure(self, rng):
        """Fused or not, a conv describes the chain its replicas run: the
        FP artefact is the stencil unit's, not the fused one's."""
        conv, pool = ConvLayer(SPEC, name="f0", fp_engine="stencil"), \
            MaxPoolLayer(2)
        unit = conv.fused_unit(pool)
        assert unit is not None and unit.artifact != conv.fp_artifact
        before = conv.structure()
        with telemetry.collect() as tel:
            conv.forward(rng.standard_normal(
                (2,) + SPEC.input_shape).astype(np.float32), pool=pool)
        assert conv.structure() == before
        assert dict(before[2])["fp_artifact"] == conv.fp_artifact
        (span,) = tel.find_spans("f0/fp")
        assert span.attrs["lowering"] == "c"
        assert span.attrs["fused"] == "relu+pool"


def _stencil_cifar(threads, backend, fuse=True):
    net = cifar10_net(scale=0.25, rng=np.random.default_rng(3),
                      threads=threads, backend=backend)
    for layer in net.conv_layers():
        layer.set_fp_engine("stencil")
        if not fuse:
            layer.fused_unit = lambda pool: None
    return net


def _train(net, steps=3, batch=6):
    data = cifar10_like(steps * batch, seed=3)
    trainer = SGDTrainer(net, learning_rate=0.01)
    losses = []
    try:
        for i in range(steps):
            lo = i * batch
            losses.append(trainer.step(data.images[lo:lo + batch],
                                       data.labels[lo:lo + batch]).loss)
        return {"losses": losses,
                "grads": [g.tobytes() for _, _, g in net.parameters()],
                "params": [p.tobytes() for _, p, _ in net.parameters()],
                "lowerings": [l.fp_lowering for l in net.conv_layers()],
                "engines": [l.fp_engine_name for l in net.conv_layers()]}
    finally:
        for layer in net.layers:
            if hasattr(layer, "close"):
                layer.close()


@needs_cc
class TestShardedStep:
    def test_stencil_fp_is_bitwise_across_backends_on_the_same_split(self):
        serial = _train(_stencil_cifar(2, "serial"))
        assert serial["lowerings"] == ["c", "c"]
        assert serial["engines"] == ["stencil", "stencil"]
        assert all(np.isfinite(serial["losses"]))
        for backend in ("thread", "process"):
            assert _train(_stencil_cifar(2, backend)) == serial, backend
        assert not default_registry().records()

    def test_worker_fp_spans_carry_the_lowering(self):
        net = _stencil_cifar(2, "thread")
        with telemetry.collect() as tel:
            _train(net, steps=1)
        spans = [s for s in tel.spans if s.name.startswith("conv0/fp")]
        assert spans and all(s.attrs["lowering"] == "c" for s in spans)

    def test_replica_without_the_parents_fp_artefact_reports_a_failure(
            self, monkeypatch):
        net = _stencil_cifar(2, "thread")
        names = [layer.name for layer in net.conv_layers()]
        # From here on nothing native can be built or found: the
        # replicas of the step below come up on the reference.
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        with telemetry.collect() as tel:
            state = _train(net, steps=2)
        assert all(np.isfinite(state["losses"]))
        assert state["engines"] == ["reference", "reference"]
        for name in names:
            assert default_registry().is_quarantined(name, "fp", "stencil")
        reasons = [e.attrs["reason"] for e in tel.events
                   if e.name == "engine.fallback"]
        assert len(reasons) == 2
        assert all("replica loaded FP artefact None" in reason
                   and "planned on" in reason for reason in reasons)

    def test_a_conv_whose_fused_unit_cannot_be_had_runs_the_chain(
            self, monkeypatch):
        """FP deployed on the C stencil unit, and then no compiler for the
        fused one: the inline step runs the chain, with the numbers of a
        network that never fuses."""
        chain = _train(_stencil_cifar(None, "thread", fuse=False))
        net = _stencil_cifar(None, "thread")
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._resolved.cache_clear()
        assert all(layer.fp_lowering == "c" for layer in net.conv_layers())
        assert _train(net) == chain
        assert net._fused == set()


class TestGeneratedSource:
    GEOMETRY = ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=2)

    def test_taps_walk_the_kernel_a_column_at_a_time(self):
        # Fig. 7's reuse: the Fy taps of one kernel column are adjacent,
        # so each input row vector is loaded once for all of them.
        unit = emit_c.emit_stencil_c_unit(
            self.GEOMETRY, emit_c.host_pipeline("fp"))
        assert ("static const int FP_TAP_W[NT] = {0, 2, 4, 1, 3, 5};"
                in unit.source)
        assert ("static const int FP_TAP_OFF[NT] = {0, 8, 16, 1, 9, 17};"
                in unit.source)

    def test_kernel_names_encode_shape_and_window(self):
        plain = emit_c.emit_stencil_c_unit(
            self.GEOMETRY, emit_c.host_pipeline("fp"))
        fused = emit_c.emit_stencil_c_unit(
            self.GEOMETRY, emit_c.host_pipeline("fused_fp", 2, 2))
        assert plain.name.startswith("stencil_fp_2x8x8_3_3x2_")
        assert fused.name.startswith("fused_fp_2x8x8_3_3x2_p2s2_")
        assert plain.exports == ("fp",)
        assert f"void {plain.name}_fp(" in plain.source

    def test_strided_spec_is_refused(self):
        spec = ConvSpec(nc=1, ny=9, nx=9, nf=1, fy=3, fx=3, sy=2, sx=2)
        with pytest.raises(CodegenError):
            emit_c.emit_stencil_c_unit(spec, emit_c.host_pipeline("fp"))


def test_c_unit_text_is_deterministic_and_names_every_literal():
    pipeline = emit_c.host_pipeline("fused_fp", 2, 2)
    unit = emit_c.emit_stencil_c_unit(SPEC, pipeline)
    emit_c.emit_stencil_c_unit.cache_clear()
    assert emit_c.emit_stencil_c_unit(SPEC, pipeline).source == unit.source
    for name, value in unit.literals:
        assert f"#define {name} {value}\n" in unit.source
    assert unit.scratch_floats == unit.literal("ACT_FLOATS") > 0
    assert pipeline.fingerprint() in unit.name
