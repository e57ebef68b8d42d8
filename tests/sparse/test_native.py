"""The sparse BP kernels' C lowering (``repro.native`` + ``sparse.codegen_c``).

What is pinned here:

* the compiled kernels compute Eqs. 3-4 for any geometry (a seeded
  Hypothesis differential against the loop oracles of ``ops.reference``:
  channel counts that are not a vector multiple, strides, non-square
  extents, every legal ``crop``, empty / dense errors, batches 0 and 1);
* equal artefacts compute equal bits -- across calls, engines, reloads,
  batch composition, and serial/thread/process execution of one split;
* every way the native path can be unavailable ends on
  ``ops.reference`` with ``lowering == "reference"``, and nothing
  unverified enters the cache;
* the cache is keyed by source *and* host, and a warm cache compiles
  nothing.

Cases that need a compiler are skipped without one; every test runs on
a cache directory of its own.
"""

import os
import pickle
import stat

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
from repro.nn.layers.conv import ConvLayer
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net
from repro.ops import reference as ref
from repro.ops.engine import make_engine
from repro.ops.workspace import Workspace
from repro.resilience.quarantine import default_registry
from repro.sparse import engine as sparse_engine
from repro.sparse.codegen_c import channel_tiling, emit_sparse_c_unit
from tests.conftest import (
    SMALL_SPECS,
    fake_compiler,
    needs_cc,
    random_conv_data,
)

SPEC = ConvSpec(nc=5, ny=9, nx=8, nf=4, fy=3, fx=2)


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


def _oracle_bd(spec, err, weights, crop=0):
    full = np.stack([ref.backward_data_loops(spec, e, weights) for e in err]) \
        if len(err) else np.zeros((0,) + spec.input_shape, np.float32)
    return full[:, :, crop:spec.ny - crop, crop:spec.nx - crop]


def _oracle_dw(spec, err, inputs):
    return sum((ref.backward_weights_loops(spec, e, x)
                for e, x in zip(err, inputs)),
               np.zeros(spec.weight_shape, np.float32))


# -- differential ---------------------------------------------------------------

@st.composite
def native_cases(draw):
    """``(pre-padded spec, crop, batch, error density)``."""
    pad = draw(st.integers(0, 2))
    fy, fx = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    spec = ConvSpec(
        # 1..20 crosses all three vector widths and their remainders.
        nc=draw(st.integers(1, 20)),
        ny=draw(st.integers(fy, 9)) + 2 * pad,
        nx=draw(st.integers(fx, 11)) + 2 * pad,
        nf=draw(st.integers(1, 6)), fy=fy, fx=fx,
        sy=draw(st.integers(1, 3)), sx=draw(st.integers(1, 3)),
    )
    crop = draw(st.integers(0, pad))
    batch = draw(st.sampled_from((0, 1, 3)))
    density = draw(st.sampled_from((0.0, 0.2, 1.0)))
    return spec, crop, batch, density


@needs_cc
@given(case=native_cases(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_native_kernels_match_the_loop_oracles(case, seed):
    spec, crop, batch, density = case
    rng = np.random.default_rng(seed)
    inputs, weights, err = random_conv_data(spec, rng, batch=batch)
    err[rng.random(err.shape) >= density] = 0.0
    engine = make_engine("sparse", spec)
    assert engine.lowering == "c", engine.lowering_reason
    for _ in range(2):  # the second pass runs on reused scratch
        got = engine.backward_data(err, weights, crop=crop)
        assert got.shape == (batch,) + spec.cropped_input_shape(crop)
        np.testing.assert_allclose(
            got, _oracle_bd(spec, err, weights, crop), atol=2e-3,
            err_msg=f"bd crop={crop} {spec.describe()}")
        np.testing.assert_allclose(
            engine.backward_weights(err, inputs),
            _oracle_dw(spec, err, inputs), atol=5e-3,
            err_msg=f"dw {spec.describe()}")


def test_channel_tiling_covers_every_width():
    for nc in range(1, 400):
        vw, cv, chunks = channel_tiling(nc)
        assert vw in (4, 8, 16) and 1 <= cv <= 8
        assert nc <= vw * cv * chunks < nc + vw * chunks


# -- equal artefacts, equal bits ------------------------------------------------

@needs_cc
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
class TestBatchIndependence:
    def test_backward_data_image_equals_singleton_call(self, spec, rng):
        _, weights, err = random_conv_data(spec, rng, batch=5,
                                           error_sparsity=0.6)
        engine = make_engine("sparse", spec)
        assert engine.lowering == "c"
        batched = engine.backward_data(err, weights)
        for i in range(len(err)):
            alone = make_engine("sparse", spec).backward_data(
                err[i:i + 1], weights)
            assert batched[i].tobytes() == alone[0].tobytes()
        assert engine.backward_data(err[1:3], weights).tobytes() == \
            batched[1:3].tobytes()

    def test_backward_weights_is_the_ordered_sum_of_singletons(self, spec,
                                                               rng):
        inputs, _, err = random_conv_data(spec, rng, batch=4,
                                          error_sparsity=0.6)
        engine = make_engine("sparse", spec)
        total = np.zeros(spec.weight_shape, np.float32)
        for i in range(len(err)):
            total += make_engine("sparse", spec).backward_weights(
                err[i:i + 1], inputs[i:i + 1])
        assert engine.backward_weights(err, inputs).tobytes() == \
            total.tobytes()


@needs_cc
def test_reloaded_unit_computes_the_same_bits(rng):
    inputs, weights, err = random_conv_data(SPEC, rng, batch=3,
                                            error_sparsity=0.8)
    first = make_engine("sparse", SPEC)
    bd, dw = first.backward_data(err, weights, crop=1), \
        first.backward_weights(err, inputs)
    native._resolved.cache_clear()      # as a new process
    again = make_engine("sparse", SPEC)
    assert again.artifact == first.artifact
    assert again.backward_data(err, weights, crop=1).tobytes() == bd.tobytes()
    assert again.backward_weights(err, inputs).tobytes() == dw.tobytes()
    clone = pickle.loads(pickle.dumps(first))
    assert clone.lowering == "c" and clone.artifact == first.artifact
    assert clone.backward_weights(err, inputs).tobytes() == dw.tobytes()


# -- choosing the lowering ------------------------------------------------------

def _assert_reference_serves(engine, rng):
    assert engine.lowering == "reference" and engine.artifact is None
    assert engine.lowering_reason
    inputs, weights, err = random_conv_data(SPEC, rng, batch=2,
                                            error_sparsity=0.7)
    np.testing.assert_allclose(engine.backward_data(err, weights, crop=1),
                               _oracle_bd(SPEC, err, weights, 1), atol=2e-3)
    np.testing.assert_allclose(engine.backward_weights(err, inputs),
                               _oracle_dw(SPEC, err, inputs), atol=5e-3)


class TestFallback:
    def test_no_compiler(self, monkeypatch, cache, rng):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        engine = make_engine("sparse", SPEC)
        _assert_reference_serves(engine, rng)
        assert "no C compiler" in engine.lowering_reason
        assert not cache.exists()

    def test_compiler_that_exits_1(self, monkeypatch, tmp_path, cache, rng):
        fake = fake_compiler(tmp_path, 'echo "boom" >&2; exit 1')
        monkeypatch.setattr(native, "find_compiler", lambda: fake)
        engine = make_engine("sparse", SPEC)
        _assert_reference_serves(engine, rng)
        assert "exited 1" in engine.lowering_reason
        assert list(cache.iterdir()) == []      # no temp left behind either

    def test_compiler_that_writes_garbage(self, monkeypatch, tmp_path, cache,
                                          rng):
        fake = fake_compiler(tmp_path, 'echo "not elf" > "$out"')
        monkeypatch.setattr(native, "find_compiler", lambda: fake)
        engine = make_engine("sparse", SPEC)
        _assert_reference_serves(engine, rng)
        assert "cannot load" in engine.lowering_reason
        assert list(cache.iterdir()) == []

    @needs_cc
    def test_truncated_cached_unit(self, cache, rng):
        assert make_engine("sparse", SPEC).lowering == "c"
        (unit,) = cache.glob("*.so")
        # A new inode: the unit above is still mapped into this process,
        # and truncating a mapped file in place is a SIGBUS at exit.
        stub = unit.with_suffix(".tmp")
        stub.write_bytes(unit.read_bytes()[:100])
        os.replace(stub, unit)
        native._resolved.cache_clear()
        engine = make_engine("sparse", SPEC)
        _assert_reference_serves(engine, rng)
        assert "cannot load" in engine.lowering_reason

    @needs_cc
    def test_unit_failing_its_self_check_never_enters_the_cache(
            self, monkeypatch, cache, rng):
        def reject(kernels):
            raise native.NativeBuildError("planted disagreement")

        monkeypatch.setattr(sparse_engine, "_self_check", reject)
        engine = make_engine("sparse", SPEC)
        _assert_reference_serves(engine, rng)
        assert "planted disagreement" in engine.lowering_reason
        assert list(cache.iterdir()) == []

    @needs_cc
    def test_self_check_catches_a_shifted_tap(self, monkeypatch, cache):
        from repro.sparse import codegen_c

        # Row 1's taps land one pixel to the right: in bounds, wrong tap.
        assert "hwc + BD_TAP_OFF[t];" in codegen_c._BODY
        monkeypatch.setattr(codegen_c, "_BODY", codegen_c._BODY.replace(
            "hwc + BD_TAP_OFF[t];", "hwc + BD_TAP_OFF[t] + (t / FX == 1) * NCP;"))
        codegen_c.emit_sparse_c_unit.cache_clear()
        try:
            engine = make_engine("sparse", ConvSpec(nc=2, ny=8, nx=8, nf=3,
                                                    fy=3, fx=3))
        finally:
            codegen_c.emit_sparse_c_unit.cache_clear()
        assert engine.lowering == "reference"
        assert "disagrees with the reference" in engine.lowering_reason

    @needs_cc
    def test_cache_directory_open_to_others_is_refused(self, cache, rng):
        cache.mkdir()
        cache.chmod(0o777)
        engine = make_engine("sparse", SPEC)
        _assert_reference_serves(engine, rng)
        assert "writable by group or others" in engine.lowering_reason
        assert list(cache.iterdir()) == []

    @needs_cc
    def test_foreign_operands_take_the_reference_per_call(self, rng):
        inputs, weights, err = random_conv_data(SPEC, rng, batch=2,
                                                error_sparsity=0.7)
        engine = make_engine("sparse", SPEC)
        assert engine.lowering == "c"
        native_bd = engine.backward_data(err, weights)
        wide = engine.backward_data(err.astype(np.float64), weights)
        assert wide.dtype == np.float64           # the reference's
        np.testing.assert_allclose(wide, native_bd, atol=1e-4)
        strided = np.ascontiguousarray(err.transpose(0, 1, 3, 2)) \
            .transpose(0, 1, 3, 2)
        assert not strided.flags.c_contiguous
        np.testing.assert_allclose(engine.backward_weights(strided, inputs),
                                   engine.backward_weights(err, inputs),
                                   atol=1e-4)


@needs_cc
class TestForeignCallGuards:
    """``NativeSparseKernels`` checks everything before the C call."""

    def test_wrong_operands_are_refused(self, rng):
        inputs, weights, err = random_conv_data(SPEC, rng, batch=2)
        kernels = make_engine("sparse", SPEC)._native
        scratch = kernels.scratch(Workspace())
        for bad in (err.astype(np.float64), err[:, :, :-1], err[:, :, ::-1]):
            with pytest.raises(ShapeError):
                kernels.backward_data(bad, weights, 0, scratch)
            with pytest.raises(ShapeError):
                kernels.backward_weights(bad, inputs, scratch)
        with pytest.raises(ShapeError):
            kernels.backward_data(err, weights[:, :, :, :-1], 0, scratch)
        with pytest.raises(ShapeError):
            kernels.backward_weights(err, inputs[:1], scratch)
        with pytest.raises(ShapeError):
            kernels.backward_data(err, weights, 4, scratch)     # crop
        with pytest.raises(ShapeError):
            kernels.backward_data(err, weights, 0, scratch[:-1])
        with pytest.raises(ShapeError):
            kernels.backward_weights(err, inputs,
                                     scratch.astype(np.float64))


# -- the cache --------------------------------------------------------------------

@needs_cc
class TestCache:
    @pytest.fixture
    def compiles(self, monkeypatch):
        made = []
        real = native._compile

        def counting(*args):
            made.append(args[-1])
            return real(*args)

        monkeypatch.setattr(native, "_compile", counting)
        return made

    def test_second_engine_and_second_process_compile_nothing(
            self, compiles, cache):
        first = make_engine("sparse", SPEC)
        assert len(compiles) == 1 and len(_units(cache)) == 1
        make_engine("sparse", SPEC)                      # the memo
        native._resolved.cache_clear()
        again = make_engine("sparse", SPEC)              # the file
        assert len(compiles) == 1
        assert again.lowering == "c" and again.artifact == first.artifact

    def test_another_host_key_compiles_its_own_unit(self, compiles, cache,
                                                    monkeypatch):
        first = make_engine("sparse", SPEC)
        monkeypatch.setattr(native, "cpu_flags", lambda: "another cpu")
        native._resolved.cache_clear()
        other = make_engine("sparse", SPEC)
        assert len(compiles) == 2 and len(_units(cache)) == 2
        assert other.artifact != first.artifact
        # Same source, other host: the source half of the name agrees.
        assert other.artifact.split("-")[0] == first.artifact.split("-")[0]

    def test_cache_is_private_and_holds_only_units(self, cache):
        make_engine("sparse", SPEC)
        make_engine("sparse", SMALL_SPECS[2])
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        assert all(name.endswith(".so") for name in os.listdir(cache))
        assert len(_units(cache)) == 2


# -- deployment -------------------------------------------------------------------

class _Table(CostBackend):
    def __init__(self, costs):
        self.costs = costs

    def time(self, technique, phase, spec, sparsity):
        return self.costs.get((phase, technique), 1.0)


@needs_cc
class TestDeployment:
    def test_optimize_builds_the_units_a_recheck_then_finds(self, cache,
                                                            monkeypatch):
        net = cifar10_net(scale=0.25, rng=np.random.default_rng(0))
        spg = SpgCNN(net, _Table({("bp", "sparse"): 0.1}), recheck_epochs=1)
        plan = spg.optimize()
        # Every candidate is built in set-up: each conv's sparse BP unit
        # and, the convs being stride 1, its stencil FP unit.
        units = _units(cache)
        for prefix in ("sparse_", "stencil_fp_"):
            assert sum(name.startswith(prefix) for name in units) \
                == len(net.conv_layers())
        assert [p.bp_lowering for p in plan.layers] == ["", ""]  # still GEMM

        def no_compile(*args):
            raise AssertionError("a recheck compiled")

        monkeypatch.setattr(native, "_compile", no_compile)
        events = spg.after_epoch(1)
        assert [e.new_engine for e in events] == ["sparse", "sparse"]
        assert [p.bp_lowering for p in spg.plan.layers] == ["c", "c"]

    def test_layer_reports_its_lowering(self, rng):
        spec = ConvSpec(nc=3, ny=8, nx=8, nf=4, fy=3, fx=3, pad=1, name="c0")
        layer = ConvLayer(spec, bp_engine="sparse", rng=rng)
        assert layer.bp_lowering == "c"
        options = dict(layer.structure()[2])
        assert options["bp_artifact"] == layer.bp_artifact is not None
        x = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
        with telemetry.collect() as tel:
            out = layer.forward(x)
            layer.backward(np.maximum(out, 0))
        (span,) = tel.find_spans("c0/bp")
        assert span.attrs["engine"] == "sparse"
        assert span.attrs["lowering"] == "c"
        gemm = ConvLayer(spec, rng=rng)
        assert gemm.bp_lowering is None and gemm.bp_artifact is None


def _sparse_cifar(threads, backend):
    net = cifar10_net(scale=0.25, rng=np.random.default_rng(3),
                      threads=threads, backend=backend)
    for layer in net.conv_layers():
        layer.set_bp_engine("sparse")
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
                "lowerings": [l.bp_lowering for l in net.conv_layers()],
                "engines": [l.bp_engine_name for l in net.conv_layers()]}
    finally:
        for layer in net.conv_layers():
            layer.close()


@needs_cc
class TestShardedStep:
    def test_sparse_bp_is_bitwise_across_backends_on_the_same_split(self):
        serial = _train(_sparse_cifar(2, "serial"))
        assert serial["lowerings"] == ["c", "c"]
        assert serial["engines"] == ["sparse", "sparse"]
        assert all(np.isfinite(serial["losses"]))
        for backend in ("thread", "process"):
            assert _train(_sparse_cifar(2, backend)) == serial, backend
        assert not default_registry().records()

    def test_replica_without_the_parents_artefact_reports_a_failure(
            self, monkeypatch):
        net = _sparse_cifar(2, "thread")
        names = [layer.name for layer in net.conv_layers()]
        # From here on nothing native can be built or found: the
        # replicas of the step below come up on the reference.
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        with telemetry.collect() as tel:
            state = _train(net, steps=2)
        assert all(np.isfinite(state["losses"]))
        assert state["engines"] == ["reference", "reference"]
        for name in names:
            assert default_registry().is_quarantined(name, "bp", "sparse")
        reasons = [e.attrs["reason"] for e in tel.events
                   if e.name == "engine.fallback"]
        assert len(reasons) == 2
        assert all("planned on" in reason for reason in reasons)


class TestGeneratedSource:
    def test_one_table_entry_per_tap(self):
        unit = emit_sparse_c_unit(ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3,
                                           fx=2))
        assert [k.symbol for k in unit.kernels] == ["bd", "dw"]
        for kernel in unit.kernels:
            assert sorted(kernel.tap_w) == list(range(6))
            table = f"static const int {kernel.symbol.upper()}_TAP_W[NT] = "
            assert unit.source.count(table) == 1

    def test_pointer_shift_offsets_are_literal(self):
        # Fig. 6's arrows: tap (ky, kx) lands (ky * NX + kx) HWC pixels
        # in, one pixel being NCP = 4 padded channels.
        unit = emit_sparse_c_unit(ConvSpec(nc=1, ny=6, nx=6, nf=1, fy=2,
                                           fx=2))
        assert unit.literal("NCP") == 4
        for symbol in ("BD", "DW"):
            assert (f"static const int {symbol}_TAP_OFF[NT] = "
                    f"{{0, 4, 24, 28}};") in unit.source

    def test_rejects_padded_spec(self):
        with pytest.raises(CodegenError):
            emit_sparse_c_unit(ConvSpec(nc=1, ny=6, nx=6, nf=1, fy=2, fx=2,
                                        pad=1))


def test_c_unit_text_is_deterministic_and_names_every_literal():
    unit = emit_sparse_c_unit(SPEC)
    emit_sparse_c_unit.cache_clear()
    assert emit_sparse_c_unit(SPEC).source == unit.source
    for name, value in unit.literals:
        assert f"#define {name} {value}\n" in unit.source
    assert unit.scratch_floats == unit.literal("SCRATCH_FLOATS") > 0
