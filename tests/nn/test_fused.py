"""Fusion as a deployment of the conv -> ReLU -> max-pool chain.

Where a conv's FP runs inline on the C stencil kernel or on a GEMM
engine, ``Network`` runs each ``conv -> ReLU -> max-pool`` run as one
call of the conv given the pool: the compiled unit forward (the fused
conv, or the GEMM epilogue of the engine's output), its scatter
backward.  Pinned here: that is the chain bit for bit -- outputs,
argmax-routed errors, every gradient, for non-overlapping and
overlapping windows -- and so is its handling of NaN / inf, of a unit
that computes non-finite values from finite inputs and of a stray
per-layer backward; without a compiler the chain runs; ``repro train``
and the sharded step see the same numbers as the chain; the probe's call
shape survives; the fusion model prices less traffic than the chain.
"""

import os

import numpy as np
import pytest

from repro import native, telemetry
from repro.core.autotuner import CostBackend
from repro.errors import ShapeError
from repro.nn.layers.activations import ReLULayer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.fused import fuse_conv_relu_pool
from repro.nn.layers.pool import MaxPoolLayer
from repro.nn.netdef import build_network
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import alexnet_small, cifar10_net, imagenet100_net, mnist_net
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.quarantine import default_registry
from repro.sparse.engine import SparseBPEngine
from repro.stencil import emit_c
from repro.stencil.loopir import GLOBAL, fused_fp_nest
from repro.stencil.passes import default_pipeline
from tests.conftest import needs_cc


def _conv_pool_geometries():
    """(network, spec, pool_kernel, pool_stride) for every zoo conv->pool."""
    out = []
    for build in (mnist_net, cifar10_net, imagenet100_net, alexnet_small):
        net = build(scale=0.25)
        pending = None
        for layer in net.layers:
            if isinstance(layer, ConvLayer):
                pending = layer.spec
            elif isinstance(layer, MaxPoolLayer) and pending is not None:
                out.append((net.name, pending, layer.kernel, layer.stride))
                pending = None
        for layer in net.conv_layers():
            layer.close()
    return out


GEOMETRIES = _conv_pool_geometries()


def _twin(conv):
    """A conv with ``conv``'s engines and parameters, run as the chain."""
    twin = ConvLayer(conv.spec, name=conv.name, fp_engine=conv.fp_engine_name,
                     bp_engine=conv.bp_engine_name)
    twin.weights, twin.bias = conv.weights.copy(), conv.bias.copy()
    twin.fused_unit = lambda pool: None
    return twin


#: The FP engines a unit fuses behind: the stencil kernel's fused unit
#: and the GEMM epilogue.
FP_ENGINES = pytest.mark.parametrize("fp_engine",
                                     ["stencil", "gemm-in-parallel"])


@pytest.mark.parametrize(
    "net_name,spec,pk,ps", GEOMETRIES,
    ids=[f"{n}-{s.describe()}" for n, s, _, _ in GEOMETRIES],
)
class TestBitIdentityOnZooNetworks:
    @FP_ENGINES
    def test_forward_and_backward_match_the_chain_bitwise(
        self, net_name, spec, pk, ps, fp_engine, rng
    ):
        conv = ConvLayer(spec, fp_engine=fp_engine, bp_engine=fp_engine)
        conv.weights = rng.standard_normal(
            spec.weight_shape
        ).astype(np.float32)
        conv.bias = rng.standard_normal(spec.nf).astype(np.float32)
        chain, pool, relu = _twin(conv), MaxPoolLayer(pk, ps), ReLULayer()
        fused = fuse_conv_relu_pool(conv, pool)
        x = rng.standard_normal((2, *spec.input_shape)).astype(np.float32)
        got = fused.forward(x)
        want = pool.forward(relu.forward(chain.forward(x)))
        assert np.array_equal(got, want)
        if fp_engine != "stencil" and native.find_compiler() is not None:
            assert conv._pooled[0].takes_conv_output    # the epilogue ran
        err = rng.standard_normal(want.shape).astype(np.float32)
        want_err = chain.backward(relu.backward(pool.backward(err)))
        assert np.array_equal(fused.backward(err), want_err)
        assert np.array_equal(conv.d_weights, chain.d_weights)
        assert np.array_equal(conv.d_bias, chain.d_bias)

    def test_fused_traffic_strictly_below_chain(self, net_name, spec, pk, ps):
        """Fusing takes the activation out of memory: the scheduled nest
        holds exactly it less, and where the C printer lowers the layer
        the unit's scratch (its one-pool-row act tile) is smaller than
        one image's activation."""
        padded = spec.pre_padded()
        fused = default_pipeline("fused_fp", pool_kernel=pk,
                                 pool_stride=ps).build_nest(padded)
        chain = fused_fp_nest(padded, pk, ps)

        def in_memory(nest):
            return sum(b.elems for b in nest.buffers if b.scope == GLOBAL)

        act = chain.buffer("act").elems
        assert in_memory(chain) - in_memory(fused) == act, spec.describe()
        if (padded.sy, padded.sx) == (1, 1):
            unit = emit_c.emit_stencil_c_unit(
                padded, emit_c.host_pipeline("fused_fp", pk, ps))
            assert unit.literal("SCRATCH_FLOATS") < act, spec.describe()


# -- the network ----------------------------------------------------------------

def _net(window, seed=0, fp_engine="stencil", threads=None,
         backend="thread", bp_engine="gemm-in-parallel"):
    """Two ``conv -> ReLU -> max-pool`` runs and a classifier, with FP on
    ``fp_engine``, BP on ``bp_engine`` and biases that move the ReLU
    threshold."""
    kernel, stride = window
    pool = {"type": "pool", "kernel": kernel, "stride": stride}
    net = build_network({"name": "fusable", "input": [3, 16, 16], "layers": [
        {"type": "conv", "features": 6, "kernel": 3, "pad": 1}, {"type": "relu"},
        pool,
        {"type": "conv", "features": 5, "kernel": 3, "pad": 1}, {"type": "relu"},
        pool,
        {"type": "flatten"}, {"type": "dense", "features": 4}]},
        rng=np.random.default_rng(seed), threads=threads, backend=backend)
    bias = np.random.default_rng(seed + 1)
    for conv in net.conv_layers():
        conv.set_fp_engine(fp_engine)
        conv.set_bp_engine(bp_engine)
        conv.bias = bias.standard_normal(conv.spec.nf).astype(np.float32)
    return net


def _chain(net):
    """``net``'s twin (same parameters and engines) that never fuses."""
    first = net.conv_layers()[0]
    twin = _net((net.layers[2].kernel, net.layers[2].stride),
                fp_engine=first.fp_engine_name,
                bp_engine=first.bp_engine_name)
    for (_, mine, _), (_, theirs, _) in zip(twin.parameters(),
                                             net.parameters()):
        mine[...] = theirs
    for conv in twin.conv_layers():
        conv.fused_unit = lambda pool: None
    return twin


def _pass(net, x, err, need_input_error=True):
    net.zero_grads()
    out = net.forward(x)
    in_err = net.backward(err, need_input_error=need_input_error)
    return out, in_err, [g.copy() for _, _, g in net.parameters()]


WINDOWS = pytest.mark.parametrize("window", [(2, 2), (3, 2)],
                                  ids=["2/2", "3/2"])
BP_ENGINES = pytest.mark.parametrize("bp_engine",
                                     ["gemm-in-parallel", "sparse"])


def _exported(tel):
    """The convs whose BP ran the sparse unit's pooled export."""
    return sorted(span.attrs["layer"] for span in tel.spans
                  if span.attrs.get("phase") == "bp"
                  and span.attrs.get("fused") == "relu+pool")


@needs_cc
@FP_ENGINES
@WINDOWS
@BP_ENGINES
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("need_input_error", [True, False])
def test_network_pass_equals_the_chain_bitwise(fp_engine, window, bp_engine,
                                               batch, need_input_error, rng):
    """With sparse BP on a window that does not overlap, both convs'
    backward runs the pooled export: conv error, dW and sparsity from one
    C pass over the pooled error -- and still the chain's bits, the
    bias gradient included.  The overlapping window keeps the scatter."""
    net = _net(window, fp_engine=fp_engine, bp_engine=bp_engine)
    chain = _chain(net)
    x = rng.standard_normal((batch, 3, 16, 16)).astype(np.float32)
    err = rng.standard_normal((batch, 4)).astype(np.float32)
    with telemetry.collect() as tel:
        got = _pass(net, x, err, need_input_error)
    assert net._fused == {0, 3}, "both runs fuse"
    assert _exported(tel) == (["conv0", "conv3"] if window == (2, 2)
                              and bp_engine == "sparse" else [])
    sparsity = [c.last_error_sparsity for c in net.conv_layers()]
    want = _pass(chain, x, err, need_input_error)
    assert chain._fused == set()
    assert sparsity == [c.last_error_sparsity for c in chain.conv_layers()]
    assert np.array_equal(got[0], want[0])
    if need_input_error:
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] is None is want[1]
    for mine, theirs in zip(got[2], want[2]):
        assert np.array_equal(mine, theirs)


@needs_cc
@FP_ENGINES
@WINDOWS
def test_routed_errors_are_the_chains(fp_engine, window, rng):
    """The conv-shaped error the scatter builds is the one the chain's
    max-pool and ReLU backward build, element for element."""
    net = _net(window, fp_engine=fp_engine)
    conv, relu, pool = net.layers[:3]
    x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
    pooled = conv.forward(x, True, pool=pool)
    assert conv._pooled[0] is not None           # it ran fused
    err = rng.standard_normal(pooled.shape).astype(np.float32)
    routed = conv._unpool(err, pool)
    assert np.array_equal(pooled, pool.forward(relu.forward(
        conv.forward(x))))
    assert np.array_equal(routed, relu.backward(pool.backward(err)))


def _poisoned(rng, batch=2):
    x = rng.standard_normal((batch, 3, 16, 16)).astype(np.float32)
    x[0, 0, 5, 5] = np.nan
    x[-1, 1, 9, 3] = -np.inf
    x[-1, 2, 0, 15] = np.inf
    return x


@needs_cc
@FP_ENGINES
@WINDOWS
def test_non_finite_operands_behave_as_in_the_chain(fp_engine, window, rng):
    """The store counts what its compares would swallow, and such a call
    re-runs as the chain: NaN propagates exactly as there, and the guard
    benches nothing (the input's fault)."""
    net = _net(window, fp_engine=fp_engine)
    chain = _chain(net)
    x = _poisoned(rng)
    err = rng.standard_normal((2, 4)).astype(np.float32)
    got, want = _pass(net, x, err), _pass(chain, x, err)
    assert not np.isfinite(want[0]).all()
    for mine, theirs in zip([got[0], got[1], *got[2]],
                            [want[0], want[1], *want[2]]):
        assert np.array_equal(mine, theirs, equal_nan=True)
    assert not default_registry().records()      # the input's fault


@needs_cc
@FP_ENGINES
@WINDOWS
@BP_ENGINES
def test_non_finite_errors_behave_as_in_the_chain(fp_engine, window,
                                                  bp_engine, rng):
    """A finite forward, a poisoned error: the chain spreads it over the
    window, and so does the fused run's backward (by replaying it, also
    where the pooled export counted the poison)."""
    net = _net(window, fp_engine=fp_engine, bp_engine=bp_engine)
    chain = _chain(net)
    conv, _, pool = net.layers[:3]
    twin, relu, twin_pool = chain.layers[:3]
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    out = conv.forward(x, True, pool=pool)
    assert np.array_equal(out, twin_pool.forward(relu.forward(twin.forward(x))))
    err = rng.standard_normal(out.shape).astype(np.float32)
    err[0, 0, 0, 0], err[1, 2, 1, 1], err[1, 0, 2, 0] = np.nan, np.inf, -np.inf
    with telemetry.collect() as tel:
        got = conv.backward(err, pool=pool)
    assert _exported(tel) == []
    want = twin.backward(relu.backward(twin_pool.backward(err)))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(conv.d_weights, twin.d_weights, equal_nan=True)
    assert np.array_equal(conv.d_bias, twin.d_bias, equal_nan=True)
    assert conv.bp_engine_name == bp_engine
    assert conv.last_error_sparsity == twin.last_error_sparsity


@needs_cc
def test_a_unit_computing_non_finite_values_is_quarantined_as_in_the_chain(
        monkeypatch, rng):
    """A compiled unit that turns finite inputs into NaN: the fused store
    counts it, the re-run's guard sees the FP kernel's NaN and benches
    stencil FP exactly as the chain's guard does."""
    real_forward = emit_c.NativeStencilKernels.forward
    real_fused = emit_c.NativeStencilKernels.fused_forward

    def broken_forward(kernels, inputs, weights):
        out = real_forward(kernels, inputs, weights)
        out[:, :, 0, 0] = np.nan
        return out

    def broken_fused(kernels, *args):
        out, argmax, _ = real_fused(kernels, *args)
        return out, argmax, 1

    monkeypatch.setattr(emit_c.NativeStencilKernels, "forward",
                        broken_forward)
    monkeypatch.setattr(emit_c.NativeStencilKernels, "fused_forward",
                        broken_fused)
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    results = []
    for build in (lambda: _net((2, 2)), lambda: _chain(_net((2, 2)))):
        default_registry().clear()
        net = build()
        with telemetry.collect() as tel:
            out = net.forward(x)
        assert np.isfinite(out).all()
        assert [c.fp_engine_name for c in net.conv_layers()] == \
            ["reference", "reference"]
        assert all(default_registry().is_quarantined(c.name, "fp", "stencil")
                   for c in net.conv_layers())
        results.append((out, [e.attrs["reason"] for e in tel.events
                              if e.name == "engine.fallback"]))
    assert np.array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]


@needs_cc
def test_a_gemm_engine_computing_non_finite_values_is_quarantined_as_in_the_chain(
        monkeypatch, rng):
    """The epilogue reads the guarded GEMM output: a GEMM that turns
    finite inputs into NaN is benched by the same guard, before the
    epilogue, and the fallback's output is pooled to the chain's bits."""
    from repro.ops.gemm_conv import GemmInParallelEngine

    real_forward = GemmInParallelEngine.forward

    def broken_forward(engine, inputs, weights):
        out = real_forward(engine, inputs, weights)
        out[:, :, 0, 0] = np.nan
        return out

    monkeypatch.setattr(GemmInParallelEngine, "forward", broken_forward)
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    results = []
    for build in (lambda: _net((2, 2), fp_engine="gemm-in-parallel"),
                  lambda: _chain(_net((2, 2), fp_engine="gemm-in-parallel"))):
        default_registry().clear()
        net = build()
        with telemetry.collect() as tel:
            out = net.forward(x)
        assert np.isfinite(out).all()
        assert [c.fp_engine_name for c in net.conv_layers()] == \
            ["reference", "reference"]
        results.append((out, [e.attrs["reason"] for e in tel.events
                              if e.name == "engine.fallback"]))
    assert np.array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]


@needs_cc
@FP_ENGINES
@pytest.mark.parametrize("poisoned", [False, True], ids=["finite", "nan"])
def test_the_engine_fault_site_is_visited_once_per_call(fp_engine, poisoned,
                                                        rng):
    """A fault plan fires at the same conv under fusion as in the chain,
    also when a poisoned batch makes the fused call re-run as the chain:
    the second invocation of ``engine.fp`` is conv3's, and a raise there
    benches conv3's FP engine in both."""
    x = _poisoned(rng) if poisoned else \
        rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    plan = FaultPlan(name="second-fp", specs=(
        FaultSpec(site="engine.fp", kind="raise", at=(2,)),))
    outs = []
    for build in (lambda: _net((2, 2), fp_engine=fp_engine),
                  lambda: _chain(_net((2, 2), fp_engine=fp_engine))):
        default_registry().clear()
        net = build()
        with inject(plan):
            outs.append(net.forward(x))
        assert [c.fp_engine_name for c in net.conv_layers()] == \
            [fp_engine, "reference"]
    assert np.array_equal(outs[0], outs[1], equal_nan=True)


@needs_cc
@pytest.mark.parametrize("at", [1, 2, 3], ids=["conv3-dw", "conv3-bd",
                                               "conv0-dw"])
def test_the_bp_fault_site_is_visited_once_per_call(at, rng):
    """The pooled export stands in for ``backward_weights`` at the
    ``engine.bp`` site: a plan's n-th invocation lands on the same call
    as in the chain, and benches the same conv's sparse BP."""
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    err = rng.standard_normal((2, 4)).astype(np.float32)
    plan = FaultPlan(name="nth-bp", specs=(
        FaultSpec(site="engine.bp", kind="raise", at=(at,)),))
    results = []
    for build in (lambda: _net((2, 2), bp_engine="sparse"),
                  lambda: _chain(_net((2, 2), bp_engine="sparse"))):
        default_registry().clear()
        net = build()
        with inject(plan):
            results.append(_pass(net, x, err))
        assert [c.bp_engine_name for c in net.conv_layers()] == \
            [["sparse", "reference"], ["sparse", "reference"],
             ["reference", "sparse"]][at - 1]
    for mine, theirs in zip([results[0][1], *results[0][2]],
                            [results[1][1], *results[1][2]]):
        assert np.array_equal(mine, theirs)


# -- where the chain runs ---------------------------------------------------------

def _runs_the_chain(net, rng):
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    net.forward(x)
    assert net._fused == set()
    assert all(conv.fused_unit(pool) is None
               for conv, _, pool in net._runs.values())
    # The per-layer caches are live: the layers ran one by one.
    net.backward(rng.standard_normal((2, 4)).astype(np.float32))


def test_without_a_compiler_the_chain_runs(monkeypatch, rng):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    native._resolved.cache_clear()
    try:
        net = _net((2, 2))
        assert [c.fp_lowering for c in net.conv_layers()] == \
            ["reference", "reference"]
        _runs_the_chain(net, rng)
    finally:
        native._resolved.cache_clear()


@needs_cc
@pytest.mark.parametrize("fp_engine", ["gemm-in-parallel", "parallel-gemm"])
def test_a_gemm_fp_engine_runs_the_epilogue(fp_engine, rng):
    """Both runs fuse behind the GEMM engine's own FP call: the unit is
    the epilogue of its output, keyed by the conv output's shape and the
    window, and the pass is the chain's bit for bit."""
    net = _net((3, 2), fp_engine=fp_engine)
    chain = _chain(net)
    x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
    err = rng.standard_normal((3, 4)).astype(np.float32)
    with telemetry.collect() as tel:
        got = _pass(net, x, err)
    assert net._fused == {0, 3}
    for conv, _, pool in net._runs.values():
        unit = conv.fused_unit(pool)
        assert unit.takes_conv_output
        assert unit.unit.name.startswith("gemm_epilogue_")
        (span,) = tel.find_spans(f"{conv.name}/fp")
        assert span.attrs["engine"] == fp_engine
        assert span.attrs["fused"] == "relu+pool"
    # The engine's FP ran; the ReLU and pool layers did not.
    assert not tel.find_spans("relu1/fp") and not tel.find_spans("pool2/fp")
    want = _pass(chain, x, err)
    for mine, theirs in zip([got[0], got[1], *got[2]],
                            [want[0], want[1], *want[2]]):
        assert np.array_equal(mine, theirs)


def test_the_reference_fp_engine_runs_the_chain(rng):
    _runs_the_chain(_net((2, 2), fp_engine="reference"), rng)


@needs_cc
def test_a_pooled_conv_runs_the_chain_over_its_workers(rng):
    """A conv on a worker pool maps its FP over the workers; the handle
    then computes the chain there, bitwise the inline fused run."""
    pooled = _net((3, 2), threads=2)
    inline = _net((3, 2))
    try:
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        (conv, _, pool), (twin, _, twin_pool) = (pooled.layers[:3],
                                                 inline.layers[:3])
        assert conv.fused_unit(pool) is None
        assert twin.fused_unit(twin_pool) is not None
        assert np.array_equal(fuse_conv_relu_pool(conv, pool).forward(x),
                              fuse_conv_relu_pool(twin, twin_pool).forward(x))
    finally:
        for conv in pooled.conv_layers():
            conv.close()


@needs_cc
def test_stale_relu_and_pool_caches_raise(rng):
    net = _net((2, 2))
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    activations = x
    for layer in net.layers:     # the chain first: caches to go stale
        activations = layer.forward(activations)
    net.forward(x)
    assert net._fused == {0, 3}
    for index in (1, 2, 4, 5):
        with pytest.raises(ShapeError, match="backward before forward"):
            net.layers[index].backward(
                np.zeros((2,) + net.layer_shapes[index + 1], np.float32))
    conv, _, pool = net.layers[:3]
    conv.forward(x)              # no pool: nothing for a pooled backward
    with pytest.raises(ShapeError, match="backward before forward"):
        conv.backward(np.zeros((2, 6, 8, 8), np.float32), pool=pool)


@needs_cc
def test_the_fp_span_says_it_ran_fused(rng):
    net = _net((2, 2))
    with telemetry.collect() as tel:
        net.forward(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
    for name in ("conv0", "conv3"):
        (span,) = tel.find_spans(f"{name}/fp")
        assert span.attrs["engine"] == "stencil"
        assert span.attrs["lowering"] == "c"
        assert span.attrs["fused"] == "relu+pool"


# -- the probe's handle -----------------------------------------------------------

def test_the_probe_call_shape_is_kept(rng):
    """``hostbook/probes.py``: ``fuse_conv_relu_pool(conv, pool)`` on a
    zoo conv with stencil FP, then ``.forward(x)``."""
    net = cifar10_net(scale=0.25, rng=np.random.default_rng(0))
    conv, relu, pool = net.layers[:3]
    conv.set_fp_engine("stencil")
    fused = fuse_conv_relu_pool(conv, pool)
    x = rng.standard_normal((4,) + conv.spec.input_shape).astype(np.float32)
    got = fused.forward(x)
    assert np.array_equal(got, pool.forward(relu.forward(conv.forward(x))))


# -- end to end -------------------------------------------------------------------

class _Deploy(CostBackend):
    """Stencil FP, sparse BP: what the measured tuner deploys here."""

    measured = memo_hits = 0

    def time(self, technique, phase, spec, sparsity):
        return 0.1 if technique in ("stencil", "sparse") else 1.0


@needs_cc
def test_repro_train_losses_equal_the_chains(monkeypatch, capsys):
    from repro import cli
    from repro.core import autotuner

    monkeypatch.setattr(autotuner, "MeasuredCostBackend", _Deploy)
    losses = []
    step = SGDTrainer.step

    def recording(trainer, inputs, labels):
        result = step(trainer, inputs, labels)
        losses[-1].append(result.loss)
        return result

    monkeypatch.setattr(SGDTrainer, "step", recording)
    exported = []
    export = SparseBPEngine.pooled_backward

    def counting(engine, *args):
        served = export(engine, *args)
        exported[-1] += served is not None
        return served

    monkeypatch.setattr(SparseBPEngine, "pooled_backward", counting)
    args = ["train", "--net", "cifar", "--scale", "0.25", "--batch", "8",
            "--samples", "32", "--epochs", "2", "--recheck", "1",
            "--threads", "1"]
    for fuse in (True, False):
        if not fuse:
            monkeypatch.setattr(ConvLayer, "fused_unit", lambda self, pool: None)
        losses.append([])
        exported.append(0)
        assert cli.main(args) == 0
        report = capsys.readouterr().out
        assert ("c+relu+pool" in report) is fuse
        assert ("fused with ReLU + max-pool: none" in report) is not fuse
    assert len(losses[0]) == 8
    assert losses[0] == losses[1]
    # Sparse BP from the second step (BP is planned after the first):
    # both convs' backward of the 7 later steps ran the pooled export.
    assert exported == [14, 0]


def _train(net, steps=3, batch=1):
    data = np.random.default_rng(3)
    images = data.standard_normal((steps * batch, 3, 16, 16)).astype(np.float32)
    labels = data.integers(0, 4, steps * batch)
    trainer = SGDTrainer(net, learning_rate=0.05)
    try:
        losses = [trainer.step(images[i * batch:(i + 1) * batch],
                               labels[i * batch:(i + 1) * batch]).loss
                  for i in range(steps)]
        return {"losses": losses,
                "params": [p.tobytes() for _, p, _ in net.parameters()]}
    finally:
        for conv in net.conv_layers():
            conv.close()


BACKENDS = ["serial", "thread"] + (
    ["process"] if (os.cpu_count() or 1) >= 2 else [])


@needs_cc
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("window,bp_engine", [((3, 2), "gemm-in-parallel"),
                                              ((2, 2), "sparse")],
                         ids=["3/2-gemm", "2/2-sparse"])
def test_sharded_step_equals_the_inline_fused_step(backend, window,
                                                   bp_engine):
    """The sharded step's replicas run the chain with stencil C; on one
    shard (batch 1) that is the inline fused step, bit for bit -- also
    where inline BP runs the sparse unit's pooled export."""
    inline = _net(window, bp_engine=bp_engine)
    with telemetry.collect() as tel:
        inline_state = _train(inline)
    assert inline._fused == {0, 3}
    assert bool(_exported(tel)) == (bp_engine == "sparse")
    sharded = _train(_net(window, threads=2, backend=backend,
                          bp_engine=bp_engine))
    assert sharded == inline_state
    assert not default_registry().records()
