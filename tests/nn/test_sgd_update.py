"""The parameter path: the native SGD update and the dense layer's
in-place products.

Pinned here: the update unit returns numpy's chain bit for bit (NaNs by
position) on random values, denormals, infinities, NaNs and signed
zeros at momenta 0, 0.3 and 0.9, and updates a gradient written fresh
exactly as the old code updated the same gradient accumulated into
zeros; float64 and non-contiguous parameters take the chain; 50 steps of
the MNIST and CIFAR nets train to the same bits with the unit and with
no compiler.  The dense layer's forward is ``x @ W^T + b`` bit for bit
and C-ordered at the zoo's shapes, and its first backward after
``zero_grads`` writes the weight gradient in place, allocating no
product.  Without a compiler the native cases skip and the rest pass.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro import native
from repro.data.synthetic import make_dataset
from repro.nn.layers.dense import DenseLayer
from repro.nn.network import Network
from repro.nn.sgd import SGDTrainer, momentum_chain
from repro.nn.update_c import (
    SPECIAL,
    UNIT_NAME,
    load_update_kernels,
    same_bits,
    update_cases,
)
from repro.nn.zoo import cifar10_net, mnist_net
from tests.conftest import needs_cc


def _unit():
    unit, reason = native.kernels_for(load_update_kernels)
    assert unit is not None, reason
    return unit


def _old_chain(param, vel, g, lr, momentum):
    """The update as it ran before the unit: ``g`` read as it is."""
    scaled = np.multiply(g, lr)
    vel *= momentum
    vel -= scaled
    param += vel


def _assert_same(got, want, what):
    assert same_bits(got, want), (
        f"{what}: {int((got.view(np.uint32) != want.view(np.uint32)).sum())}"
        f" elements differ")


def _updated(update, case):
    param, vel, grad, lr, momentum = (
        a.copy() if isinstance(a, np.ndarray) else a for a in case)
    with np.errstate(all="ignore"):
        update(param, vel, grad, lr, momentum)
    return param, vel


def _chain(param, vel, grad, lr, momentum):
    momentum_chain(param, vel, grad, lr, momentum, np.empty_like(param))


# -- the unit against the chain ----------------------------------------------

@needs_cc
@pytest.mark.parametrize("case", range(3), ids=["m0", "m0.3", "m0.9"])
def test_unit_is_the_chain_bit_for_bit(case):
    """Random values, denormals, +-Inf, NaN and signed zeros -- every
    triple of specials across gradient, velocity and parameter -- at
    each momentum: parameters and velocities are the chain's."""
    unit = _unit()
    case = update_cases(seed=7)[case]
    assert np.isin(case[2].view(np.uint32), SPECIAL.view(np.uint32)).any()
    got = _updated(unit.update, case)
    want = _updated(_chain, case)
    for what, g, w in zip(("parameters", "velocities"), got, want):
        _assert_same(g, w, what)
    assert np.array_equal(np.isinf(got[0]), np.isinf(want[0]))


@pytest.mark.parametrize("path", ["chain", pytest.param("unit",
                                                         marks=needs_cc)])
@pytest.mark.parametrize("momentum", [0.0, 0.3, 0.9])
def test_signed_zero_gradients_update_as_accumulated_ones(momentum, path):
    """A gradient written fresh may hold ``-0.0`` where the old
    accumulate-into-zeros produced ``+0.0``; only ``x = -0.0`` tells
    ``0 + x`` from ``x``.  Against a velocity that rounds to ``-0.0``
    (a negative denormal times a momentum below 0.5, or any negative
    value times 0) the sign reaches the velocity, so the unit and the
    chain read ``g + 0.0``: fresh ``g`` updates as the old code updated
    ``zeros + g``."""
    n = 64
    grad = np.where(np.arange(n) % 2, -0.0, 0.0).astype(np.float32)
    vel = np.resize(np.array([-1e-45, -0.0, 1e-45, 0.0, -1.0], np.float32),
                    n)
    param = np.resize(np.array([-0.0, 0.0, 1.0], np.float32), n)
    update = _chain if path == "chain" else _unit().update
    got = _updated(update, (param, vel, grad, 0.01, momentum))
    want = _updated(_old_chain, (param, vel, np.zeros_like(grad) + grad,
                                 0.01, momentum))
    for what, g, w in zip(("parameters", "velocities"), got, want):
        _assert_same(g, w, what)


# -- which parameters take which path -----------------------------------------

class _Spy:
    def __init__(self, monkeypatch):
        import repro.nn.sgd as sgd

        self.shapes = []
        real = sgd.momentum_chain

        def record(param, *rest):
            self.shapes.append((param.dtype, param.flags.c_contiguous))
            real(param, *rest)

        monkeypatch.setattr(sgd, "momentum_chain", record)


def _dense_net(weights):
    layer = DenseLayer(*weights.shape[::-1])
    layer.weights = weights
    return Network([layer], (weights.shape[1],))


@needs_cc
def test_float32_contiguous_parameters_take_the_unit(monkeypatch, rng):
    spy = _Spy(monkeypatch)
    net = _dense_net(rng.standard_normal((3, 5)).astype(np.float32))
    trainer = SGDTrainer(net)
    trainer.step(rng.standard_normal((4, 5)).astype(np.float32),
                 np.array([0, 1, 2, 0]))
    assert trainer._unit is not None and spy.shapes == []


@pytest.mark.parametrize("weights", ["float64", "fortran"])
def test_float64_and_non_contiguous_parameters_take_the_chain(
        monkeypatch, rng, weights):
    spy = _Spy(monkeypatch)
    w = rng.standard_normal((3, 5))
    w = w if weights == "float64" else np.asfortranarray(w, np.float32)
    net = _dense_net(w)
    before = w.copy()
    trainer = SGDTrainer(net, learning_rate=0.1, momentum=0.5)
    trainer.step(rng.standard_normal((4, 5)).astype(w.dtype),
                 np.array([0, 1, 2, 0]))
    # Only the weights where a unit was built; the bias too where not.
    assert spy.shapes[0] == (w.dtype, w.flags.c_contiguous)
    assert len(spy.shapes) == (1 if trainer._unit is not None else 2)
    # The chain's numbers, in the parameter's own precision.
    momentum_chain(before, np.zeros_like(before), net.layers[0].d_weights,
                   0.1, 0.5, np.empty_like(before))
    assert before.tobytes() == w.tobytes()


def test_numpy_scalar_coefficients_take_the_chain(rng):
    """numpy promotes a float64 scalar where a Python float is rounded
    to float32; the unit computes only the latter."""
    net = _dense_net(rng.standard_normal((3, 5)).astype(np.float32))
    trainer = SGDTrainer(net, learning_rate=np.float64(0.1))
    trainer.step(rng.standard_normal((4, 5)).astype(np.float32),
                 np.array([0, 1, 2, 0]))
    assert trainer._unit is None


# -- end to end ---------------------------------------------------------------

def _train(build, steps, batch):
    net = build()
    data = make_dataset(batch * 4, net.output_shape[0], net.input_shape,
                        seed=3)
    trainer = SGDTrainer(net, learning_rate=0.01, momentum=0.9)
    losses = []
    for step in range(steps):
        lo = (step % 4) * batch
        losses.append(trainer.step(data.images[lo:lo + batch],
                                   data.labels[lo:lo + batch]).loss)
    state = [(p.tobytes(), trainer._velocity[name].tobytes())
             for name, p, _ in net.parameters()]
    for layer in net.conv_layers():
        layer.close()
    return losses, state, trainer._unit


@needs_cc
@pytest.mark.parametrize("build,batch", [(mnist_net, 8), (cifar10_net, 4)],
                         ids=["mnist", "cifar"])
def test_fifty_steps_train_to_the_same_bits_without_a_compiler(
        monkeypatch, build, batch):
    losses, state, unit = _train(build, 50, batch)
    assert unit is not None
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    chain_losses, chain_state, chain_unit = _train(build, 50, batch)
    assert chain_unit is None
    assert np.array(losses).tobytes() == np.array(chain_losses).tobytes()
    assert state == chain_state


def mapped_update_units() -> int:
    """How many update units this process has mapped (run on workers)."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        return sum(f"/{UNIT_NAME}-" in line for line in fh)


@needs_cc
@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="no /proc/self/maps")
def test_only_the_process_that_updates_maps_the_unit():
    """The sharded step's parent loads the unit at its first update;
    the helper that computes the other shard never maps it."""
    net = mnist_net(threads=2, backend="process")
    try:
        data = make_dataset(16, 10, net.input_shape, seed=3)
        trainer = SGDTrainer(net)
        trainer.step(data.images[:8], data.labels[:8])
        assert trainer._unit is not None
        assert mapped_update_units() > 0
        backend = net.conv_layers()[0]._pool._require_backend()
        assert backend.broadcast(mapped_update_units) == [0]  # one helper
    finally:
        for layer in net.conv_layers():
            layer.close()


# -- the dense layer ---------------------------------------------------------

@pytest.mark.parametrize("features", [(2880, 100), (100, 10), (4096, 10)],
                         ids=lambda f: f"{f[0]}to{f[1]}")
def test_dense_forward_is_x_wt_plus_b_bit_for_bit(rng, features):
    """``W @ x^T`` laid out C-ordered with the bias is ``x @ W^T + b``
    bit for bit at the zoo's dense shapes -- a property of the BLAS
    build (DESIGN: bit-identity conditions), pinned here."""
    layer = DenseLayer(*features, rng=rng)
    layer.bias[:] = rng.standard_normal(features[1]).astype(np.float32)
    for batch in range(1, 17):
        x = np.maximum(rng.standard_normal((batch, features[0])), 0
                       ).astype(np.float32)
        out = layer.forward(x)
        assert out.flags.c_contiguous and out.dtype == np.float32
        assert out.tobytes() == (x @ layer.weights.T + layer.bias).tobytes()


def test_first_backward_after_zero_grads_writes_in_place(rng):
    layer = DenseLayer(2880, 100, rng=rng)
    x = rng.standard_normal((8, 2880)).astype(np.float32)
    err = rng.standard_normal((8, 100)).astype(np.float32)
    layer.forward(x)
    layer.backward(err)
    grad = layer.grads()["weights"]
    layer.zero_grads()
    layer.forward(x)
    tracemalloc.start()
    try:
        layer.backward(err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The input error (8 x 2880 floats) is allocated; a product the
    # size of the weights (100 x 2880) is not.
    assert peak < layer.weights.nbytes // 4
    assert not hasattr(layer, "_dw_scratch")
    assert layer.grads()["weights"] is grad
    assert grad.tobytes() == (err.T @ x).tobytes()
    # A second backward adds to it.
    layer.backward(err)
    assert grad.tobytes() == ((err.T @ x) + (err.T @ x)).tobytes()


def test_zero_grads_reads_zero_until_backward(rng):
    layer = DenseLayer(6, 4, rng=rng)
    x = rng.standard_normal((5, 6)).astype(np.float32)
    err = rng.standard_normal((5, 4)).astype(np.float32)
    layer.forward(x)
    layer.backward(err)
    layer.zero_grads()
    assert not layer.grads()["weights"].any()
    assert not layer.d_weights.any() and not layer.d_bias.any()
    # Read before the backward: that backward adds to the zeros read.
    layer.backward(err)
    assert layer.d_weights.tobytes() == (0 + err.T @ x).tobytes()


def test_all_zero_input_column_through_the_fresh_write_updates_as_before(
        rng):
    """A dead input feature gives an all-zero weight-gradient column;
    written fresh, its zeros may carry the errors' signs.  Through the
    update (unit where built, else the chain) parameters and velocities
    are those of the old accumulate-then-chain, also where the velocity
    rounds to ``-0.0``."""
    x = rng.standard_normal((8, 16)).astype(np.float32)
    x[:, 3] = 0.0
    err = -np.abs(rng.standard_normal((8, 4))).astype(np.float32)
    layer = DenseLayer(16, 4, rng=rng)
    net = Network([layer], (16,))
    trainer = SGDTrainer(net, learning_rate=0.01, momentum=0.3)
    vel = rng.standard_normal((4, 16)).astype(np.float32)
    vel[:, 3] = -1e-45
    trainer._velocity = {"0.dense.weights": vel.copy(),
                         "0.dense.bias": np.zeros(4, np.float32)}
    want_w, want_v = layer.weights.copy(), vel.copy()
    layer.zero_grads()
    layer.forward(x)
    layer.backward(err)
    trainer._update(0.0, np.zeros((8, 4), np.float32), np.zeros(8, int))
    _old_chain(want_w, want_v, np.zeros_like(want_w) + err.T @ x, 0.01, 0.3)
    _assert_same(trainer._velocity["0.dense.weights"], want_v, "velocities")
    _assert_same(layer.weights, want_w, "parameters")
