"""The SGD step does not pay for the image gradient nobody reads.

``Network.backward(..., need_input_error=False)`` skips BP-data of the
conv fed by the images -- on the barrier path and in the DAG -- while
every parameter gradient stays bit-identical and the default call still
returns the input error.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.nn.netdef import build_network
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net, mnist_net
from repro.runtime.dag import build_backward_graph

BATCH = 4


def close_network(network):
    for layer in network.conv_layers():
        layer.close()


def _batch(network, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((BATCH, *network.input_shape)).astype(np.float32)
    err = rng.standard_normal(
        (BATCH, *network.output_shape)).astype(np.float32)
    return x, err


def _grads(network, x, err, **backward_kwargs):
    network.zero_grads()
    network.forward(x, training=True)
    in_err = network.backward(err, **backward_kwargs)
    return in_err, [np.array(g) for _, _, g in network.parameters()]


@pytest.mark.parametrize("builder", [mnist_net, cifar10_net],
                         ids=lambda b: b.__name__)
@pytest.mark.parametrize("scheduler", ["barrier", "dag"])
@pytest.mark.parametrize("threads,backend", [
    (None, "thread"), (2, "thread"), (2, "process")])
def test_parameter_gradients_are_bit_equal(builder, scheduler, threads,
                                           backend):
    network = builder(scale=0.25, rng=np.random.default_rng(1),
                      threads=threads, backend=backend)
    network.set_scheduler(scheduler)
    try:
        x, err = _batch(network)
        full_err, full = _grads(network, x, err)
        skipped_err, skipped = _grads(network, x, err,
                                      need_input_error=False)
    finally:
        close_network(network)
    assert full_err.shape == x.shape     # the default still returns it
    assert skipped_err is None
    assert len(full) == len(skipped)
    for want, got in zip(full, skipped):
        np.testing.assert_array_equal(got, want)


def test_skipped_path_calls_no_backward_data_on_the_input_conv():
    # Each conv's backward is one engine call; the input conv's asks for
    # no input error, and no BP-data runs for it.
    network = cifar10_net(scale=0.25, rng=np.random.default_rng(1))
    x, err = _batch(network)
    first, second = network.conv_layers()
    calls = []
    for layer in (first, second):
        engine = layer._bp_engine
        original = engine.backward

        def spy(out_error, inputs, weights, crop=0, need_input_error=True,
                name=layer.name, original=original):
            calls.append((name, need_input_error))
            d_weights, in_error = original(out_error, inputs, weights, crop,
                                           need_input_error)
            assert (in_error is not None) == need_input_error
            return d_weights, in_error

        engine.backward = spy
    _grads(network, x, err, need_input_error=False)
    assert calls == [(second.name, True), (first.name, False)]
    calls.clear()
    _grads(network, x, err)
    assert calls == [(second.name, True), (first.name, True)]


def test_sgd_step_takes_the_skipped_path_and_halves_the_input_conv_flops():
    network = cifar10_net(scale=0.25, rng=np.random.default_rng(1))
    x, _ = _batch(network)
    labels = np.arange(BATCH) % network.output_shape[0]
    with telemetry.collect() as tel:
        SGDTrainer(network).step(x, labels)
    first, second = network.conv_layers()
    want = BATCH * (first.padded_spec.flops + 2.0 * second.padded_spec.flops)
    assert tel.counters["conv.flops.total"] == pytest.approx(want)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_dag_has_no_bd_nodes_for_the_input_conv(backend):
    network = cifar10_net(scale=0.25, rng=np.random.default_rng(1),
                          threads=2, backend=backend)
    try:
        _, err = _batch(network)
        first, second = (layer.name for layer in network.conv_layers())
        full, _ = build_backward_graph(network, err)
        step, ecells = build_backward_graph(network, err,
                                            need_input_error=False)
    finally:
        close_network(network)
    full_names = {node.name for node in full.nodes}
    step_names = {node.name for node in step.nodes}
    dropped = full_names - step_names
    assert dropped and step_names < full_names
    assert all(name.startswith(f"bp/{first}/bd") for name in dropped)
    assert f"bp/{first}/bd_prep" in dropped
    assert f"bp/{first}/dw_reduce" in step_names
    assert f"bp/{second}/bd_prep" in step_names
    assert ecells[0] is None


def test_non_conv_first_layer_is_unaffected():
    network = build_network(
        {"input": [1, 4, 4], "layers": [
            {"type": "flatten"}, {"type": "dense", "features": 3}]},
        rng=np.random.default_rng(0),
    )
    x, err = _batch(network)
    full_err, full = _grads(network, x, err)
    same_err, same = _grads(network, x, err, need_input_error=False)
    np.testing.assert_array_equal(same_err, full_err)
    for want, got in zip(full, same):
        np.testing.assert_array_equal(got, want)
