"""Tests for the graph checker and the TrainingLoop pre-flight."""

import numpy as np
import pytest

from repro.check.graph import (
    preflight_network,
    verify_network,
    verify_networks,
)
from repro.core.convspec import ConvSpec
from repro.data.synthetic import mnist_like
from repro.errors import CheckError
from repro.nn.layers.activations import FlattenLayer, ReLULayer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.pool import MaxPoolLayer
from repro.nn.network import Network
from repro.nn.training_loop import TrainingLoop
from repro.nn.zoo import alexnet_small, cifar10_net, imagenet100_net, mnist_net


def _tiny_net(pool_kernel=2, pool_stride=2, extra_relu=False,
              input_extent=8) -> Network:
    spec = ConvSpec(nc=1, ny=input_extent, nx=input_extent, nf=2, fy=3, fx=3,
                    name="conv1")
    out = spec.output_shape  # (nf, oy, ox)
    pooled_y = (out[1] - pool_kernel) // pool_stride + 1
    pooled_x = (out[2] - pool_kernel) // pool_stride + 1
    layers = [
        ConvLayer(spec, name="conv1"),
        ReLULayer(name="relu1"),
    ]
    if extra_relu:
        layers.append(ReLULayer(name="relu2"))
    layers += [
        MaxPoolLayer(pool_kernel, pool_stride, name="pool1"),
        FlattenLayer(name="flat"),
        DenseLayer(out[0] * pooled_y * pooled_x, 4, name="fc"),
    ]
    return Network(layers, input_shape=(1, input_extent, input_extent),
                   name="tiny")


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


class TestVerifyNetwork:
    @pytest.mark.parametrize("factory", [
        mnist_net, cifar10_net, imagenet100_net, alexnet_small,
    ])
    def test_zoo_networks_have_no_errors(self, factory):
        assert _errors(verify_network(factory())) == []

    def test_clean_tiny_net(self):
        assert _errors(verify_network(_tiny_net())) == []

    @pytest.mark.parametrize("factory", [
        mnist_net, cifar10_net, imagenet100_net, alexnet_small,
    ])
    def test_zoo_preflight_is_scheduler_invariant(self, factory):
        # The graph verifier probes shapes/dtypes through the same
        # layers either scheduler executes; its verdict must not depend
        # on which step-execution strategy the network is set to.
        net = factory(scale=0.25)
        try:
            by_scheduler = {}
            for scheduler in ("barrier", "dag"):
                net.set_scheduler(scheduler)
                by_scheduler[scheduler] = [
                    (f.severity, f.location, f.message)
                    for f in verify_network(net)
                ]
            assert by_scheduler["barrier"] == by_scheduler["dag"]
            assert not [f for f in by_scheduler["barrier"]
                        if f[0] == "error"]
        finally:
            for layer in net.conv_layers():
                layer.close()

    def test_consecutive_relu_is_dead_layer_warning(self):
        findings = verify_network(_tiny_net(extra_relu=True))
        assert any("dead layer" in f.message and f.severity == "warning"
                   for f in findings)

    def test_pool_window_drop_is_warned(self):
        # 7x7 activations with a 2x2/2 pool cover only 6 positions.
        net = _tiny_net(input_extent=9)  # conv -> 7x7
        findings = verify_network(net)
        drops = [f for f in findings if "drops" in f.message]
        assert len(drops) == 2  # y and x axes
        assert all(f.severity == "warning" for f in drops)

    def test_doctored_weights_shape_is_an_error(self):
        net = _tiny_net()
        conv = net.conv_layers()[0]
        conv.weights = np.zeros((2, 1, 5, 5), dtype=np.float32)
        findings = verify_network(net)
        assert any("weight tensor" in f.message and f.severity == "error"
                   for f in findings)

    def test_dtype_drift_is_warned(self):
        net = _tiny_net()
        conv = net.conv_layers()[0]
        conv.weights = conv.weights.astype(np.float64)
        findings = verify_network(net)
        assert any("dtype drift" in f.message and f.severity == "warning"
                   for f in findings)

    def test_verify_networks_aggregates(self):
        nets = [_tiny_net(extra_relu=True), _tiny_net(input_extent=9)]
        findings = verify_networks(nets)
        assert any("dead layer" in f.message for f in findings)
        assert any("drops" in f.message for f in findings)


class TestPreflight:
    def test_clean_network_returns_report(self):
        report = preflight_network(_tiny_net())
        assert report.ok

    def test_training_loop_runs_preflight(self):
        net = _tiny_net(input_extent=28)
        net.conv_layers()[0].weights = np.zeros((2, 1, 5, 5),
                                                dtype=np.float32)
        with pytest.raises(CheckError, match="preflight of network 'tiny'"):
            TrainingLoop(net, mnist_like(8, seed=0), batch_size=4)

    def test_training_loop_preflight_can_be_disabled(self):
        net = _tiny_net(input_extent=28)
        loop = TrainingLoop(net, mnist_like(8, seed=0), batch_size=4)
        assert loop.network is net
        # And an explicitly disabled preflight skips the checker entirely.
        bad = _tiny_net(input_extent=28)
        bad.conv_layers()[0].weights = np.zeros((2, 1, 5, 5),
                                                dtype=np.float32)
        loop = TrainingLoop(bad, mnist_like(8, seed=0), batch_size=4,
                            preflight=False)
        assert loop.network is bad
