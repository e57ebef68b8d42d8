"""Tests for the model zoo."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.zoo import cifar10_net, imagenet100_net, mnist_net


class TestTrainableNets:
    def test_mnist_net_shapes(self):
        net = mnist_net()
        assert net.input_shape == (1, 28, 28)
        assert net.output_shape == (10,)
        assert net.conv_layers()[0].spec.nf == 20

    def test_cifar_net_uses_table2_geometry(self):
        net = cifar10_net()
        conv0 = net.conv_layers()[0]
        # 32x32 input with pad 2 is the Table 2 "36" padded extent.
        assert conv0.spec.padded_ny == 36
        assert conv0.spec.nf == 64 and conv0.spec.fy == 5

    def test_imagenet100_has_100_classes(self):
        net = imagenet100_net()
        assert net.output_shape == (100,)

    def test_scale_shrinks_features(self):
        full = cifar10_net()
        half = cifar10_net(scale=0.5)
        assert half.conv_layers()[0].spec.nf == 32
        assert half.num_parameters() < full.num_parameters()

    def test_scale_never_drops_to_zero(self):
        tiny = mnist_net(scale=0.01)
        assert tiny.conv_layers()[0].spec.nf >= 1

    def test_rejects_bad_scale(self):
        with pytest.raises(ShapeError):
            mnist_net(scale=0.0)

    def test_all_trainable_nets_forward(self):
        for name, builder in (("MNIST", mnist_net), ("CIFAR", cifar10_net),
                              ("ImageNet100", imagenet100_net)):
            net = builder(scale=0.2)
            x = np.zeros((1,) + net.input_shape, dtype=np.float32)
            out = net.forward(x, training=False)
            assert out.shape[0] == 1, name
