"""Tests for the network-description formats."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.netdef import build_network, network_from_text, parse_netdef

CIFAR_TEXT = """
name: "cifar10-small"
input: 3 32 32
# two conv blocks then a classifier
layer { type: conv features: 16 kernel: 5 stride: 1 pad: 2 }
layer { type: relu }
layer { type: pool kernel: 2 stride: 2 }
layer { type: flatten }
layer { type: dense features: 10 }
"""


class TestParser:
    def test_parses_full_definition(self):
        definition = parse_netdef(CIFAR_TEXT)
        assert definition["name"] == "cifar10-small"
        assert definition["input"] == [3, 32, 32]
        assert len(definition["layers"]) == 5
        assert definition["layers"][0] == {
            "type": "conv", "features": 16, "kernel": 5, "stride": 1, "pad": 2
        }

    def test_comments_are_ignored(self):
        definition = parse_netdef(CIFAR_TEXT)
        types = [layer["type"] for layer in definition["layers"]]
        assert types == ["conv", "relu", "pool", "flatten", "dense"]

    def test_missing_input_rejected(self):
        with pytest.raises(ShapeError):
            parse_netdef('name: "x"\nlayer { type: relu }')

    def test_unterminated_layer_rejected(self):
        with pytest.raises(ShapeError):
            parse_netdef("input: 1 2 2\nlayer { type: relu")

    def test_bad_token_rejected(self):
        with pytest.raises(ShapeError):
            parse_netdef("input: 1 2 2\nbogus")

    def test_wrong_input_arity_rejected(self):
        with pytest.raises(ShapeError):
            parse_netdef("input: 1 2")


class TestBuildNetwork:
    def test_text_and_dict_paths_agree(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        net_text = network_from_text(CIFAR_TEXT, rng=rng_a)
        net_dict = build_network(parse_netdef(CIFAR_TEXT), rng=rng_b)
        assert net_text.layer_shapes == net_dict.layer_shapes
        np.testing.assert_array_equal(
            net_text.conv_layers()[0].weights, net_dict.conv_layers()[0].weights
        )

    def test_conv_shape_inference(self):
        net = network_from_text(CIFAR_TEXT)
        conv = net.conv_layers()[0]
        assert conv.spec.nc == 3 and conv.spec.ny == 32
        assert net.layer_shapes[1] == (16, 32, 32)

    def test_unknown_layer_type_rejected(self):
        with pytest.raises(ShapeError):
            build_network({"input": [1, 4, 4], "layers": [{"type": "softplus"}]})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ShapeError):
            build_network({"input": [1, 4, 4], "layers": [{"type": "conv"}]})

    def test_dense_requires_flatten(self):
        with pytest.raises(ShapeError):
            build_network(
                {"input": [1, 4, 4], "layers": [{"type": "dense", "features": 2}]}
            )

    def test_threads_share_one_pool_and_plain_engines(self):
        from repro.ops.engine import ConvEngine

        net = network_from_text(CIFAR_TEXT, threads=2)
        try:
            convs = net.conv_layers()
            assert len({id(conv._pool) for conv in convs}) == 1
            assert convs[0]._pool.num_workers == 2
            # The pool is the network's; each layer computes inline.
            for conv in convs:
                assert isinstance(conv._fp_engine, ConvEngine)
                assert isinstance(conv._bp_engine, ConvEngine)
        finally:
            for conv in net.conv_layers():
                conv.close()

    def test_built_network_trains_forward(self):
        net = network_from_text(CIFAR_TEXT)
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(
            np.float32
        )
        assert net.forward(x).shape == (2, 10)
