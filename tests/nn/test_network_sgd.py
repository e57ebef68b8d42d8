"""Tests for the network container and SGD training."""

import numpy as np
import pytest

from repro import telemetry
from repro.data.synthetic import make_dataset
from repro.errors import ShapeError
from repro.nn.netdef import build_network
from repro.nn.network import Network
from repro.nn.sgd import SGDTrainer
from tests.conftest import solo_layers


def tiny_net(num_classes=4, seed=0):
    return build_network(
        {
            "name": "tiny",
            "input": [1, 8, 8],
            "layers": [
                {"type": "conv", "features": 4, "kernel": 3},
                {"type": "relu"},
                {"type": "pool", "kernel": 2, "stride": 2},
                {"type": "flatten"},
                {"type": "dense", "features": num_classes},
            ],
        },
        rng=np.random.default_rng(seed),
    )


class TestNetwork:
    def test_shape_chain_validated_eagerly(self):
        with pytest.raises(ShapeError):
            build_network(
                {
                    "input": [1, 8, 8],
                    "layers": [
                        {"type": "flatten"},
                        {"type": "conv", "features": 2, "kernel": 3},
                    ],
                }
            )

    def test_layer_shapes_recorded(self):
        net = tiny_net()
        assert net.layer_shapes[0] == (1, 8, 8)
        assert net.layer_shapes[1] == (4, 6, 6)
        assert net.output_shape == (4,)

    def test_forward_output_shape(self, rng):
        net = tiny_net()
        out = net.forward(rng.standard_normal((5, 1, 8, 8)).astype(np.float32))
        assert out.shape == (5, 4)

    def test_conv_layers_enumerated(self):
        assert len(tiny_net().conv_layers()) == 1

    def test_parameters_and_grads_paired(self):
        net = tiny_net()
        for name, param, grad in net.parameters():
            assert param.shape == grad.shape, name
        assert net.num_parameters() > 0

    def test_describe_mentions_layers(self):
        text = tiny_net().describe()
        assert "conv" in text and "dense" in text and "parameters" in text

    def test_rejects_empty_network(self):
        with pytest.raises(ShapeError):
            Network([], input_shape=(1, 2, 2))

    def test_rejects_wrong_input(self, rng):
        net = tiny_net()
        with pytest.raises(ShapeError):
            net.forward(rng.standard_normal((2, 1, 9, 8)).astype(np.float32))

    def test_error_sparsities_after_backward(self, rng):
        net = tiny_net()
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        logits = net.forward(x)
        net.backward(np.ones_like(logits))
        sparsities = net.error_sparsities()
        assert set(sparsities) == {"conv0"}
        assert 0 <= sparsities["conv0"] <= 1


    def test_every_layer_call_has_one_span(self, rng):
        # Conv layers open their own (with layer, engine, lowering); the
        # network opens one for every other layer call, carrying the
        # phase and the layer -- so the run report has a row per layer
        # that ran.  The ReLU and pool of a fused run are not called:
        # the conv's span says it ran fused.
        net = tiny_net()
        x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        with telemetry.collect() as tel:
            net.backward(net.forward(x), need_input_error=False)
        names = [s.name for s in tel.spans]
        assert sorted(names) == sorted(
            f"{layer.name}/{phase}" for layer in solo_layers(net)
            for phase in ("fp", "bp"))
        for span in tel.spans:
            layer, phase = span.name.rsplit("/", 1)
            assert span.attrs["layer"] == layer
            if layer != net.layers[0].name:
                assert span.attrs == {"phase": phase, "layer": layer}
        (conv_fp,) = tel.find_spans(f"{net.layers[0].name}/fp")
        assert ("fused" in conv_fp.attrs) == bool(net._fused)


class TestSGDTrainer:
    def test_loss_decreases_on_learnable_task(self):
        net = tiny_net()
        data = make_dataset(64, 4, (1, 8, 8), noise=0.2, seed=3)
        trainer = SGDTrainer(net, learning_rate=0.05)
        first = trainer.train_epoch(data.images, data.labels, batch_size=16)
        for _ in range(4):
            last = trainer.train_epoch(data.images, data.labels, batch_size=16)
        assert np.mean([r.loss for r in last]) < np.mean([r.loss for r in first])

    def test_accuracy_improves(self):
        net = tiny_net(seed=1)
        data = make_dataset(64, 4, (1, 8, 8), noise=0.1, seed=4)
        trainer = SGDTrainer(net, learning_rate=0.05)
        _, acc_before = trainer.evaluate(data.images, data.labels)
        for _ in range(6):
            trainer.train_epoch(data.images, data.labels, batch_size=16)
        _, acc_after = trainer.evaluate(data.images, data.labels)
        assert acc_after > acc_before

    def test_step_reports_sparsities(self, rng):
        net = tiny_net()
        data = make_dataset(8, 4, (1, 8, 8), seed=5)
        trainer = SGDTrainer(net)
        result = trainer.step(data.images, data.labels)
        assert "conv0" in result.error_sparsities
        assert result.loss > 0

    def test_momentum_accumulates_velocity(self):
        net = tiny_net()
        data = make_dataset(8, 4, (1, 8, 8), seed=6)
        trainer = SGDTrainer(net, learning_rate=0.01, momentum=0.9)
        trainer.step(data.images, data.labels)
        assert trainer._velocity  # populated after first step

    def test_update_is_the_textbook_one_bit_for_bit(self):
        # The update computes its products into a reusable scratch; the
        # operations and their order are the naive expression's, and the
        # gradient arrays are still the step's gradients afterwards.
        net = tiny_net()
        data = make_dataset(8, 4, (1, 8, 8), seed=6)
        trainer = SGDTrainer(net, learning_rate=0.03, momentum=0.9)
        for _ in range(3):
            before = {name: (param.copy(),
                             trainer._velocity.get(name, 0 * param).copy())
                      for name, param, _ in net.parameters()}
            trainer.step(data.images, data.labels)
            for name, param, g in net.parameters():
                old, vel = before[name]
                assert g.any()
                vel *= 0.9
                vel -= 0.03 * g
                assert trainer._velocity[name].tobytes() == vel.tobytes()
                assert param.tobytes() == (old + vel).tobytes()

    def test_evaluate_does_not_train(self):
        net = tiny_net()
        data = make_dataset(16, 4, (1, 8, 8), seed=7)
        trainer = SGDTrainer(net)
        weights_before = net.conv_layers()[0].weights.copy()
        trainer.evaluate(data.images, data.labels)
        np.testing.assert_array_equal(net.conv_layers()[0].weights, weights_before)

    def test_rejects_bad_hyperparameters(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            SGDTrainer(net, learning_rate=0.0)
        with pytest.raises(ValueError):
            SGDTrainer(net, momentum=1.0)
        with pytest.raises(ValueError):
            SGDTrainer(net).train_epoch(
                np.zeros((2, 1, 8, 8), np.float32), np.zeros(2, int), 0
            )
