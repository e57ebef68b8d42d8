"""End-to-end integration tests crossing all subsystems."""

import numpy as np
import pytest

import repro
from repro.core.autotuner import MeasuredCostBackend, ModelCostBackend
from repro.core.framework import SpgCNN
from repro.data.synthetic import make_dataset
from repro.machine.spec import xeon_e5_2650
from repro.nn.netdef import network_from_text
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net


class TestTrainingEquivalenceAcrossEngines:
    """Training must be bit-for-bit comparable regardless of engines."""

    def _train(self, fp_engine, bp_engine, steps=3):
        net = network_from_text(
            """
            name: "eq"
            input: 1 12 12
            layer { type: conv features: 4 kernel: 3 }
            layer { type: relu }
            layer { type: pool kernel: 2 stride: 2 }
            layer { type: flatten }
            layer { type: dense features: 3 }
            """,
            rng=np.random.default_rng(11),
        )
        conv = net.conv_layers()[0]
        conv.set_fp_engine(fp_engine)
        conv.set_bp_engine(bp_engine)
        data = make_dataset(24, 3, (1, 12, 12), seed=11)
        trainer = SGDTrainer(net, learning_rate=0.05)
        losses = []
        for _ in range(steps):
            result = trainer.step(data.images[:8], data.labels[:8])
            losses.append(result.loss)
        return losses, conv.weights.copy()

    def test_all_engine_pairs_train_identically(self):
        reference_losses, reference_weights = self._train(
            "gemm-in-parallel", "gemm-in-parallel"
        )
        for fp in ("parallel-gemm", "stencil"):
            for bp in ("parallel-gemm", "sparse"):
                losses, weights = self._train(fp, bp)
                np.testing.assert_allclose(
                    losses, reference_losses, atol=1e-3,
                    err_msg=f"{fp}/{bp} diverged in loss",
                )
                np.testing.assert_allclose(
                    weights, reference_weights, atol=1e-2,
                    err_msg=f"{fp}/{bp} diverged in weights",
                )


class TestFullPipeline:
    def test_cifar_style_training_under_spg(self):
        net = cifar10_net(scale=0.2, rng=np.random.default_rng(0))
        spg = SpgCNN(net, ModelCostBackend(xeon_e5_2650(), cores=16, batch=64))
        plan = spg.optimize()
        assert len(plan.layers) == 2
        data = make_dataset(24, 10, (3, 32, 32), noise=0.3, seed=0)
        trainer = SGDTrainer(net, learning_rate=0.05)
        first = trainer.train_epoch(data.images, data.labels, batch_size=8)
        spg.after_epoch(1)
        second = trainer.train_epoch(data.images, data.labels, batch_size=8)
        spg.after_epoch(2)
        assert np.mean([r.loss for r in second]) < np.mean(
            [r.loss for r in first]
        )
        # After two epochs the measured error sparsity is high (Fig. 3b).
        sparsities = net.error_sparsities()
        assert all(s > 0.6 for s in sparsities.values()), sparsities

    def test_measured_backend_end_to_end(self):
        # The paper's actual mechanism: micro-benchmark each technique on
        # the host and deploy the winner.
        net = cifar10_net(scale=0.1, rng=np.random.default_rng(1))
        spg = SpgCNN(net, MeasuredCostBackend(batch=1, repeats=1))
        plan = spg.optimize()
        for layer, layer_plan in zip(net.conv_layers(), plan.layers):
            assert layer_plan.layer_name == layer.name
            assert layer.fp_engine_name == layer_plan.fp_engine

    def test_public_api_surface(self):
        # Everything __all__ promises must resolve.
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_snippet(self):
        # The README quickstart, executed literally.
        spec = repro.ConvSpec(nc=3, ny=32, nx=32, nf=64, fy=5, fx=5, pad=2)
        ch = repro.characterize(spec, sparsity=0.85)
        assert ch.region.is_sparse
        engine = repro.make_engine("stencil", repro.ConvSpec(
            nc=3, ny=36, nx=36, nf=64, fy=5, fx=5
        ))
        x = np.zeros((1, 3, 36, 36), dtype=np.float32)
        w = np.zeros((64, 3, 5, 5), dtype=np.float32)
        assert engine.forward(x, w).shape == (1, 64, 32, 32)


class TestGradientFlowThroughWholeNetwork:
    def test_network_gradient_numerically(self):
        # Finite-difference check of dLoss/dW through conv+relu+pool+dense.
        from repro.nn.losses import softmax_cross_entropy

        net = network_from_text(
            """
            input: 1 8 8
            layer { type: conv features: 2 kernel: 3 }
            layer { type: relu }
            layer { type: flatten }
            layer { type: dense features: 2 }
            """,
            rng=np.random.default_rng(3),
        )
        conv = net.conv_layers()[0]
        conv.weights = conv.weights.astype(np.float64)
        conv.bias = conv.bias.astype(np.float64)
        conv.d_weights = np.zeros_like(conv.weights)
        conv.d_bias = np.zeros_like(conv.bias)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 1, 8, 8))
        labels = np.array([0, 1, 0, 1])

        def loss_value():
            logits = net.forward(x, training=True)
            loss, _ = softmax_cross_entropy(logits, labels)
            return loss

        net.zero_grads()
        logits = net.forward(x)
        _, grad = softmax_cross_entropy(logits, labels)
        net.backward(grad)
        analytic = conv.d_weights.copy()

        eps = 1e-5
        for idx in [(0, 0, 0, 0), (1, 0, 2, 1), (0, 0, 1, 2)]:
            original = conv.weights[idx]
            conv.weights[idx] = original + eps
            plus = loss_value()
            conv.weights[idx] = original - eps
            minus = loss_value()
            conv.weights[idx] = original
            numeric = (plus - minus) / (2 * eps)
            assert analytic[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-7)
