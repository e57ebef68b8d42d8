"""Tests for the SpgCNN top-level framework."""

import numpy as np
import pytest

from repro.core.autotuner import ModelCostBackend
from repro.core.framework import SpgCNN
from repro.data.synthetic import make_dataset
from repro.errors import PlanError
from repro.machine.spec import xeon_e5_2650
from repro.nn.netdef import build_network
from repro.nn.sgd import SGDTrainer

MACHINE = xeon_e5_2650()


def small_net(seed=0):
    return build_network(
        {
            "name": "small",
            "input": [1, 24, 24],
            "layers": [
                {"type": "conv", "features": 16, "kernel": 5, "name": "convA"},
                {"type": "relu"},
                {"type": "pool", "kernel": 2, "stride": 2},
                {"type": "conv", "features": 32, "kernel": 3, "name": "convB"},
                {"type": "relu"},
                {"type": "flatten"},
                {"type": "dense", "features": 4},
            ],
        },
        rng=np.random.default_rng(seed),
    )


def make_spg(net, **kwargs):
    backend = ModelCostBackend(MACHINE, cores=16, batch=64)
    return SpgCNN(net, backend, **kwargs)


class TestOptimize:
    def test_plans_every_conv_layer(self):
        net = small_net()
        spg = make_spg(net)
        plan = spg.optimize()
        assert {p.layer_name for p in plan.layers} == {"convA", "convB"}

    def test_engines_deployed_onto_layers(self):
        net = small_net()
        spg = make_spg(net)
        plan = spg.optimize()
        for layer in net.conv_layers():
            layer_plan = plan.for_layer(layer.name)
            assert layer.fp_engine_name == layer_plan.fp_engine
            assert layer.bp_engine_name == layer_plan.bp_engine

    def test_plan_property_requires_optimize(self):
        spg = make_spg(small_net())
        with pytest.raises(PlanError):
            _ = spg.plan
        spg.optimize()
        assert len(spg.plan.layers) == 2

    def test_rejects_conv_free_network(self):
        net = build_network(
            {"input": [1, 4, 4], "layers": [
                {"type": "flatten"}, {"type": "dense", "features": 2}
            ]}
        )
        with pytest.raises(PlanError):
            make_spg(net).optimize()

    def test_bp_waits_for_a_measured_sparsity(self):
        net = small_net()
        before = [layer.bp_engine_name for layer in net.conv_layers()]
        plan = make_spg(net).optimize()
        assert [p.bp_engine for p in plan.layers] == before
        assert all(p.bp_timings == {} for p in plan.layers)
        assert all(p.fp_timings for p in plan.layers)

    def test_bp_engine_outside_the_candidates_is_replanned_up_front(self):
        net = small_net()
        net.conv_layers()[0].set_bp_engine("fft")
        plan = make_spg(net).optimize()
        planned = plan.for_layer("convA")
        assert planned.bp_engine in planned.bp_timings
        assert net.conv_layers()[0].bp_engine_name == planned.bp_engine
        assert plan.for_layer("convB").bp_timings == {}


class TestRetuning:
    def test_after_epoch_only_fires_on_schedule(self):
        net = small_net()
        spg = make_spg(net, recheck_epochs=2)
        spg.optimize()
        assert spg.after_epoch(1) == []  # not a recheck epoch

    def test_retune_switches_to_sparse_when_training_sparsifies(self):
        net = small_net()
        spg = make_spg(net)
        plan = spg.optimize()
        assert all(p.bp_engine != "sparse" for p in plan.layers)
        # Simulate measured sparsity from training.
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.95
        events = spg.after_epoch(2)
        assert events, "expected at least one BP re-selection"
        for event in events:
            assert event.new_engine == "sparse"
            assert event.sparsity == 0.95
        for layer in net.conv_layers():
            assert layer.bp_engine_name == spg.plan.for_layer(layer.name).bp_engine

    def test_no_event_when_choice_is_stable(self):
        net = small_net()
        spg = make_spg(net)
        spg.optimize()
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.0
        assert spg.after_epoch(2) == []

    def test_events_accumulate(self):
        net = small_net()
        spg = make_spg(net)
        spg.optimize()
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.95
        spg.after_epoch(2)
        assert spg.retune_events

    def test_validation(self):
        spg = make_spg(small_net())
        with pytest.raises(PlanError):
            spg.after_epoch(1)  # before optimize()
        spg.optimize()
        with pytest.raises(PlanError):
            spg.after_epoch(0)
        with pytest.raises(PlanError):
            SpgCNN(small_net(), ModelCostBackend(MACHINE, 1, 1), recheck_epochs=0)


class TestEndToEndTrainingWithSpg:
    def test_training_with_retuning_converges(self):
        net = small_net(seed=2)
        spg = make_spg(net)
        spg.optimize()
        data = make_dataset(32, 4, (1, 24, 24), noise=0.2, seed=2)
        trainer = SGDTrainer(net, learning_rate=0.05)
        losses = []
        for epoch in range(1, 5):
            results = trainer.train_epoch(data.images, data.labels, batch_size=8)
            losses.append(np.mean([r.loss for r in results]))
            spg.after_epoch(epoch)
        assert losses[-1] < losses[0]
        # ReLU+pool training drives sparsity up; the framework must have
        # moved at least one layer's BP to the sparse kernel.
        assert any(
            layer.bp_engine_name == "sparse" for layer in net.conv_layers()
        )


class TestAfterEpochContract:
    def test_non_multiple_epochs_leave_plans_untouched(self):
        net = small_net()
        spg = make_spg(net, recheck_epochs=3)
        spg.optimize()
        before = {p.layer_name: p for p in spg.plan.layers}
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.95  # would flip if rechecked
        for epoch in (1, 2, 4, 5, 7):
            assert spg.after_epoch(epoch) == []
        after = {p.layer_name: p for p in spg.plan.layers}
        # The exact same plan objects are still deployed -- no replanning.
        assert all(after[name] is before[name] for name in before)
        assert spg.retune_events == []

    def test_retune_events_accumulate_across_calls(self):
        net = small_net()
        spg = make_spg(net, recheck_epochs=2)
        spg.optimize()
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.95
        first = spg.after_epoch(2)
        assert first  # flipped to sparse
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.0
        second = spg.after_epoch(4)
        assert second  # flipped back to a dense BP engine
        assert spg.retune_events == first + second
        assert spg.after_epoch(6) == []  # stable now
        assert spg.retune_events == first + second

    def test_sparsity_driven_flip_fires_event_and_redeploys(self):
        net = small_net()
        spg = make_spg(net)
        spg.optimize()
        deployed_before = {
            layer.name: layer.bp_engine_name for layer in net.conv_layers()
        }
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.95
        events = spg.after_epoch(2)
        assert events
        flipped = {e.layer_name for e in events}
        for layer in net.conv_layers():
            if layer.name in flipped:
                event = next(e for e in events if e.layer_name == layer.name)
                # The event records the transition...
                assert event.old_engine == deployed_before[layer.name]
                assert event.new_engine == "sparse"
                assert event.sparsity == 0.95
                # ...and the layer actually executes the new engine now.
                assert layer.bp_engine_name == "sparse"
                assert spg.plan.for_layer(layer.name).bp_engine == "sparse"
