"""Tests for the SpgCNN top-level framework."""

import numpy as np
import pytest

from repro import native, telemetry
from repro.core.autotuner import CostBackend, ModelCostBackend
from repro.core.framework import SpgCNN
from repro.data.synthetic import make_dataset
from repro.errors import PlanError
from repro.machine.spec import xeon_e5_2650
from repro.nn.netdef import build_network
from repro.nn.sgd import SGDTrainer, StepResult
from repro.nn.training_loop import TrainingLoop
from tests.conftest import needs_cc

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


def _for_layer(plan, name):
    (layer_plan,) = [p for p in plan.layers if p.layer_name == name]
    return layer_plan


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
            layer_plan = _for_layer(plan, layer.name)
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
        net.conv_layers()[0].set_bp_engine("stencil")
        plan = make_spg(net).optimize()
        planned = _for_layer(plan, "convA")
        assert planned.bp_engine in planned.bp_timings
        assert net.conv_layers()[0].bp_engine_name == planned.bp_engine
        assert _for_layer(plan, "convB").bp_timings == {}


class TestLoweringReasons:
    """Every plan says why a candidate's kernels run on the reference."""

    def test_without_a_compiler_both_generated_engines_say_why(
            self, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._resolved.cache_clear()
        try:
            spg = make_spg(small_net(), recheck_epochs=1)
            plans = [spg.optimize(), spg.plan]
            spg.after_epoch(1)
            plans.append(spg.plan)
        finally:
            native._resolved.cache_clear()
        for plan in plans:
            for layer_plan in plan.layers:
                reasons = layer_plan.lowering_reasons
                assert set(reasons) == {"stencil", "sparse"}
                assert all("no C compiler" in why for why in reasons.values())

    @needs_cc
    def test_with_a_compiler_only_a_stride_the_printer_lacks_is_named(self):
        net = build_network(
            {"input": [1, 24, 24], "layers": [
                {"type": "conv", "features": 4, "kernel": 3, "stride": 2,
                 "name": "strided"},
                {"type": "relu"},
                {"type": "conv", "features": 4, "kernel": 3, "name": "plain"},
                {"type": "flatten"}, {"type": "dense", "features": 2},
            ]},
            rng=np.random.default_rng(0))
        plan = make_spg(net).optimize()
        (why,) = _for_layer(plan, "strided").lowering_reasons.values()
        assert "stencil" in _for_layer(plan, "strided").lowering_reasons
        assert "stride-1" in why
        assert _for_layer(plan, "plain").lowering_reasons == {}


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
            assert (layer.bp_engine_name
                    == _for_layer(spg.plan, layer.name).bp_engine)

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


class _SparseBpWins(CostBackend):
    """Every candidate costs 1 but sparse BP, which costs 0.1."""

    def time(self, technique, phase, spec, sparsity):
        return 0.1 if technique == "sparse" else 1.0


def _step(skipped=False):
    return StepResult(loss=1.0, accuracy=0.0, skipped=skipped)


class TestAfterBatch:
    """BP is planned after the first applied step, once."""

    def test_requires_optimize(self):
        with pytest.raises(PlanError):
            make_spg(small_net()).after_batch(1, 0, _step())

    def test_first_applied_step_plans_bp_once(self):
        net = small_net()
        spg = make_spg(net)
        spg.optimize()
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.95
        with telemetry.collect() as tel:
            assert spg.after_batch(1, 0, _step(skipped=True)) == []
            assert spg.plan.layers[0].bp_timings == {}
            events = spg.after_batch(1, 1, _step())
            planned = spg.plan.layers
            assert spg.after_batch(1, 2, _step()) == []
            assert spg.after_batch(2, 0, _step()) == []
        assert events and all(e.new_engine == "sparse" for e in events)
        assert all(e.epoch == 1 and e.sparsity == 0.95 for e in events)
        assert all(p.bp_timings for p in planned)
        # Later calls leave the very same plan objects deployed.
        assert all(a is b for a, b in zip(spg.plan.layers, planned))
        (replan,) = tel.find_spans("spg/replan")
        assert (replan.attrs["epoch"], replan.attrs["batch"]) == (1, 1)
        assert tel.counters["retune.count"] == len(events)
        assert spg.retune_events == events

    def test_epoch_rechecks_keep_their_cadence(self):
        net = small_net()
        spg = make_spg(net, recheck_epochs=2)
        spg.optimize()
        with telemetry.collect() as tel:
            spg.after_batch(1, 0, _step())
            assert spg.after_epoch(1) == []
            spg.after_epoch(2)
        assert [s.attrs.get("batch") for s in tel.find_spans("spg/replan")] \
            == [0, None]

    def test_a_loop_runs_the_planned_bp_from_its_second_step(self):
        net = small_net(seed=2)
        spg = SpgCNN(net, _SparseBpWins())
        spg.optimize()
        loop = TrainingLoop(
            net, make_dataset(32, 4, (1, 24, 24), noise=0.2, seed=2),
            batch_size=8, shuffle_seed=0, preflight=False)
        loop.add_batch_hook(spg.after_batch)
        with telemetry.collect() as tel:
            loop.run(1)
        for layer in net.conv_layers():
            engines = [s.attrs["engine"]
                       for s in tel.find_spans(f"{layer.name}/bp")]
            assert engines == ["gemm-in-parallel"] + ["sparse"] * 3


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
                assert _for_layer(spg.plan, layer.name).bp_engine == "sparse"
