"""Functional tests of the memoised, probe-gated measuring backend.

No wall-clock inequalities: the backend reads a fake clock that only
the stub engines advance, so every "timing" below is a planted number
and every assertion is about which engine calls were (not) made.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.autotuner import Autotuner, MeasuredCostBackend
from repro.core.convspec import ConvSpec
from repro.core.framework import SpgCNN
from repro.errors import PlanError
from repro.nn.netdef import build_network
from repro.nn.sgd import StepResult
from repro.resilience.quarantine import default_registry

SPEC = ConvSpec(nc=2, ny=10, nx=10, nf=3, fy=3, fx=3)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class StubEngines:
    """An engine factory whose engines only advance the fake clock.

    ``cost[name]`` is seconds per image and call; a callable cost
    receives the error density, which is how the sparse stub gets
    cheaper as the error empties.
    """

    def __init__(self, clock, cost):
        self.clock = clock
        self.cost = cost
        self.calls = []          # (engine, method, images, spec)
        self.crops = []          # crop of each backward call
        self.released = []

    def __call__(self, name, spec):
        return _StubEngine(name, spec, self)

    def images(self, engine):
        return [n for e, _, n, _ in self.calls if e == engine]

    def methods(self, spec=None):
        return {m for _, m, _, s in self.calls if spec is None or s == spec}


class _StubEngine:
    def __init__(self, name, spec, owner):
        self.name = name
        self.spec = spec
        self.owner = owner

    def _call(self, method, primary):
        cost = self.owner.cost[self.name]
        if callable(cost):
            cost = cost(np.count_nonzero(primary) / primary.size)
        self.owner.calls.append((self.name, method, len(primary), self.spec))
        self.owner.clock.now += cost * len(primary)

    def forward(self, inputs, weights):
        self._call("forward", inputs)

    def backward_data(self, out_error, weights):
        self._call("backward_data", out_error)

    def backward_weights(self, out_error, inputs):
        self._call("backward_weights", out_error)

    def backward(self, out_error, inputs, weights, crop=0,
                 need_input_error=True):
        self.owner.crops.append(crop)
        self.backward_weights(out_error, inputs)
        if need_input_error:
            self.backward_data(out_error, weights)

    def release_workspace(self):
        self.owner.released.append(self.name)


def make_backend(cost, **kwargs):
    clock = FakeClock()
    engines = StubEngines(clock, cost)
    backend = MeasuredCostBackend(clock=clock, engine_factory=engines,
                                  **kwargs)
    return backend, engines


DENSE = {"parallel-gemm": 1.0, "gemm-in-parallel": 1.0, "stencil": 1.0}


class TestMemo:
    def test_second_replan_in_the_same_bucket_calls_no_engine(self):
        backend, engines = make_backend({**DENSE, "stencil": 1.0,
                                         "sparse": 30.0})
        tuner = Autotuner(backend)
        plan = tuner.plan_fp(SPEC, "c", ("gemm-in-parallel",
                                         "gemm-in-parallel"))
        plan = tuner.replan_bp(plan, 0.85)
        made = len(engines.calls)
        measured = backend.measured
        again = tuner.replan_bp(plan, 0.86)       # same density octave
        assert len(engines.calls) == made
        assert backend.measured == measured
        assert backend.memo_hits >= 3
        assert again.bp_timings == plan.bp_timings

    def test_a_bucket_is_measured_at_its_own_density_not_the_first_querys(
            self):
        # The memo key is the density octave, so the operand must be a
        # property of the octave too: first queries at its two ends see
        # the same error density (the geometric mean, 2^-2.5 here) ...
        seen = {}
        for first_query in (0.76, 0.874):         # both in (1/8, 1/4]
            densities = []
            backend, engines = make_backend(
                {**DENSE, "sparse": lambda d: densities.append(d) or 1.0})
            tuner = Autotuner(backend)
            plan = tuner.plan_fp(SPEC, "c", ("gemm-in-parallel",
                                             "gemm-in-parallel"))
            plan = tuner.replan_bp(plan, first_query)
            assert densities
            seen[first_query] = densities
            # ... and a recheck anywhere inside it calls no engine.
            made = len(engines.calls)
            tuner.replan_bp(plan, 0.80)
            assert len(engines.calls) == made
        assert seen[0.76] == seen[0.874]          # same seed, same draw
        assert all(abs(d - 2 ** -2.5) < 0.06 for d in seen[0.76])
        assert MeasuredCostBackend.bucket_sparsity(2) == \
            pytest.approx(1 - 2 ** -2.5)

    def test_dense_engines_are_keyed_sparsity_free(self):
        backend, engines = make_backend({**DENSE, "sparse": 30.0})
        tuner = Autotuner(backend)
        plan = tuner.plan_layer(SPEC, "c", sparsity=0.5)
        engines.calls.clear()
        tuner.replan_bp(plan, 0.99)               # a new bucket
        assert {call[0] for call in engines.calls} == {"sparse"}

    def test_buckets_halve_the_density(self):
        bucket = MeasuredCostBackend.sparsity_bucket
        assert [bucket(s) for s in (0.0, 0.49, 0.5, 0.75, 0.85, 0.875)] == \
            [0, 0, 1, 2, 2, 3]
        assert bucket(0.98) == 5
        assert bucket(1.0) == 16

    def test_time_is_memoised_too(self):
        backend, engines = make_backend(DENSE)
        first = backend.time("gemm-in-parallel", "fp", SPEC, 0.0)
        made = len(engines.calls)
        assert backend.time("gemm-in-parallel", "fp", SPEC, 0.3) == first
        assert len(engines.calls) == made


class TestProbeGate:
    def test_slow_probe_is_never_run_at_the_measuring_batch(self):
        backend, engines = make_backend({**DENSE, "sparse": 30.0})
        timings = backend.rank(("parallel-gemm", "gemm-in-parallel",
                                "sparse"), "bp", SPEC, 0.85,
                               incumbent="gemm-in-parallel")
        # One image through dW and one through BP-data, twice: the two
        # probes only.
        assert engines.images("sparse") == [1, 1, 1, 1]
        # Priced at the probe, scaled to the measuring batch.
        assert timings["sparse"] == pytest.approx(2 * 30.0 * backend.batch)
        # The incumbent was timed; parallel-gemm shares its price.
        assert backend.batch in engines.images("gemm-in-parallel")
        assert timings["parallel-gemm"] == timings["gemm-in-parallel"]

    def test_probe_within_the_gate_is_timed(self):
        backend, engines = make_backend({**DENSE, "sparse": 1.9})
        backend.rank(("gemm-in-parallel", "sparse"), "bp", SPEC, 0.85,
                     incumbent="gemm-in-parallel")
        assert backend.batch in engines.images("sparse")

    def test_incumbent_is_never_gated(self):
        backend, engines = make_backend({**DENSE, "sparse": 50.0})
        backend.rank(("gemm-in-parallel", "sparse"), "bp", SPEC, 0.85,
                     incumbent="sparse")
        assert backend.batch in engines.images("sparse")

    def test_probe_only_price_is_retimed_once_inside_the_gate(self):
        sparse = lambda density: 10.0 * density         # noqa: E731
        backend, engines = make_backend({**DENSE, "sparse": sparse})
        candidates = ("gemm-in-parallel", "sparse")
        # A nearly empty error: the dense challenger is gated out.
        backend.rank(candidates, "bp", SPEC, 0.99, incumbent="sparse")
        assert engines.images("gemm-in-parallel") == [1, 1, 1, 1]
        # Same incumbent price: the probe-only answer still stands.
        engines.calls.clear()
        backend.rank(candidates, "bp", SPEC, 0.99, incumbent="sparse")
        assert engines.calls == []
        # A denser error slows the incumbent past the gate: the dense
        # key is sparsity-free, but its probe must not stand in now.
        timings = backend.rank(candidates, "bp", SPEC, 0.5,
                               incumbent="sparse")
        assert backend.batch in engines.images("gemm-in-parallel")
        assert timings["gemm-in-parallel"] == pytest.approx(
            2 * 1.0 * backend.batch)

    def test_without_an_incumbent_nothing_is_gated(self):
        backend, engines = make_backend({**DENSE, "sparse": 50.0})
        backend.rank(("gemm-in-parallel", "sparse"), "bp", SPEC, 0.85)
        assert backend.batch in engines.images("sparse")

    def test_gated_candidate_costs_two_probes_per_bucket(self):
        sparse = lambda density: 200.0 * density        # noqa: E731
        backend, engines = make_backend({**DENSE, "sparse": sparse})
        tuner = Autotuner(backend)
        plan = tuner.plan_fp(SPEC, "c", ("gemm-in-parallel",
                                         "gemm-in-parallel"))
        for sparsity in (0.85, 0.86, 0.84, 0.98, 0.975):
            plan = tuner.replan_bp(plan, sparsity)
        # Two buckets seen -> two probes each (dW + BP-data each), no more.
        assert engines.images("sparse") == [1] * 8
        assert plan.bp_engine == "gemm-in-parallel"

    def test_one_slow_probe_does_not_pin_the_price(self):
        # The first probe reads 40x (a preempted run); the second reads
        # the kernel's real cost, so it is timed and deployed.
        readings = iter([40.0])
        stencil = lambda density: next(readings, 0.5)   # noqa: E731
        backend, engines = make_backend({**DENSE, "stencil": stencil})
        plan = Autotuner(backend).plan_fp(
            SPEC, "c", ("gemm-in-parallel", "gemm-in-parallel"))
        assert engines.images("stencil")[:2] == [1, 1]
        assert backend.batch in engines.images("stencil")
        assert plan.fp_timings["stencil"] == pytest.approx(
            0.5 * backend.batch)
        assert plan.fp_engine == "stencil"

    def test_slow_on_both_probes_stays_gated_after_two_images(self):
        backend, engines = make_backend({**DENSE, "stencil": 40.0})
        plan = Autotuner(backend).plan_fp(
            SPEC, "c", ("gemm-in-parallel", "gemm-in-parallel"))
        assert engines.images("stencil") == [1, 1]
        assert plan.fp_timings["stencil"] == pytest.approx(
            40.0 * backend.batch)
        assert plan.fp_engine == "gemm-in-parallel"


class TestHysteresis:
    def test_challenger_within_ten_percent_keeps_the_incumbent(self):
        backend, _ = make_backend({**DENSE, "sparse": 0.95})
        tuner = Autotuner(backend)
        plan = tuner.plan_layer(SPEC, "c", sparsity=0.5,
                                deployed=("gemm-in-parallel",
                                          "gemm-in-parallel"))
        assert plan.bp_timings["sparse"] < \
            plan.bp_timings["gemm-in-parallel"]
        assert plan.bp_engine == "gemm-in-parallel"
        assert tuner.replan_bp(plan, 0.5).bp_engine == "gemm-in-parallel"

    def test_challenger_beyond_ten_percent_replaces_it(self):
        backend, _ = make_backend({**DENSE, "sparse": 0.85})
        plan = Autotuner(backend).plan_layer(
            SPEC, "c", sparsity=0.5,
            deployed=("gemm-in-parallel", "gemm-in-parallel"))
        assert plan.bp_engine == "sparse"

    def test_no_incumbent_means_plain_argmin(self):
        backend, _ = make_backend({**DENSE, "sparse": 0.99,
                                   "stencil": 0.98})
        plan = Autotuner(backend).plan_layer(SPEC, "c", sparsity=0.5)
        assert plan.bp_engine == "sparse"
        assert plan.fp_engine == "stencil"


class TestMeasurementHygiene:
    def test_scratch_engines_release_their_workspaces(self):
        backend, engines = make_backend({**DENSE, "stencil": 5.0})
        backend.rank(("parallel-gemm", "gemm-in-parallel", "stencil"),
                     "fp", SPEC, 0.0, incumbent="gemm-in-parallel")
        assert sorted(engines.released) == ["gemm-in-parallel", "stencil"]

    def test_workspace_released_when_an_engine_raises(self):
        backend, engines = make_backend({**DENSE})
        engines.cost["stencil"] = lambda density: 1 / 0
        with pytest.raises(ZeroDivisionError):
            backend.rank(("stencil",), "fp", SPEC, 0.0)
        assert engines.released == ["stencil"]
        assert default_registry().records() == ()

    def test_dw_only_bp_skips_backward_data(self):
        backend, engines = make_backend(DENSE)
        backend.rank(("gemm-in-parallel",), "bp", SPEC, 0.5,
                     input_error=False)
        assert engines.methods() == {"backward_weights"}
        made = len(engines.calls)
        # ...and is memoised apart from the full BP of the same layer.
        backend.rank(("gemm-in-parallel",), "bp", SPEC, 0.5)
        assert len(engines.calls) > made

    def test_bp_is_timed_at_the_layers_crop_and_memoised_per_crop(self):
        backend, engines = make_backend(DENSE)
        backend.rank(("gemm-in-parallel",), "bp", SPEC, 0.5, crop=1)
        assert set(engines.crops) == {1}
        made = len(engines.calls)
        backend.rank(("gemm-in-parallel",), "bp", SPEC, 0.5, crop=1)
        assert len(engines.calls) == made
        # Another crop is another BP-data form: measured anew.
        backend.rank(("gemm-in-parallel",), "bp", SPEC, 0.5, crop=0)
        assert len(engines.calls) > made and engines.crops[-1] == 0
        # dW alone reads no crop: one price for every crop.
        backend.rank(("gemm-in-parallel",), "bp", SPEC, 0.5,
                     input_error=False, crop=1)
        made = len(engines.calls)
        backend.rank(("gemm-in-parallel",), "bp", SPEC, 0.5,
                     input_error=False, crop=0)
        assert len(engines.calls) == made

    def test_phase_constraints(self):
        backend, _ = make_backend(DENSE)
        with pytest.raises(PlanError):
            backend.rank(("stencil",), "bp", SPEC, 0.0)
        with pytest.raises(PlanError):
            backend.rank(("sparse",), "fp", SPEC, 0.0)

    def test_real_engines_leave_nothing_quarantined(self):
        backend = MeasuredCostBackend(batch=1, repeats=1)
        plan = Autotuner(backend).plan_layer(SPEC, "c", sparsity=0.9)
        assert set(plan.bp_timings) == {"parallel-gemm", "gemm-in-parallel",
                                        "sparse"}
        assert default_registry().records() == ()


class TestOnePriceForOneBlasCall:
    """``parallel-gemm`` issues ``gemm-in-parallel``'s calls."""

    CANDIDATES = ("parallel-gemm", "gemm-in-parallel", "sparse")

    def test_one_gemm_timed_for_both_names(self):
        backend, engines = make_backend({**DENSE, "sparse": 9.0})
        timings = backend.rank(self.CANDIDATES, "bp", SPEC, 0.5,
                               incumbent="gemm-in-parallel")
        gemms = {name for name, *_ in engines.calls} - {"sparse"}
        assert gemms == {"gemm-in-parallel"}
        assert timings["parallel-gemm"] == timings["gemm-in-parallel"]
        assert (backend.measured, backend.memo_hits) == (2, 1)
        # The tie keeps the incumbent.
        plan = Autotuner(backend).plan_layer(
            SPEC, "c", sparsity=0.5,
            deployed=("gemm-in-parallel", "gemm-in-parallel"))
        assert plan.bp_engine == plan.fp_engine == "gemm-in-parallel"
        assert plan.fp_timings["parallel-gemm"] == \
            plan.fp_timings["gemm-in-parallel"]

    def test_either_name_prices_both(self):
        backend, engines = make_backend({**DENSE, "sparse": 9.0})
        timings = backend.rank(self.CANDIDATES, "bp", SPEC, 0.5,
                               incumbent="parallel-gemm")
        gemms = {name for name, *_ in engines.calls} - {"sparse"}
        assert gemms == {"parallel-gemm"}
        assert timings["parallel-gemm"] == timings["gemm-in-parallel"]
        assert (backend.measured, backend.memo_hits) == (2, 1)

    def test_the_real_engines_compute_the_same_product(self, rng):
        from repro.ops.engine import make_engine

        x = rng.standard_normal((2,) + SPEC.input_shape).astype(np.float32)
        w = rng.standard_normal(SPEC.weight_shape).astype(np.float32)
        one, other = (make_engine(name, SPEC)
                      for name in ("parallel-gemm", "gemm-in-parallel"))
        assert np.array_equal(one.forward(x, w), other.forward(x, w))


def two_conv_net():
    return build_network(
        {
            "name": "small",
            "input": [1, 16, 16],
            "layers": [
                {"type": "conv", "features": 4, "kernel": 3, "name": "convA"},
                {"type": "relu"},
                {"type": "conv", "features": 4, "kernel": 3, "name": "convB"},
                {"type": "relu"},
                {"type": "flatten"},
                {"type": "dense", "features": 3},
            ],
        },
        rng=np.random.default_rng(0),
    )


class TestSpgCNNOnTheMeasuredBackend:
    COST = {**DENSE, "stencil": 3.0, "sparse": 30.0}

    def test_optimize_makes_no_bp_engine_call(self):
        backend, engines = make_backend(self.COST)
        net = two_conv_net()
        spg = SpgCNN(net, backend)
        plan = spg.optimize()
        assert engines.methods() == {"forward"}
        for layer, layer_plan in zip(net.conv_layers(), plan.layers):
            assert layer_plan.bp_timings == {}
            assert layer_plan.bp_engine == layer.bp_engine_name

    def test_first_recheck_measures_bp_and_input_conv_as_dw_only(self):
        backend, engines = make_backend(self.COST)
        net = two_conv_net()
        spg = SpgCNN(net, backend, recheck_epochs=1)
        spg.optimize()
        engines.calls.clear()
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.85
        spg.after_epoch(1)
        conv_a, conv_b = (layer.padded_spec for layer in net.conv_layers())
        for plan in spg.plan.layers:
            assert set(plan.bp_timings) == {"parallel-gemm",
                                            "gemm-in-parallel", "sparse"}
        # convA is fed by the images: the layer will only ever call dW.
        assert engines.methods(conv_a) == {"backward_weights"}
        assert engines.methods(conv_b) == {"backward_weights",
                                           "backward_data"}

    def test_bp_is_priced_at_each_layers_own_crop(self):
        backend, engines = make_backend(self.COST)
        net = build_network({"input": [1, 12, 12], "layers": [
            {"type": "conv", "features": 4, "kernel": 3},
            {"type": "conv", "features": 4, "kernel": 3, "pad": 1},
            {"type": "flatten"}, {"type": "dense", "features": 3}]},
            rng=np.random.default_rng(0))
        spg = SpgCNN(net, backend, recheck_epochs=1)
        spg.optimize()
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.85
        spg.after_epoch(1)
        assert set(engines.crops) == {0, 1}

    def test_spans_carry_measured_and_memo_hit_counts(self):
        backend, _ = make_backend(self.COST)
        net = two_conv_net()
        spg = SpgCNN(net, backend, recheck_epochs=1)
        with telemetry.collect() as tel:
            spg.optimize()
            for layer in net.conv_layers():
                layer.last_error_sparsity = 0.85
            spg.after_epoch(1)
            spg.after_epoch(2)
        (optimize,) = tel.find_spans("spg/optimize")
        first, second = tel.find_spans("spg/replan")
        # One core: the two GEMM names share one price per phase.
        assert optimize.attrs["measured"] == 4      # 2 layers x 2 FP
        assert optimize.attrs["memo_hits"] == 2
        assert first.attrs["measured"] == 4         # 2 layers x 2 BP
        assert first.attrs["memo_hits"] == 2
        assert second.attrs["measured"] == 0
        assert second.attrs["memo_hits"] == 6

    @staticmethod
    def _first_steps(spg, net, engines, skipped):
        """``after_batch`` over steps flagged ``skipped`` or not, each
        after a step that measured 0.85; the engine calls each made."""
        made = []
        for batch, dropped in enumerate(skipped):
            for layer in net.conv_layers():
                layer.last_error_sparsity = 0.85
            before = len(engines.calls)
            spg.after_batch(1, batch, StepResult(1.0, 0.0, skipped=dropped))
            made.append(len(engines.calls) - before)
        return made

    def test_first_plan_runs_after_the_first_applied_step(self):
        backend, engines = make_backend(self.COST)
        net = two_conv_net()
        spg = SpgCNN(net, backend)
        spg.optimize()
        with telemetry.collect() as tel:
            made = self._first_steps(spg, net, engines, [False, False, False])
        assert made[0] > 0 and made[1:] == [0, 0]
        (replan,) = tel.find_spans("spg/replan")
        assert replan.attrs["batch"] == 0
        for plan in spg.plan.layers:
            assert set(plan.bp_timings) == {"parallel-gemm",
                                            "gemm-in-parallel", "sparse"}
            assert plan.sparsity == 0.85

    def test_a_skipped_first_step_defers_the_plan(self):
        backend, engines = make_backend(self.COST)
        net = two_conv_net()
        spg = SpgCNN(net, backend)
        spg.optimize()
        with telemetry.collect() as tel:
            made = self._first_steps(spg, net, engines, [True, True, False, False])
        assert made[:2] == [0, 0] and made[2] > 0 and made[3] == 0
        (replan,) = tel.find_spans("spg/replan")
        assert replan.attrs["batch"] == 2

    def test_first_plan_switches_engines_as_a_recheck_does(self):
        backend, _ = make_backend({**DENSE, "sparse": 0.1})
        net = two_conv_net()
        spg = SpgCNN(net, backend)
        spg.optimize()
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.9
        with telemetry.collect() as tel:
            events = spg.after_batch(1, 0, StepResult(1.0, 0.0))
        assert [(e.layer_name, e.new_engine) for e in events] == [
            ("convA", "sparse"), ("convB", "sparse")]
        assert [layer.bp_engine_name for layer in net.conv_layers()] == [
            "sparse", "sparse"]
        assert spg.retune_events == events
        assert [e.attrs["new_engine"] for e in tel.events
                if e.name == "retune"] == ["sparse", "sparse"]

    def test_operands_are_drawn_once_per_spec(self):
        densities = []
        backend, engines = make_backend(
            {**DENSE, "sparse": lambda d: densities.append(d) or 30.0})
        net = two_conv_net()
        spg = SpgCNN(net, backend, recheck_epochs=1)
        spg.optimize()
        drawn = backend._rng.bit_generator.state
        self._first_steps(spg, net, engines, [False])
        first = list(densities)
        for layer in net.conv_layers():
            layer.last_error_sparsity = 0.98          # a new bucket
        spg.after_epoch(1)
        assert backend._rng.bit_generator.state == drawn
        # ... and each bucket's error is still drawn at its own density.
        assert first and len(densities) > len(first)
        assert all(abs(d - 2 ** -2.5) < 0.06 for d in first)
        assert all(abs(d - 2 ** -5.5) < 0.02 for d in densities[len(first):])
