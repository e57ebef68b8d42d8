"""The live training monitor and its run report (acceptance tests)."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.nn.netdef import build_network
from repro.nn.training_loop import TrainingLoop
from repro.obs.monitor import RunReport, TrainingMonitor
from repro.obs.monitor import RESILIENCE_COUNTERS
from tests.conftest import solo_layers


def _small_net():
    return build_network(
        {
            "input": [1, 12, 12],
            "layers": [
                {"type": "conv", "features": 6, "kernel": 3, "name": "conv"},
                {"type": "relu", "name": "relu"},
                {"type": "pool", "kernel": 2, "stride": 2, "name": "pool"},
                {"type": "flatten", "name": "flatten"},
                {"type": "dense", "features": 4, "name": "dense"},
            ],
        },
        rng=np.random.default_rng(0),
    )


def _run_monitored(epochs=2, **monitor_kwargs):
    loop = TrainingLoop(
        _small_net(),
        make_dataset(16, 4, (1, 12, 12), seed=0),
        batch_size=8,
        shuffle_seed=0,
        preflight=False,
    )
    monitor = TrainingMonitor(**monitor_kwargs)
    monitor.attach(loop)
    with monitor:
        history = loop.run(epochs)
    return monitor, history


@pytest.fixture(scope="module")
def monitored():
    """One monitored 2-epoch run shared by the read-only assertions."""
    monitor, history = _run_monitored()
    # A synthetic retune event stands in for autotuner activity: the
    # tiny fixed-sparsity job never crosses a real retune boundary.
    monitor.collector.event("retune", epoch=1, layer="conv",
                            old_engine="gemm", new_engine="sparse",
                            sparsity=0.85)
    return monitor, history


class TestRunReportContents:
    def test_per_layer_goodput_and_time(self, monitored):
        monitor, _ = monitored
        report = monitor.report()
        assert "conv" in report.layers
        stats = report.layers["conv"]
        assert stats["fp_count"] > 0 and stats["bp_count"] > 0
        assert stats["fp_seconds"] > 0 and stats["bp_seconds"] > 0
        assert stats["goodput"] is not None and stats["goodput"] > 0
        assert stats["throughput"] >= stats["goodput"]
        assert stats["bp_p95_seconds"] > 0

    def test_sparsity_drift_tracked_per_layer(self, monitored):
        monitor, _ = monitored
        stats = monitor.report().layers["conv"]
        assert 0.0 <= stats["sparsity_first"] <= 1.0
        assert 0.0 <= stats["sparsity_last"] <= 1.0
        assert stats["sparsity_drift"] == pytest.approx(
            stats["sparsity_last"] - stats["sparsity_first"])

    def test_retune_events_surface_in_report(self, monitored):
        monitor, _ = monitored
        report = monitor.report()
        assert report.totals["retunes"] == 1
        assert report.retunes[0]["layer"] == "conv"
        assert report.retunes[0]["new_engine"] == "sparse"

    def test_resilience_counters_all_present(self, monitored):
        monitor, _ = monitored
        report = monitor.report()
        assert set(report.resilience) == set(RESILIENCE_COUNTERS)
        # A clean run keeps them at zero -- but they are *reported*.
        assert report.resilience["pool.retries"] == 0.0

    def test_epoch_records_and_totals(self, monitored):
        monitor, history = monitored
        report = monitor.report()
        assert report.totals["epochs"] == 2
        assert report.totals["batches"] == 4  # 16 samples / batch 8 x 2
        assert report.totals["final_loss"] == pytest.approx(
            history.final.train_loss)
        assert report.totals["flops_total"] >= report.totals["flops_useful"] > 0
        assert [e["epoch"] for e in report.epochs] == [1, 2]
        assert all("mean_error_sparsity" in e for e in report.epochs)


class TestEveryLayer:
    @pytest.mark.parametrize("scheduler,threads",
                             [("barrier", None), ("dag", 2)])
    def test_every_layer_reported_with_its_bp_p95(self, scheduler, threads):
        # Untuned, so every conv runs GEMM: each layer runs its own FP
        # and BP, but for the ReLU and pool a barrier step fuses into
        # the GEMM epilogue (the DAG runs the chain).
        from repro.data.synthetic import mnist_like
        from repro.nn.zoo import mnist_net

        network = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                            threads=threads)
        loop = TrainingLoop(network, mnist_like(16, seed=0), batch_size=8,
                            shuffle_seed=0, scheduler=scheduler)
        monitor = TrainingMonitor()
        monitor.attach(loop)
        try:
            with monitor:
                loop.run(1)
        finally:
            for layer in network.conv_layers():
                layer.close()
        report = monitor.report()
        ran = network.layers if scheduler == "dag" else solo_layers(network)
        assert set(report.layers) == {layer.name for layer in ran}
        for name, stats in report.layers.items():
            durations = [span.seconds for span in monitor.collector.spans
                         if span.attrs.get("layer") == name
                         and span.attrs.get("phase") == "bp"]
            assert len(durations) == stats["bp_count"] > 0
            # The nearest-rank percentile: one of the measured durations.
            assert stats["bp_p95_seconds"] == np.percentile(
                durations, 95, method="inverted_cdf")


def _recorded(durations, layer="conv", phase="bp", start=0.0):
    """A monitor whose collector holds one span per given duration."""
    monitor = TrainingMonitor()
    for seconds in durations:
        monitor.collector.record_span(f"{layer}/{phase}", start,
                                      start + seconds,
                                      attrs={"layer": layer, "phase": phase})
        start += seconds
    return monitor


class TestBpPercentile:
    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 40, 100])
    def test_p95_is_the_nearest_rank_duration(self, n):
        durations = list(np.random.default_rng(n).permutation(n) + 1.0)
        stats = _recorded(durations).layer_stats()["conv"]
        ranked = sorted(durations)
        assert stats["bp_count"] == n
        assert stats["bp_p95_seconds"] == ranked[math.ceil(0.95 * n) - 1]
        assert stats["bp_p95_seconds"] == np.percentile(
            durations, 95, method="inverted_cdf")

    def test_equal_durations_are_their_own_p95(self):
        stats = _recorded([0.25] * 7).layer_stats()["conv"]
        assert stats["bp_p95_seconds"] == 0.25

    def test_each_layer_has_its_own_p95(self):
        monitor = _recorded([1.0, 2.0, 3.0], layer="conv0")
        for seconds in (10.0, 20.0):
            monitor.collector.record_span(
                "dense/bp", 100.0, 100.0 + seconds,
                attrs={"layer": "dense", "phase": "bp"})
        stats = monitor.layer_stats()
        assert stats["conv0"]["bp_p95_seconds"] == 3.0
        assert stats["dense"]["bp_p95_seconds"] == 20.0

    def test_fp_spans_do_not_enter_the_bp_p95(self):
        monitor = _recorded([1.0, 2.0])
        monitor.collector.record_span(
            "conv/fp", 10.0, 60.0, attrs={"layer": "conv", "phase": "fp"})
        stats = monitor.layer_stats()["conv"]
        assert stats["fp_count"] == 1 and stats["fp_seconds"] == 50.0
        assert stats["bp_p95_seconds"] == 2.0

    def test_layer_without_bp_spans_has_no_p95(self):
        stats = _recorded([1.0], phase="fp").layer_stats()["conv"]
        assert stats["bp_count"] == 0
        assert stats["bp_p95_seconds"] is None

    def test_unfinished_span_is_skipped(self):
        from repro.telemetry import Span

        monitor = _recorded([1.0])
        # A crash can leave a span recorded but never finished.
        monitor.collector.spans.append(Span(
            name="conv/bp", span_id=99, thread_id=0, start=5.0, end=None,
            attrs={"layer": "conv", "phase": "bp"}))
        stats = monitor.layer_stats()["conv"]
        assert stats["bp_count"] == 1
        assert stats["bp_p95_seconds"] == 1.0

    def test_spans_without_layer_or_phase_are_not_layers(self):
        monitor = TrainingMonitor()
        monitor.collector.record_span("epoch", 0.0, 1.0)
        monitor.collector.record_span("pool/dispatch", 0.0, 1.0,
                                      attrs={"layer": "conv"})
        monitor.collector.record_span("dag/node", 0.0, 1.0,
                                      attrs={"phase": "bp"})
        assert monitor.layer_stats() == {}


class TestExport:
    def test_report_json_round_trips(self, monitored, tmp_path):
        monitor, _ = monitored
        path = monitor.report().write_json(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["layers"]["conv"]["goodput"] > 0
        assert payload["totals"]["retunes"] == 1

    def test_report_markdown_sections(self, monitored, tmp_path):
        monitor, _ = monitored
        text = monitor.report().to_markdown()
        assert "## Per-layer performance" in text
        assert "## Autotuner retunes" in text
        assert "## Resilience activity" in text
        assert "gemm -> sparse" in text
        assert "| conv |" in text
        path = monitor.report().write_markdown(tmp_path / "report.md")
        assert path.read_text() == text

    def test_empty_report_renders(self):
        text = RunReport().to_markdown()
        assert "# Training run report" in text
        assert "- none" in text

    def test_plan_rows_say_why_a_candidate_ran_on_the_reference(self):
        row = {"layer": "conv0", "fp_engine": "gemm-in-parallel",
               "fp_lowering": "", "fp_timings": {}, "bp_engine": "sparse",
               "bp_lowering": "reference", "bp_timings": {}, "fused": "",
               "lowering_reasons": {"sparse": "no C compiler (cc) on PATH"}}
        text = RunReport(plan=[row]).to_markdown()
        assert "- conv0 BP: sparse [reference]" in text
        assert ("- conv0: sparse timed on the reference "
                "(no C compiler (cc) on PATH)") in text


class TestTuningCost:
    def test_untuned_run_reports_zero_tuning(self, monitored):
        monitor, _ = monitored
        totals = monitor.report().totals
        assert totals["tuning_seconds"] == 0
        assert totals["tuning_measured"] == totals["tuning_memo_hits"] == 0
        assert monitor.report().plan == []

    def test_tuned_run_reports_span_time_counts_and_plan(self):
        from repro.core.autotuner import MeasuredCostBackend
        from repro.core.framework import SpgCNN

        network = _small_net()
        spg = SpgCNN(network, MeasuredCostBackend(batch=1, repeats=1),
                     recheck_epochs=1)
        loop = TrainingLoop(
            network, make_dataset(16, 4, (1, 12, 12), seed=0), batch_size=8,
            shuffle_seed=0, preflight=False,
            epoch_end_hook=lambda epoch, _net: spg.after_epoch(epoch),
        )
        monitor = TrainingMonitor()
        monitor.attach(loop)
        with monitor:
            spg.optimize()
            loop.run(2)
        report = monitor.report(plan=spg.plan)
        spans = [s for s in monitor.collector.spans
                 if s.name in ("spg/optimize", "spg/replan")]
        assert len(spans) == 3
        assert report.totals["tuning_seconds"] == pytest.approx(
            sum(s.seconds for s in spans))
        assert report.totals["tuning_measured"] >= 4    # 2 FP + 2 BP
        (row,) = report.plan
        assert row["layer"] == "conv"
        assert row["fp_engine"] in row["fp_timings"]
        assert row["bp_engine"] in row["bp_timings"]
        text = report.to_markdown()
        assert "Autotuning took" in text and "## Deployed plan" in text
        assert json.loads(json.dumps(report.to_dict()))["plan"] == report.plan


class TestCriticalPathSection:
    def test_non_dag_run_reports_empty_critical(self, monitored):
        monitor, _ = monitored
        report = monitor.report()
        assert report.critical == {}
        assert "## DAG critical path" not in report.to_markdown()
        assert report.to_dict()["critical"] == {}

    def test_dag_run_populates_critical_section(self):
        loop = TrainingLoop(
            _small_net(),
            make_dataset(8, 4, (1, 12, 12), seed=0),
            batch_size=8,
            shuffle_seed=0,
            preflight=False,
            scheduler="dag",
        )
        monitor = TrainingMonitor()
        monitor.attach(loop)
        with monitor:
            loop.run(1)
        report = monitor.report()
        assert report.critical
        assert report.critical["reconciles"] is True
        assert report.critical["graphs"] >= 1
        assert report.critical["critical_seconds"] > 0.0
        text = report.to_markdown()
        assert "## DAG critical path" in text
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["critical"]["graphs"] == report.critical["graphs"]


class TestLiveRendering:
    def test_periodic_console_output(self):
        out = io.StringIO()
        _run_monitored(epochs=1, every_batches=1, out=out)
        text = out.getvalue()
        assert "[monitor] epoch 1 batch 1" in text
        assert "[monitor] epoch 1 done" in text
        assert "goodput MF/s" in text  # the live table rendered

    def test_silent_without_out(self):
        monitor, _ = _run_monitored(epochs=1)
        assert "conv" in monitor.render()  # renderable on demand

    def test_monitor_does_not_change_training(self):
        _, monitored_history = _run_monitored(epochs=1)
        bare = TrainingLoop(
            _small_net(),
            make_dataset(16, 4, (1, 12, 12), seed=0),
            batch_size=8,
            shuffle_seed=0,
            preflight=False,
        )
        bare_history = bare.run(1)
        assert monitored_history.loss_curve() == bare_history.loss_curve()


def _surfaced_counters() -> list[str]:
    from repro.resilience.chaos import REPORT_COUNTERS

    return sorted(set(RESILIENCE_COUNTERS) | set(REPORT_COUNTERS))


class TestSurfacedCounters:
    @pytest.mark.parametrize("counter", _surfaced_counters())
    def test_some_module_emits_the_counter(self, counter):
        # A counter the monitor or the chaos report surfaces must be
        # named by the code that increments it; one whose emitter was
        # deleted would read zero forever and look like a healthy run.
        import repro

        src = Path(repro.__file__).parent
        surfacing = {src / "obs" / "monitor.py",
                     src / "resilience" / "chaos.py"}
        emitters = [path for path in sorted(src.rglob("*.py"))
                    if path not in surfacing
                    and f'"{counter}"' in path.read_text()]
        assert emitters, f"nothing under {src} emits {counter!r}"
