"""The DAG critical-path analyzer and goodput-attribution report."""

import numpy as np
import pytest

from repro import telemetry
from repro.obs.critical import (
    CriticalPathReport,
    critical_path_report,
    node_kind,
)


def _record_node(tel, graph_id, node_id, name, start, end, *, layer="conv0",
                 worker=0):
    tel.record_span("dag/node", start, end, attrs={
        "node": name, "graph_id": graph_id, "node_id": node_id,
        "layer": layer, "worker": worker,
    })


def _diamond_collector() -> telemetry.TelemetryCollector:
    """prep -> (slice a | slice b) -> finish, with known durations.

    slice a (3s) dominates slice b (1s), so the critical path is
    prep -> a -> finish = 1 + 3 + 1 = 5s and b carries 2s of slack.
    """
    tel = telemetry.TelemetryCollector()
    tel.event("dag.graph", graph="net/fp", graph_id=7, nodes=4, workers=2,
              edges="0>1|0>2|1>3|2>3")
    _record_node(tel, 7, 0, "fp/conv0/prep", 0.0, 1.0)
    _record_node(tel, 7, 1, "fp/conv0/0:4", 1.0, 4.0, worker=0)
    _record_node(tel, 7, 2, "fp/conv0/4:8", 1.0, 2.0, worker=1)
    _record_node(tel, 7, 3, "fp/conv0/finish", 4.0, 5.0)
    return tel


class TestNodeKind:
    @pytest.mark.parametrize("name,kind", [
        ("fp/conv0/prep", "pack"),
        ("bp/conv0/head", "pack"),
        ("bp/conv0/dw_prep", "pack"),
        ("bp/conv0/bd_prep", "pack"),
        ("fp/conv0/0:8", "compute"),
        ("bp/conv0/dw/4:8", "compute"),
        ("fp/dense4", "compute"),
        ("fp/conv0/finish", "reduce"),
        ("bp/conv0/dw_reduce", "reduce"),
        ("bp/conv0/bd_finish", "reduce"),
        ("bp/conv0/done", "reduce"),
    ])
    def test_builder_vocabulary(self, name, kind):
        assert node_kind(name) == kind


class TestDiamondCpm:
    def test_critical_path_and_slack(self):
        report = critical_path_report(_diamond_collector())
        assert report is not None
        (graph,) = report.graphs
        assert graph.critical_seconds == pytest.approx(5.0)
        assert [n.name for n in graph.critical_path] == [
            "fp/conv0/prep", "fp/conv0/0:4", "fp/conv0/finish"
        ]
        by_name = {n.name: n for n in graph.nodes}
        assert by_name["fp/conv0/4:8"].slack == pytest.approx(2.0)
        for name in ("fp/conv0/prep", "fp/conv0/0:4", "fp/conv0/finish"):
            assert by_name[name].slack == pytest.approx(0.0)

    def test_attribution_buckets(self):
        report = critical_path_report(_diamond_collector())
        kinds = report.kind_seconds()
        assert kinds["pack"] == pytest.approx(1.0)
        assert kinds["compute"] == pytest.approx(4.0)
        assert kinds["reduce"] == pytest.approx(1.0)
        assert report.worker_seconds[0] == pytest.approx(5.0)
        assert report.worker_seconds[1] == pytest.approx(1.0)

    def test_reconciles_against_wall_clock(self):
        report = critical_path_report(_diamond_collector())
        (graph,) = report.graphs
        assert graph.wall_seconds == pytest.approx(5.0)
        assert report.reconciles

    def test_double_counted_spans_fail_reconciliation(self):
        tel = _diamond_collector()
        # A structural bug: the same node recorded on a phantom extra
        # graph-width would push busy time past workers x wall.
        for node_id in range(4):
            _record_node(tel, 7, node_id + 10, f"fp/conv0/x{node_id}",
                         0.0, 5.0, worker=0)
        tel.events.clear()
        tel.event("dag.graph", graph="net/fp", graph_id=7, nodes=8,
                  workers=1, edges="0>1|0>2|1>3|2>3")
        report = critical_path_report(tel)
        assert report is not None
        assert not report.reconciles

    def test_retried_node_uses_last_attempt(self):
        tel = _diamond_collector()
        # A failed first attempt of node 2, earlier than the recorded one.
        _record_node(tel, 7, 2, "fp/conv0/4:8", 0.5, 0.9, worker=1)
        report = critical_path_report(tel)
        (graph,) = report.graphs
        node = next(n for n in graph.nodes if n.node_id == 2)
        assert node.start == pytest.approx(1.0)

    def test_table_renders(self):
        table = critical_path_report(_diamond_collector()).table()
        assert "critical path over 1 graph(s)" in table
        assert "conv0" in table
        assert "reconciles" in table

    def test_to_dict_round_trips_through_json(self):
        import json

        payload = critical_path_report(_diamond_collector()).to_dict()
        restored = json.loads(json.dumps(payload))
        assert restored["reconciles"] is True
        assert restored["kind_seconds"]["compute"] == pytest.approx(4.0)


class TestNoData:
    def test_no_dag_events_yields_none(self):
        tel = telemetry.TelemetryCollector()
        with tel.span("train/epoch"):
            pass
        assert critical_path_report(tel) is None

    def test_graph_event_without_spans_yields_none(self):
        tel = telemetry.TelemetryCollector()
        tel.event("dag.graph", graph="g", graph_id=1, nodes=2, workers=1,
                  edges="0>1")
        assert critical_path_report(tel) is None


class TestEndToEnd:
    def test_real_dag_step_produces_reconciling_report(self):
        from repro.data.synthetic import mnist_like
        from repro.nn.training_loop import TrainingLoop
        from repro.nn.zoo import mnist_net

        rng = np.random.default_rng(0)
        network = mnist_net(scale=0.25, rng=rng, threads=2)
        data = mnist_like(8, seed=0)
        loop = TrainingLoop(network, data, batch_size=4, scheduler="dag")
        try:
            with telemetry.collect() as tel:
                loop.run(1)
        finally:
            for layer in network.conv_layers():
                layer.close()
        report = critical_path_report(tel)
        assert report is not None
        assert isinstance(report, CriticalPathReport)
        assert len(report.graphs) >= 2  # at least one fp + one bp graph
        assert report.reconciles
        assert report.flops_total > 0.0
        # The conv layer appears with real compute time.
        conv_layers = [name for name in report.layer_seconds
                       if name.startswith("conv")]
        assert conv_layers
        assert any(report.layer_seconds[name]["compute"] > 0.0
                   for name in conv_layers)
        assert report.table()
