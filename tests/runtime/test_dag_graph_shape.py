"""The dependency shape of compiled step graphs, and what running one
reports.

On the two-worker MNIST network every node of a forward and a backward
graph is pinned to the nodes it waits on: the effects verifier proves
race freedom from exactly these edges, so a builder change that adds or
drops one shows up here by node name.  The run-side cases check what
each executed node leaves in telemetry (one ``dag/node`` span carrying
the node's identity and builder attributes, one ``dag.graph`` event),
and the symbolic :class:`Region` the builders declare effects with.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.nn.zoo import mnist_net
from repro.runtime.backends import WorkerCrashedError
from repro.runtime.dag import (
    DagScheduler,
    Region,
    TaskGraph,
    build_backward_graph,
    build_forward_graph,
)

BATCH = 4


@pytest.fixture(scope="module")
def graphs():
    """Forward and backward graphs of a two-worker MNIST step."""
    network = mnist_net(scale=0.25, rng=np.random.default_rng(3),
                        threads=2, backend="thread")
    x = np.random.default_rng(0).standard_normal(
        (BATCH, *network.input_shape))
    forward, _ = build_forward_graph(network, x, training=True)
    out = network.forward(x, training=True)
    backward, _ = build_backward_graph(network, np.ones_like(out))
    yield {"fp": forward, "bp": backward, "network": network, "x": x,
           "out": out}
    for layer in network.conv_layers():
        layer.close()


def _deps(graph, name):
    (node,) = [n for n in graph.nodes if n.name == name]
    return sorted(dep.name for dep in node.deps)


FORWARD_DEPS = [
    ("fp/conv0/prep", []),
    ("fp/conv0/0:2", ["fp/conv0/prep"]),
    ("fp/conv0/2:4", ["fp/conv0/prep"]),
    ("fp/conv0/finish", ["fp/conv0/0:2", "fp/conv0/2:4"]),
    ("fp/relu1", ["fp/conv0/finish"]),
    ("fp/pool2", ["fp/relu1"]),
    ("fp/flatten3", ["fp/pool2"]),
    ("fp/dense4", ["fp/flatten3"]),
    ("fp/relu5", ["fp/dense4"]),
    ("fp/dense6", ["fp/relu5"]),
]

BACKWARD_DEPS = [
    ("bp/dense6", []),
    ("bp/relu5", ["bp/dense6"]),
    ("bp/dense4", ["bp/relu5"]),
    ("bp/flatten3", ["bp/dense4"]),
    ("bp/pool2", ["bp/flatten3"]),
    ("bp/relu1", ["bp/pool2"]),
    ("bp/conv0/head", ["bp/relu1"]),
    ("bp/conv0/dw_prep", ["bp/conv0/head"]),
    ("bp/conv0/dw/0:2", ["bp/conv0/dw_prep"]),
    ("bp/conv0/dw/2:4", ["bp/conv0/dw_prep"]),
    ("bp/conv0/dw_reduce", ["bp/conv0/dw/0:2", "bp/conv0/dw/2:4"]),
    # Both preps publish into one arena, so BP-data waits on dW's prep.
    ("bp/conv0/bd_prep", ["bp/conv0/dw_prep", "bp/conv0/head"]),
    ("bp/conv0/bd/0:2", ["bp/conv0/bd_prep"]),
    ("bp/conv0/bd/2:4", ["bp/conv0/bd_prep"]),
    ("bp/conv0/bd_finish", ["bp/conv0/bd/0:2", "bp/conv0/bd/2:4"]),
    ("bp/conv0/done", ["bp/conv0/bd_finish", "bp/conv0/dw_reduce"]),
]


class TestForwardDependencies:
    def test_node_set_is_exactly_the_table(self, graphs):
        assert [n.name for n in graphs["fp"].nodes] == \
            [name for name, _ in FORWARD_DEPS]

    @pytest.mark.parametrize("name,deps", FORWARD_DEPS,
                             ids=[name for name, _ in FORWARD_DEPS])
    def test_node_waits_on(self, graphs, name, deps):
        assert _deps(graphs["fp"], name) == sorted(deps)


class TestBackwardDependencies:
    def test_node_set_is_exactly_the_table(self, graphs):
        assert [n.name for n in graphs["bp"].nodes] == \
            [name for name, _ in BACKWARD_DEPS]

    @pytest.mark.parametrize("name,deps", BACKWARD_DEPS,
                             ids=[name for name, _ in BACKWARD_DEPS])
    def test_node_waits_on(self, graphs, name, deps):
        assert _deps(graphs["bp"], name) == sorted(deps)

    def test_dw_reduce_folds_partials_in_range_order(self, graphs):
        (reduce,) = [n for n in graphs["bp"].nodes
                     if n.name == "bp/conv0/dw_reduce"]
        assert reduce.attrs["reduce_buffer"] == "partial:conv0"
        assert reduce.attrs["reduce_order"] == (0, 1)


class TestSliceRanges:
    @pytest.mark.parametrize("phase,prefix", [
        ("fp", "fp/conv0/"),
        ("bp", "bp/conv0/dw/"),
        ("bp", "bp/conv0/bd/"),
    ])
    def test_ranges_tile_the_batch(self, graphs, phase, prefix):
        ranges = sorted(
            (n.attrs["lo"], n.attrs["hi"]) for n in graphs[phase].nodes
            if n.name.startswith(prefix) and "lo" in n.attrs)
        assert ranges == [(0, 2), (2, 4)]
        for node in graphs[phase].nodes:
            if node.name.startswith(prefix) and "lo" in node.attrs:
                assert node.name.endswith(
                    f"{node.attrs['lo']}:{node.attrs['hi']}")

    @pytest.mark.parametrize("phase", ["fp", "bp"])
    def test_every_node_names_its_layer_and_phase(self, graphs, phase):
        layers = {layer.name for layer in graphs["network"].layers}
        for node in graphs[phase].nodes:
            assert node.attrs["phase"] == phase
            assert node.attrs["layer"] in layers
            assert node.name.startswith(f"{phase}/{node.attrs['layer']}")

    @pytest.mark.parametrize("phase", ["fp", "bp"])
    def test_every_node_declares_effects(self, graphs, phase):
        for node in graphs[phase].nodes:
            assert node.reads or node.writes, node.name


class TestRunTelemetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_node_span_per_node(self, workers):
        network = mnist_net(scale=0.25, rng=np.random.default_rng(3),
                            threads=2, backend="thread")
        x = np.random.default_rng(0).standard_normal(
            (BATCH, *network.input_shape))
        graph, _ = build_forward_graph(network, x, training=True)
        with telemetry.collect() as tel:
            DagScheduler(num_workers=workers).run(graph)
        for layer in network.conv_layers():
            layer.close()
        spans = [s for s in tel.spans if s.name == "dag/node"]
        assert sorted(s.attrs["node_id"] for s in spans) == \
            list(range(len(graph)))
        for span in spans:
            node = graph.nodes[span.attrs["node_id"]]
            assert span.attrs["node"] == node.name
            assert span.attrs["graph_id"] == graph.graph_id
            assert span.attrs["layer"] == node.attrs["layer"]
            assert span.attrs["phase"] == "fp"
            assert 0 <= span.attrs["worker"] < workers

    @pytest.mark.parametrize("workers,nodes,expected", [
        (1, 3, 1), (2, 3, 2), (4, 3, 3),
    ])
    def test_graph_event_payload(self, workers, nodes, expected):
        graph = TaskGraph("probe")
        for i in range(nodes):
            graph.add_node(f"n{i}", lambda: None)
        with telemetry.collect() as tel:
            DagScheduler(num_workers=workers).run(graph)
        (event,) = [e for e in tel.events if e.name == "dag.graph"]
        assert event.attrs == {"graph": "probe", "graph_id": graph.graph_id,
                               "nodes": nodes, "workers": expected}
        assert tel.counters["dag.graphs"] == 1

    def test_empty_graph_reports_nothing(self):
        with telemetry.collect() as tel:
            DagScheduler(num_workers=2).run(TaskGraph("empty"))
        assert tel.events == [] and tel.spans == []
        assert "dag.graphs" not in tel.counters

    def test_graph_ids_are_unique_and_increasing(self):
        ids = [TaskGraph().graph_id for _ in range(3)]
        assert ids == sorted(set(ids))

    def test_node_attrs_reach_the_span(self):
        graph = TaskGraph()
        graph.add_node("tagged", lambda: None, layer="conv9", lo=0, hi=8)
        with telemetry.collect() as tel:
            DagScheduler(num_workers=1).run(graph)
        (span,) = [s for s in tel.spans if s.name == "dag/node"]
        assert span.attrs["layer"] == "conv9"
        assert (span.attrs["lo"], span.attrs["hi"]) == (0, 8)


class TestCrashRetryWithoutPolicy:
    def test_one_crash_is_rerun_once(self):
        attempts = []

        def crashes_once():
            attempts.append(1)
            if len(attempts) == 1:
                raise WorkerCrashedError("helper died")

        graph = TaskGraph()
        graph.add_node("crashy", crashes_once)
        with telemetry.collect() as tel:
            DagScheduler(num_workers=1).run(graph)
        assert len(attempts) == 2
        assert tel.counters["dag.crash_retries"] == 1
        (event,) = [e for e in tel.events if e.name == "dag.crash_retry"]
        assert event.attrs["node"] == "crashy"
        assert "helper died" in event.attrs["error"]

    def test_second_crash_propagates(self):
        attempts = []

        def always_crashes():
            attempts.append(1)
            raise WorkerCrashedError("helper died again")

        graph = TaskGraph()
        graph.add_node("crashy", always_crashes)
        with pytest.raises(WorkerCrashedError, match="again"):
            DagScheduler(num_workers=1).run(graph)
        assert len(attempts) == 2


class TestRegion:
    @pytest.mark.parametrize("kwargs,match", [
        ({"buffer": ""}, "needs a buffer"),
        ({"buffer": "act:0", "lo": 0}, "set together"),
        ({"buffer": "act:0", "hi": 4}, "set together"),
        ({"buffer": "act:0", "lo": 2, "hi": 2}, "empty range"),
        ({"buffer": "act:0", "lo": 3, "hi": 1}, "empty range"),
    ])
    def test_rejects_malformed_regions(self, kwargs, match):
        with pytest.raises(ReproError, match=match):
            Region(**kwargs)

    @pytest.mark.parametrize("a,b,expected", [
        (Region("act:0"), Region("act:1"), False),
        (Region("act:0", 0, 2), Region("act:1", 0, 2), False),
        (Region("act:0", 0, 2), Region("act:0", 2, 4), False),
        (Region("act:0", 0, 3), Region("act:0", 2, 4), True),
        (Region("act:0", 1, 2), Region("act:0", 0, 4), True),
        (Region("act:0"), Region("act:0", 5, 6), True),
        (Region("ws:conv0:fp", atomic=True),
         Region("ws:conv0:fp", atomic=True), True),
    ])
    def test_overlap_is_symmetric(self, a, b, expected):
        assert a.overlaps(b) is expected
        assert b.overlaps(a) is expected
