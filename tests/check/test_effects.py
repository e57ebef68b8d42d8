"""Tests for the effect-typed happens-before verifier (analyzer 5).

Covers the acceptance gates: every zoo network's FP/BP graphs verify
race-free under all three execution backends, and seeded mutations
(dropped DAG edge, aliased workspace, declaration drift) are each
reported as exactly the conflict they introduce.
"""

import pytest

from repro.check.effects import (
    alias_workspace,
    drop_dependency,
    network_graphs,
    preflight_dag,
    verify_graph,
    verify_network_graphs,
    verify_networks,
)
from repro.data.synthetic import mnist_like
from repro.errors import CheckError, ReproError
from repro.nn.training_loop import TrainingLoop
from repro.nn.zoo import alexnet_small, cifar10_net, imagenet100_net, mnist_net
from repro.runtime.dag import Region, TaskGraph

BACKENDS = ("serial", "thread", "process")
ZOO = (mnist_net, cifar10_net, imagenet100_net, alexnet_small)


def _close(network):
    for layer in network.conv_layers():
        layer.close()


class TestZooCorpusRaceFree:
    @pytest.mark.parametrize("builder", ZOO, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fp_bp_graphs_verify_clean(self, builder, backend):
        network = builder(scale=0.25, threads=2, backend=backend)
        try:
            findings = verify_network_graphs(network)
        finally:
            _close(network)
        assert findings == [], [f.message for f in findings]

    def test_verify_networks_reports_coverage(self):
        network = mnist_net(scale=0.25, threads=2)
        try:
            findings, meta = verify_networks([network])
        finally:
            _close(network)
        assert findings == []
        assert meta["effect_graphs"] == 3  # fp, bp, bp-step
        assert meta["effect_nodes"] > 0


class TestSeededMutations:
    def test_dropped_edge_is_exactly_one_shm_conflict_under_process(self):
        # bd_prep republishes the shared arena the dw slices read from;
        # the bd_prep -> dw_prep edge is what orders the two
        # publications.  Dropping it must surface exactly that hazard.
        network = mnist_net(scale=0.25, threads=2, backend="process")
        try:
            _, backward = network_graphs(network)
            drop_dependency(backward, "bp/conv0/bd_prep",
                            "bp/conv0/dw_prep")
            findings = verify_graph(backward)
        finally:
            _close(network)
        assert len(findings) == 1, [f.message for f in findings]
        message = findings[0].message
        assert "write/write" in message and "shm:" in message

    def test_same_dropped_edge_is_harmless_under_thread_backend(self):
        # Under the thread backend nothing is published to shared
        # memory, so the edge guards nothing -- the verifier must not
        # cry wolf.
        network = mnist_net(scale=0.25, threads=2, backend="thread")
        try:
            _, backward = network_graphs(network)
            drop_dependency(backward, "bp/conv0/bd_prep",
                            "bp/conv0/dw_prep")
            findings = verify_graph(backward)
        finally:
            _close(network)
        assert findings == [], [f.message for f in findings]

    def test_aliased_workspace_is_reported_as_ws_conflict(self):
        network = mnist_net(scale=0.25, threads=2, backend="thread")
        try:
            forward, _ = network_graphs(network)
            victim = next(
                node for node in forward.nodes
                if any(r.buffer.startswith("ws:") and r.atomic
                       for r in node.writes)
            )
            alias_workspace(forward, victim.name)
            findings = verify_graph(forward, crosscheck=False)
        finally:
            _close(network)
        assert len(findings) == 1, [f.message for f in findings]
        assert "ws:" in findings[0].message

    def test_drop_dependency_rejects_missing_edge(self):
        network = mnist_net(scale=0.25, threads=2)
        try:
            forward, _ = network_graphs(network)
            with pytest.raises(ReproError, match="no edge"):
                drop_dependency(forward, forward.nodes[0].name,
                                forward.nodes[-1].name)
        finally:
            _close(network)


class TestDeclarationHonesty:
    def test_node_without_effects_is_an_error(self):
        graph = TaskGraph(name="t")
        graph.add_node("mystery", lambda: None)
        findings = verify_graph(graph)
        assert len(findings) == 1
        assert "declares no effects" in findings[0].message

    def test_undeclared_code_write_is_reported(self):
        cells = [None, None]

        def body(cells=cells):
            cells[1] = object()

        graph = TaskGraph(name="t")
        graph.add_node("sneaky", body, reads=(Region("act:0"),))
        findings = verify_graph(graph)
        assert any("code writes act:1" in f.message for f in findings), \
            [f.message for f in findings]

    def test_stale_declared_write_is_reported(self):
        def body():
            return 1

        graph = TaskGraph(name="t")
        graph.add_node("stale", body, writes=(Region("grad:conv0"),),
                       layer="conv0")
        findings = verify_graph(graph)
        assert any("never performs" in f.message for f in findings), \
            [f.message for f in findings]


class TestReductionDiscipline:
    def _backward(self):
        network = mnist_net(scale=0.25, threads=2)
        _, backward = network_graphs(network)
        _close(network)
        return backward

    def _reduce_node(self, graph):
        return next(n for n in graph.nodes if "reduce_buffer" in n.attrs)

    def test_descending_reduce_order_is_an_error(self):
        backward = self._backward()
        node = self._reduce_node(backward)
        node.attrs["reduce_order"] = tuple(
            reversed(node.attrs["reduce_order"])
        )
        findings = verify_graph(backward, crosscheck=False)
        assert any("not strictly ascending" in f.message for f in findings)

    def test_folding_partials_without_declared_order_is_an_error(self):
        backward = self._backward()
        node = self._reduce_node(backward)
        del node.attrs["reduce_buffer"]
        del node.attrs["reduce_order"]
        findings = verify_graph(backward, crosscheck=False)
        assert any("without a declared reduce order" in f.message
                   for f in findings)

    def test_missing_partial_read_is_an_error(self):
        backward = self._backward()
        node = self._reduce_node(backward)
        buffer = node.attrs["reduce_buffer"]
        node.reads = tuple(
            r for r in node.reads
            if not (r.buffer == buffer and r.lo == 0)
        )
        findings = verify_graph(backward, crosscheck=False)
        assert any("reduce_order covers elements" in f.message
                   for f in findings)


class TestPreflight:
    def test_preflight_dag_passes_on_a_clean_network(self):
        network = mnist_net(scale=0.25, threads=2)
        try:
            report = preflight_dag(network, batch_size=4)
        finally:
            _close(network)
        assert report.ok

    def test_training_loop_runs_the_dag_preflight(self, monkeypatch):
        import repro.check.effects as effects

        calls = []
        monkeypatch.setattr(
            effects, "preflight_dag",
            lambda network, batch_size: calls.append(batch_size),
        )
        network = mnist_net(scale=0.25)
        try:
            TrainingLoop(network, mnist_like(8, seed=0), batch_size=4,
                         scheduler="dag")
            assert calls == [4]
            calls.clear()
            TrainingLoop(network, mnist_like(8, seed=0), batch_size=4,
                         scheduler="barrier")
            assert calls == []
        finally:
            _close(network)

    def test_preflight_dag_raises_on_seeded_drift(self, monkeypatch):
        import repro.check.effects as effects

        network = mnist_net(scale=0.25, threads=2)
        real = effects.verify_network_graphs

        def tampered(net, batch=4, crosscheck=True):
            findings = real(net, batch=batch, crosscheck=crosscheck)
            findings.append(effects._finding(
                "error", "fp/conv0/prep", "seeded drift"
            ))
            return findings

        monkeypatch.setattr(effects, "verify_network_graphs", tampered)
        try:
            with pytest.raises(CheckError, match="effect verification"):
                preflight_dag(network, batch_size=4)
        finally:
            _close(network)


class TestRegionSemantics:
    def test_whole_buffer_overlaps_any_range(self):
        assert Region("act:1").overlaps(Region("act:1", 0, 2))
        assert not Region("act:1").overlaps(Region("act:2"))

    def test_disjoint_ranges_do_not_overlap(self):
        assert not Region("p", 0, 1).overlaps(Region("p", 1, 2))
        assert Region("p", 0, 2).overlaps(Region("p", 1, 3))

    def test_atomic_pair_is_exempt_but_mixed_is_not(self):
        a = Region("ws:c:fp", atomic=True)
        b = Region("ws:c:fp", atomic=True)
        assert a.overlaps(b)  # overlap is geometric; exemption is pairwise
        graph = TaskGraph(name="t")
        cells = [None]

        def body(cells=cells):
            cells[0] = object()

        n1 = graph.add_node("a", body, writes=(a, Region("act:0")))
        graph.add_node("b", body, writes=(b, Region("act:0", 0, 1)))
        findings = verify_graph(graph, crosscheck=False)
        # act:0 whole-write vs ranged write conflicts; ws pair does not.
        assert len(findings) == 1
        assert "act:0" in findings[0].message
        assert n1.writes[0].atomic
