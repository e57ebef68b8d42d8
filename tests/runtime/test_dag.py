"""Tests for the task-graph asynchronous runtime.

Three layers of guarantees: the scheduler machinery itself (ordering,
stealing, error drain, retries), the graph compiler's dependency
structure (downstream backward waits on BP-data only, never on dW
reduction -- the overlap win), and the hard invariant that the DAG
changes wall-clock, never bits (cross-backend, cross-scheduler
bit-identity on a 3-conv zoo network, plus a chaos-plan run).
"""

import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.nn.zoo import alexnet_small, mnist_net
from repro.resilience.faults import get_plan, inject
from repro.resilience.policy import RetryPolicy, apply_policy
from repro.runtime.dag import (
    DagScheduler,
    TaskGraph,
    dag_worker_count,
    validate_scheduler,
)


def close_network(network):
    for layer in network.conv_layers():
        layer.close()


class TestValidateScheduler:
    def test_known_names_pass_through(self):
        assert validate_scheduler("barrier") == "barrier"
        assert validate_scheduler("dag") == "dag"

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="unknown scheduler"):
            validate_scheduler("fifo")


class TestTaskGraph:
    def test_edges_and_pending_counts(self):
        graph = TaskGraph()
        a = graph.add_node("a", lambda: None)
        b = graph.add_node("b", lambda: None, (a,))
        c = graph.add_node("c", lambda: None, (a, b))
        assert a.children == [b, c]
        assert c.pending == 2
        assert len(graph) == 3

    def test_foreign_dependency_rejected(self):
        other = TaskGraph()
        dep = other.add_node("dep", lambda: None)
        graph = TaskGraph()
        with pytest.raises(ReproError, match="not a node of"):
            graph.add_node("x", lambda: None, (dep,))

    def test_attrs_stored_on_node(self):
        graph = TaskGraph()
        node = graph.add_node("a", lambda: None, layer="conv0", lo=0, hi=4)
        assert node.attrs == {"layer": "conv0", "lo": 0, "hi": 4}


class TestInlineScheduler:
    def test_runs_in_kahn_order_by_node_id(self):
        order = []
        graph = TaskGraph()
        a = graph.add_node("a", lambda: order.append("a"))
        c_dep = graph.add_node("b", lambda: order.append("b"), (a,))
        graph.add_node("c", lambda: order.append("c"), (a,))
        graph.add_node("d", lambda: order.append("d"), (c_dep,))
        DagScheduler(num_workers=1).run(graph)
        assert order == ["a", "b", "c", "d"]

    def test_rerun_resets_pending(self):
        calls = []
        graph = TaskGraph()
        a = graph.add_node("a", lambda: calls.append("a"))
        graph.add_node("b", lambda: calls.append("b"), (a,))
        sched = DagScheduler(num_workers=1)
        sched.run(graph)
        sched.run(graph)
        assert calls == ["a", "b", "a", "b"]

    def test_empty_graph_is_a_noop(self):
        DagScheduler(num_workers=1).run(TaskGraph())

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ReproError):
            DagScheduler(num_workers=0)


class TestStealingScheduler:
    def test_independent_nodes_run_concurrently(self):
        started = [threading.Event(), threading.Event()]

        def node(i):
            started[i].set()
            # Block until the *other* node has started: only possible
            # when both really run at once on two worker threads.
            assert started[1 - i].wait(timeout=10)

        graph = TaskGraph()
        graph.add_node("n0", lambda: node(0))
        graph.add_node("n1", lambda: node(1))
        DagScheduler(num_workers=2).run(graph)
        assert all(e.is_set() for e in started)

    def test_all_nodes_execute_once(self):
        hits = []
        lock = threading.Lock()

        def hit(i):
            with lock:
                hits.append(i)

        graph = TaskGraph()
        roots = [graph.add_node(f"r{i}", lambda i=i: hit(i))
                 for i in range(6)]
        graph.add_node("join", lambda: None, roots)
        DagScheduler(num_workers=3).run(graph)
        assert sorted(hits) == list(range(6))

    def test_idle_worker_steals(self):
        # Roots are seeded round-robin: worker 0 gets the instant nodes,
        # worker 1 the slow ones.  Worker 0 drains its own deque and must
        # steal from worker 1 to keep busy.
        graph = TaskGraph()
        for i in range(8):
            fn = (lambda: None) if i % 2 == 0 else \
                (lambda: time.sleep(0.02))
            graph.add_node(f"n{i}", fn)
        with telemetry.collect() as tel:
            DagScheduler(num_workers=2).run(graph)
        assert tel.counters.get("dag.steals", 0) >= 1

    def test_error_propagates_and_later_nodes_abandoned(self):
        ran = []
        graph = TaskGraph()
        boom = graph.add_node("boom", lambda: 1 / 0)
        graph.add_node("after", lambda: ran.append("after"), (boom,))
        with pytest.raises(ZeroDivisionError):
            DagScheduler(num_workers=2).run(graph)
        assert ran == []

    def test_in_flight_node_drains_before_error(self):
        release = threading.Event()
        finished = []

        def slow():
            release.wait(timeout=10)
            finished.append("slow")

        def fail():
            release.set()
            raise RuntimeError("first error wins")

        graph = TaskGraph()
        graph.add_node("slow", slow)
        graph.add_node("fail", fail)
        with pytest.raises(RuntimeError, match="first error wins"):
            DagScheduler(num_workers=2).run(graph)
        # run() returned only after the in-flight node completed.
        assert finished == ["slow"]

    def test_node_counter_emitted(self):
        graph = TaskGraph()
        graph.add_node("a", lambda: time.sleep(0.01))
        graph.add_node("b", lambda: None)
        with telemetry.collect() as tel:
            DagScheduler(num_workers=2).run(graph)
        assert tel.counters["dag.nodes"] == 2


class TestRetries:
    def test_failing_node_retried_under_policy(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")

        graph = TaskGraph()
        graph.add_node("flaky", flaky)
        policy = RetryPolicy(max_retries=3, backoff_base=0.0)
        with telemetry.collect() as tel, apply_policy(policy):
            DagScheduler(num_workers=1).run(graph)
        assert len(attempts) == 3
        assert tel.counters["dag.retries"] == 2
        retries = [e.name for e in tel.events if e.name == "dag.retry"]
        assert retries == ["dag.retry", "dag.retry"]

    def test_budget_exhaustion_reraises(self):
        def always():
            raise RuntimeError("permanent")

        graph = TaskGraph()
        graph.add_node("always", always)
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with apply_policy(policy), pytest.raises(RuntimeError, match="permanent"):
            DagScheduler(num_workers=1).run(graph)

    def test_without_policy_first_failure_propagates(self):
        attempts = []

        def flaky():
            attempts.append(1)
            raise RuntimeError("no policy")

        graph = TaskGraph()
        graph.add_node("flaky", flaky)
        with pytest.raises(RuntimeError):
            DagScheduler(num_workers=1).run(graph)
        assert len(attempts) == 1


@pytest.fixture(scope="module")
def zoo_network():
    """3-conv zoo network, thread backend, 2 workers per conv layer."""
    network = alexnet_small(scale=0.25, rng=np.random.default_rng(3),
                            threads=2, backend="thread")
    yield network
    close_network(network)


class TestGraphStructure:
    def test_forward_compiles_sliced_and_whole_nodes(self, zoo_network):
        x = np.random.default_rng(0).standard_normal(
            (4, *zoo_network.input_shape))
        graph, cells = zoo_network.dag_runner().forward_graph(x, training=True)
        names = [n.name for n in graph.nodes]
        # Each of the 3 sliced conv layers expands to prep/ranges/finish.
        assert sum(1 for n in names if n.endswith("/prep")) == 3
        assert sum(1 for n in names if n.endswith("/finish")) == 3
        # Non-conv layers stay single whole-batch nodes.
        assert any(n.startswith("fp/dense") and "/" not in n[3:]
                   for n in names)

    @staticmethod
    def _ancestors(node):
        seen = set()
        stack = list(node.deps)
        while stack:
            dep = stack.pop()
            if dep.node_id in seen:
                continue
            seen.add(dep.node_id)
            stack.extend(dep.deps)
        return seen

    def test_downstream_backward_skips_dw_reduction(self, zoo_network):
        """The overlap win: layer N-1's backward does not wait on layer
        N's dW chain, only on its BP-data chain."""
        x = np.random.default_rng(0).standard_normal(
            (4, *zoo_network.input_shape))
        out = zoo_network.forward(x, training=True)
        err = np.random.default_rng(1).standard_normal(out.shape)
        graph, _ = zoo_network.dag_runner().backward_graph(err)
        by_name = {n.name: n for n in graph.nodes}
        convs = [layer.name for layer in zoo_network.conv_layers()]
        deepest = convs[-1]  # first conv to run backward
        downstream = by_name[f"bp/{convs[-2]}/head"]
        ancestors = {graph.nodes[i].name
                     for i in self._ancestors(downstream)}
        assert f"bp/{deepest}/bd_finish" in ancestors
        assert f"bp/{deepest}/dw_reduce" not in ancestors
        assert not any(name.startswith(f"bp/{deepest}/dw/")
                       for name in ancestors)

    def test_forward_rejects_bad_input_shape(self, zoo_network):
        bad = np.zeros((4, 1, 8, 8))
        with pytest.raises(Exception, match="input shape"):
            zoo_network.dag_runner().forward_graph(bad)

    def test_dag_worker_count_tracks_widest_pool(self, zoo_network):
        assert dag_worker_count(zoo_network) == 2
        serial = mnist_net(scale=0.25, rng=np.random.default_rng(0))
        assert dag_worker_count(serial) == 1
        close_network(serial)


def _step(network, x, err):
    """One FP + BP, returning everything the step computed."""
    network.zero_grads()
    out = network.forward(x, training=True)
    in_err = network.backward(err)
    grads = [np.array(g) for _, _, g in network.parameters()]
    return out, in_err, grads


class TestBitIdentity:
    """DAG == barrier, bit for bit, across every backend (ISSUE
    acceptance).  One reference run (serial + barrier), every other
    backend x scheduler combination must match exactly."""

    BATCH = 5

    @pytest.fixture(scope="class")
    def reference(self):
        # Probe the output shape on a throwaway network so the measured
        # networks all enter _step with virgin RNG state (dropout draws
        # once per forward pass).
        probe = alexnet_small(scale=0.25, rng=np.random.default_rng(3))
        x = np.random.default_rng(10).standard_normal(
            (self.BATCH, *probe.input_shape))
        out_shape = probe.forward(x, training=True).shape
        close_network(probe)
        err = np.random.default_rng(11).standard_normal(out_shape)
        network = alexnet_small(scale=0.25, rng=np.random.default_rng(3))
        result = _step(network, x, err)
        close_network(network)
        return x, err, result

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_dag_matches_barrier_per_backend(self, backend, reference):
        x, err, (ref_out, ref_err, ref_grads) = reference
        for threads, scheduler in [(2, "barrier"), (2, "dag"),
                                   (3, "barrier"), (3, "dag")]:
            network = alexnet_small(scale=0.25,
                                    rng=np.random.default_rng(3),
                                    threads=threads, backend=backend)
            network.set_scheduler(scheduler)
            out, in_err, grads = _step(network, x, err)
            close_network(network)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(in_err, ref_err)
            assert len(grads) == len(ref_grads)
            for got, want in zip(grads, ref_grads):
                np.testing.assert_array_equal(got, want)


class TestNetworkIntegration:
    def test_set_scheduler_validates(self, zoo_network):
        with pytest.raises(ReproError, match="unknown scheduler"):
            zoo_network.set_scheduler("fifo")
        assert zoo_network.scheduler == "barrier"

    def test_runner_rebuilds_on_width_change(self):
        network = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                            threads=2, backend="thread")
        network.set_scheduler("dag")
        runner = network.dag_runner()
        assert runner.scheduler.num_workers == 2
        assert network.dag_runner() is runner
        close_network(network)

    def test_runner_rebuilds_a_layers_executor_when_its_engine_changes(
            self):
        network = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                            threads=2, backend="thread")
        runner = network.dag_runner()
        (conv,) = network.conv_layers()
        try:
            first = runner.executor(conv, "bp")
            assert runner.executor(conv, "bp") is first
            assert first.name == conv.bp_engine_name
            conv.set_bp_engine("sparse")
            second = runner.executor(conv, "bp")
            assert second is not first and second.name == "sparse"
            assert runner.executor(conv, "fp").name == conv.fp_engine_name
            network.set_scheduler("dag")
            x = np.random.default_rng(1).standard_normal(
                (4, *network.input_shape))
            out = network.forward(x, training=True)
            network.backward(np.ones_like(out))
            assert runner.executor(conv, "bp") is second
        finally:
            close_network(network)
        # The pool's shutdown released the runner's executors.
        assert runner._executors == {}

    def test_dag_spans_emitted(self):
        network = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                            threads=2, backend="thread")
        network.set_scheduler("dag")
        x = np.random.default_rng(1).standard_normal(
            (4, *network.input_shape))
        with telemetry.collect() as tel:
            out = network.forward(x, training=True)
            network.backward(np.ones_like(out))
        close_network(network)
        names = {s.name for s in tel.spans}
        assert {"dag/forward", "dag/backward", "dag/node"} <= names
        assert tel.counters["dag.graphs"] == 2


class TestChaosThroughDag:
    def test_workers_plan_survives_with_retries(self):
        """The ``workers`` chaos plan fires at the shared ``pool.task``
        site inside DAG node spans; bounded retries absorb every crash
        and the epoch completes with finite loss."""
        from repro.data.synthetic import mnist_like
        from repro.nn.training_loop import TrainingLoop

        network = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                            threads=2, backend="thread")
        data = mnist_like(48, seed=0)
        loop = TrainingLoop(network, data, batch_size=8, scheduler="dag",
                            preflight=False)
        policy = RetryPolicy(max_retries=3, backoff_base=0.0)
        with telemetry.collect() as tel:
            with apply_policy(policy), \
                    inject(get_plan("workers", seed=0)) as injector:
                history = loop.run(1)
        close_network(network)
        assert len(history.epochs) == 1
        assert np.isfinite(history.final.train_loss)
        assert injector.fired("pool.task")
        assert tel.counters["dag.retries"] >= 1
