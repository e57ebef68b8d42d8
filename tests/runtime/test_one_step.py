"""One step description: a step shard runs ``Network.forward`` / ``backward``.

A shard's replica is an inline network, so the conv + ReLU + max-pool
fusion and the sparse unit's pooled export run inside shards wherever
the structure deploys C ``stencil`` FP and ``sparse`` BP, bitwise equal
across the serial, thread and process backends on the same split.  The
rows a step records come from the layers and the network themselves,
through the one ``telemetry`` API: into the parent's collectors in
process, into the job's records (and with its result into the parent's
collectors) in a spawned worker.  Runs with and without a compiler.
"""

import collections
import os
import shutil

import numpy as np

from repro import telemetry
from repro.core.autotuner import CostBackend
from repro.core.framework import SpgCNN
from repro.data.synthetic import cifar10_like
from repro.nn.network import Network
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net
from repro.resilience.quarantine import default_registry
from repro.runtime.backends import ProcessBackend, worker_ready
from tests.conftest import needs_cc, solo_layers

BACKENDS = ("serial", "thread", "process")
HAS_CC = shutil.which("cc") is not None


def _net(threads=None, backend="thread", techniques=True):
    net = cifar10_net(scale=0.25, rng=np.random.default_rng(3),
                      threads=threads, backend=backend)
    if techniques:
        for conv in net.conv_layers():
            conv.set_fp_engine("stencil")
            conv.set_bp_engine("sparse")
    return net


def _close(net):
    for conv in net.conv_layers():
        conv.close()


def _train(net, steps=2, batch=8):
    """Losses and parameter bytes after ``steps`` SGD steps, and the
    telemetry of all of them."""
    data = cifar10_like(steps * batch, seed=3)
    trainer = SGDTrainer(net, learning_rate=0.01)
    try:
        with telemetry.collect() as tel:
            losses = [trainer.step(data.images[i * batch:(i + 1) * batch],
                                   data.labels[i * batch:(i + 1) * batch]
                                   ).loss for i in range(steps)]
        params = [p.tobytes() for _, p, _ in net.parameters()]
    finally:
        _close(net)
    return losses, params, tel


def _children(tel, span):
    return [s for s in tel.spans if s.parent_id == span.span_id]


class TestThreeTechniquesInAShardedStep:
    def test_bitwise_across_backends_and_close_to_inline(self):
        inline_losses, inline_params, _ = _train(_net())
        nets = {backend: _net(2, backend) for backend in BACKENDS}
        convs = {conv.name for conv in nets["serial"].conv_layers()}
        runs = {backend: _train(net) for backend, net in nets.items()}
        losses, params, _ = runs["serial"]
        assert all(np.isfinite(losses))
        for backend in ("thread", "process"):
            assert runs[backend][0] == losses, backend
            assert runs[backend][1] == params, backend
        np.testing.assert_allclose(losses, inline_losses, rtol=1e-5)
        for mine, theirs in zip(params, inline_params):
            np.testing.assert_allclose(np.frombuffer(mine, np.float32),
                                       np.frombuffer(theirs, np.float32),
                                       rtol=1e-5, atol=1e-5)
        assert not default_registry().records()
        for backend, (_, _, tel) in runs.items():
            shards = tel.find_spans("worker/step_shard")
            assert len(shards) == 4, backend
            for shard in shards:
                rows = {s.name: s for s in _children(tel, shard)}
                for name in convs:
                    fp, bp = rows[f"{name}/fp"], rows[f"{name}/bp"]
                    # With a compiler the fused unit and the pooled
                    # export served; without one the chain ran.
                    want = "relu+pool" if HAS_CC else None
                    assert fp.attrs.get("fused") == want, (backend, name)
                    assert bp.attrs.get("fused") == want, (backend, name)
                    assert fp.attrs["engine"] == "stencil"
                    assert bp.attrs["engine"] == "sparse"

    def test_the_structure_names_the_inline_fused_unit(self):
        inline, pooled = _net(), _net(2, "thread")
        try:
            for index, conv in enumerate(inline.conv_layers()):
                position = inline.layers.index(conv)
                pool = inline.run_pool(conv)
                unit = conv.fused_unit(pool)
                assert (unit is not None) == HAS_CC
                planned = dict(pooled.structure()[position][2])
                assert planned["fused_artifact"] == (
                    unit.artifact if unit is not None else None), index
                # The pooled parent maps its own FP over the workers.
                assert pooled.layers[position].fused_unit(
                    pooled.layers[position + 2]) is None
        finally:
            _close(pooled)

    def test_a_foreign_fused_artefact_is_an_fp_failure_and_the_chain_runs(
            self, rng):
        net = _net()
        structure = list(net.structure())
        kind, name, options = structure[0]
        structure[0] = (kind, name, tuple(
            (key, "foreign" if key == "fused_artifact" else value)
            for key, value in options))
        replica = Network.replica(tuple(structure), net.input_shape)
        for mine, theirs in zip(replica.layers, net.layers):
            mine.bind_params(theirs.params())
        x = rng.standard_normal((4,) + net.input_shape).astype(np.float32)
        chain = x
        for layer in net.layers:
            chain = layer.forward(chain)  # one by one: never fused
        assert np.array_equal(replica.forward(x), chain)
        assert 0 not in replica._fused
        ((phase, engine, reason),) = replica.layers[0].take_failures()
        assert (phase, engine) == ("fp", "stencil")
        assert "fused artefact" in reason and "'foreign'" in reason
        assert replica.layers[3].take_failures() == []

    def test_a_reported_fused_failure_degrades_the_parents_layer(
            self, monkeypatch):
        net = _net(2, "thread")
        conv = net.conv_layers()[0]
        # The parent plans a unit no replica can load.
        monkeypatch.setattr(type(conv), "fused_artifact",
                            lambda self, pool: "foreign")
        losses, _, tel = _train(net, steps=1)
        assert np.isfinite(losses).all()
        assert default_registry().is_quarantined(conv.name, "fp", "stencil")
        reasons = [e.attrs["reason"] for e in tel.events
                   if e.name == "engine.fallback"]
        assert len(reasons) == 2  # one per conv, each degraded once
        assert all("fused artefact" in reason for reason in reasons)
        assert conv.fp_engine_name == "reference"

    @needs_cc
    def test_a_replica_runs_the_chain_the_parent_planned(self, rng):
        net = _net()
        structure = tuple(
            (kind, name, tuple((key, None if key == "fused_artifact"
                                else value) for key, value in options))
            for kind, name, options in net.structure())
        replica = Network.replica(structure, net.input_shape)
        for mine, theirs in zip(replica.layers, net.layers):
            mine.bind_params(theirs.params())
        x = rng.standard_normal((4,) + net.input_shape).astype(np.float32)
        replica.forward(x)
        assert replica._fused == set()
        assert all(layer.take_failures() == []
                   for layer in replica.conv_layers())


class _SparseBpWins(CostBackend):
    """Every candidate costs 1 but sparse BP, which costs 0.1."""

    def time(self, technique, phase, spec, sparsity):
        return 0.1 if technique == "sparse" else 1.0


class TestFirstPlanUnderAPool:
    """``SpgCNN.after_batch`` switches BP between the first and second
    sharded steps: the parent's layers hold the shards' sparsity by then,
    and every worker runs the new engine from the second step on."""

    STEPS = 3

    def _run(self, backend, batch=8):
        net = _net(2, backend, techniques=False)
        convs = [conv.name for conv in net.conv_layers()]
        spg = SpgCNN(net, _SparseBpWins())
        data = cifar10_like(self.STEPS * batch, seed=3)
        trainer = SGDTrainer(net, learning_rate=0.01)
        losses, engines, events = [], [], []
        try:
            spg.optimize()
            for i in range(self.STEPS):
                with telemetry.collect() as tel:
                    result = trainer.step(
                        data.images[i * batch:(i + 1) * batch],
                        data.labels[i * batch:(i + 1) * batch])
                losses.append(result.loss)
                events.append(spg.after_batch(1, i, result))
                shards = tel.find_spans("worker/step_shard")
                assert len(shards) == 2, backend
                engines.append({
                    (shard.span_id, name): row.attrs["engine"]
                    for shard in shards for row in _children(tel, shard)
                    for name in convs if row.name == f"{name}/bp"})
        finally:
            _close(net)
        return convs, losses, engines, events

    def test_second_step_on_every_worker_runs_the_planned_engine(self):
        runs = {backend: self._run(backend) for backend in BACKENDS}
        convs, losses, _, _ = runs["serial"]
        assert all(np.isfinite(losses))
        for backend, (_, mine, engines, events) in runs.items():
            assert mine[1:] == losses[1:], backend
            assert [(e.layer_name, e.new_engine) for e in events[0]] == [
                (name, "sparse") for name in convs], backend
            assert events[1:] == [[]] * (self.STEPS - 1), backend
            assert len(engines[0]) == 2 * len(convs), backend
            assert set(engines[0].values()) == {"gemm-in-parallel"}
            for step in engines[1:]:
                assert len(step) == 2 * len(convs), backend
                assert set(step.values()) == {"sparse"}, backend
        assert not default_registry().records()


class TestOneRowSetPerBackend:
    def _step_rows(self, backend):
        net = _net(2, backend, techniques=False)
        data = cifar10_like(8, seed=0)
        trainer = SGDTrainer(net)
        try:
            trainer.step(data.images, data.labels)
            with telemetry.collect() as tel:
                trainer.step(data.images, data.labels)
        finally:
            _close(net)
        return net, tel

    def test_every_backend_records_the_same_rows(self):
        flops = {}
        for backend in BACKENDS:
            net, tel = self._step_rows(backend)
            shards = tel.find_spans("worker/step_shard")
            assert len(shards) == 2, backend
            want = collections.Counter(
                f"{layer.name}/{phase}" for layer in solo_layers(net)
                for phase in ("fp", "bp"))
            for shard in shards:
                rows = collections.Counter(
                    s.name for s in _children(tel, shard))
                assert rows == want, backend
            flops[backend] = tel.counters["conv.flops.total"]
        assert flops["serial"] == flops["thread"] == flops["process"] > 0

    def test_worker_caches_report_their_misses(self):
        net = _net(2, "process", techniques=False)
        data = cifar10_like(8, seed=0)
        trainer = SGDTrainer(net)
        try:
            with telemetry.collect() as first:
                trainer.step(data.images, data.labels)
            with telemetry.collect() as second:
                trainer.step(data.images, data.labels)
        finally:
            _close(net)
        # Each worker builds its replica and maps the step's segments
        # once; the next step finds both cached.
        assert first.counters["worker.replica_builds"] == 2
        assert first.counters["worker.attach_cache_misses"] > 0
        assert "worker.replica_builds" not in second.counters
        assert "worker.attach_cache_misses" not in second.counters


def _emit_through_the_one_api():
    """Runs in a spawned worker: nothing here knows it is not the parent."""
    with telemetry.span("test/worker", shard=1) as span:
        telemetry.add("test.count", 3.0)
        telemetry.gauge("test.gauge", 4.0)
        telemetry.event("test.event", what="fired")
        span.annotate(late=2)
    return os.getpid()


def test_worker_telemetry_reaches_the_parents_collector():
    backend = ProcessBackend(1)
    try:
        backend.call(worker_ready)
        with telemetry.collect() as tel:
            pid = backend.call(_emit_through_the_one_api)
    finally:
        backend.shutdown()
    assert pid != os.getpid()
    (span,) = tel.find_spans("test/worker")
    assert span.attrs["shard"] == 1 and span.attrs["late"] == 2
    assert span.attrs["process_pid"] == pid
    assert tel.counters["test.count"] == 3.0
    assert tel.gauges["test.gauge"] == 4.0
    (event,) = [e for e in tel.events if e.name == "test.event"]
    assert event.attrs["what"] == "fired"
    assert event.attrs["process_pid"] == pid
    assert span.start <= event.time <= span.end

