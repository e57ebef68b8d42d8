"""The sharded training step: one whole-network FP+BP task per worker.

``SGDTrainer.step`` on a pooled network dispatches one task per range of
``pool.assignment(batch)``; each runs FP, the loss gradient and BP
through an inline replica of the layer chain over the shared parameter
buffer, and the parent reduces the shards' gradient partials in range
order.  The contract pinned here is the runtime's usual one, moved to
the step: serial, thread and process execution are **bit-identical on
the same split**, and every fault the pool can absorb leaves the run
bit-identical to the unfaulted serial one.
"""

import os
import platform
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import native, telemetry
from repro.core.autotuner import CostBackend
from repro.core.framework import SpgCNN
from repro.data.synthetic import Dataset, cifar10_like, mnist_like
from repro.nn.layers.extras import DropoutLayer
from repro.nn.network import Network
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import alexnet_small, cifar10_net, mnist_net
from repro.ops.engine import register_engine
from repro.ops.gemm_conv import GemmInParallelEngine
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.policy import RetryPolicy, apply_policy
from repro.resilience.quarantine import default_registry
from repro.runtime import backends, shm
from repro.runtime.backends import (ProcessBackend, pin_malloc_thresholds,
                                    worker_diagnostics)
from repro.runtime.pool import WorkerPool
from tests.conftest import solo_layers

BACKENDS = ("serial", "thread", "process")


def _fused_cifar(scale, rng, threads, backend):
    """The CIFAR net with stencil FP on both convs: an inline step fuses
    each conv with its ReLU and pool, a sharded one runs the chain."""
    net = cifar10_net(scale=scale, rng=rng, threads=threads, backend=backend)
    for layer in net.conv_layers():
        layer.set_fp_engine("stencil")
    return net


def _images(builder, count, seed):
    if builder is mnist_net:
        return mnist_like(count, seed=seed)
    data = cifar10_like(count, seed=seed)
    if builder is alexnet_small:
        rng = np.random.default_rng(seed)
        images = rng.standard_normal((count, 3, 64, 64)).astype(np.float32)
        return Dataset(images, data.labels, 100)
    return data


def _close(network):
    for layer in network.layers:
        close = getattr(layer, "close", None)
        if close is not None:
            close()


def _train(builder, threads, backend, steps=3, batch=6, scale=0.25, seed=3):
    """Losses, gradients, parameters and velocity after ``steps`` steps."""
    net = builder(scale=scale, rng=np.random.default_rng(seed),
                  threads=threads, backend=backend)
    data = _images(builder, steps * batch, seed)
    trainer = SGDTrainer(net, learning_rate=0.01)
    losses = []
    try:
        for i in range(steps):
            lo = i * batch
            result = trainer.step(data.images[lo:lo + batch],
                                  data.labels[lo:lo + batch])
            losses.append(result.loss)
        state = {
            "losses": losses,
            "sparsities": result.error_sparsities,
            "grads": [g.tobytes() for _, _, g in net.parameters()],
            "params": [p.tobytes() for _, p, _ in net.parameters()],
            "velocity": {k: v.tobytes()
                         for k, v in trainer.velocity_state().items()},
        }
    finally:
        _close(net)
    return state


@pytest.mark.parametrize("builder", [cifar10_net, mnist_net, _fused_cifar,
                                     alexnet_small],
                         ids=["cifar", "mnist", "fused-cifar", "alexnet"])
@pytest.mark.parametrize("threads", [2, 3])
def test_backends_agree_bitwise_on_the_same_split(builder, threads):
    serial = _train(builder, threads, "serial")
    assert all(np.isfinite(serial["losses"]))
    for backend in ("thread", "process"):
        assert _train(builder, threads, backend) == serial, backend


@pytest.mark.skipif(native.find_compiler() is None, reason="no cc")
def test_replicas_run_the_gemm_epilogue_the_parent_planned():
    """Untuned, both CIFAR runs are GEMM FP: the parent plans the GEMM
    epilogue unit for each, every shard's replica runs it (its conv FP
    spans say fused), and the step is bitwise across the backends."""
    states = {}
    for backend in BACKENDS:
        net = cifar10_net(scale=0.25, rng=np.random.default_rng(3),
                          threads=2, backend=backend)
        data = cifar10_like(6, seed=3)
        try:
            planned = [dict(net.structure()[start][2])["fused_artifact"]
                       for start in net._runs]
            units = [conv.fused_artifact(pool) and conv._fused(pool)
                     for conv, _, pool in net._runs.values()]
            assert all(planned) and all(u.takes_conv_output for u in units)
            with telemetry.collect() as tel:
                loss = SGDTrainer(net).step(data.images, data.labels).loss
            fused = [s for s in tel.spans if s.name.startswith("conv")
                     and s.name.endswith("/fp")]
            assert len(fused) == 2 * len(net._runs), backend
            assert all(s.attrs.get("fused") == "relu+pool" for s in fused)
            states[backend] = (loss, [p.tobytes() for _, p, _
                                      in net.parameters()])
        finally:
            _close(net)
    assert states["thread"] == states["serial"] == states["process"]


@pytest.mark.skipif(native.find_compiler() is None, reason="no cc")
def test_a_replica_that_cannot_load_the_planned_epilogue_reports_fp(rng):
    """A replica handed an epilogue artefact it cannot load runs the
    chain, bitwise, and reports an FP failure of its GEMM engine."""
    net = cifar10_net(scale=0.25, rng=np.random.default_rng(0))
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
        chain = layer.forward(chain)      # one by one: never fused
    assert np.array_equal(replica.forward(x), chain)
    assert replica._fused == {3}
    ((phase, engine, reason),) = replica.layers[0].take_failures()
    assert (phase, engine) == ("fp", "gemm-in-parallel")
    assert "fused artefact" in reason and "'foreign'" in reason
    assert replica.layers[3].take_failures() == []


def test_sharded_step_tracks_the_inline_step():
    # Another summation order (shard-local GEMMs, partials summed in
    # range order), so close -- not bitwise.
    inline = _train(cifar10_net, None, "thread")
    sharded = _train(cifar10_net, 2, "serial")
    np.testing.assert_allclose(sharded["losses"], inline["losses"],
                               rtol=1e-5)
    assert sharded["sparsities"].keys() == inline["sparsities"].keys()
    for name, value in inline["sparsities"].items():
        assert sharded["sparsities"][name] == pytest.approx(value, abs=1e-3)


def test_dropout_masks_are_the_inline_runs(monkeypatch):
    # The parent draws every mask for the whole batch, in layer order,
    # from the layer's own generator -- the draws an inline run makes.
    drawn = []
    original = DropoutLayer.draw_noise

    def recording(layer, shape):
        keep = original(layer, shape)
        drawn.append(keep.copy())
        return keep

    monkeypatch.setattr(DropoutLayer, "draw_noise", recording)
    _train(alexnet_small, None, "thread")
    inline, drawn[:] = list(drawn), []
    _train(alexnet_small, 2, "serial")
    assert len(inline) == len(drawn) == 3
    for a, b in zip(inline, drawn):
        np.testing.assert_array_equal(a, b)


class TestShardPlacement:
    def _logits(self, net, images, labels):
        sharder = net.step_sharder()
        return sharder.run(images, labels).copy()

    def test_logits_do_not_depend_on_the_shard_an_image_lands_in(self):
        net = cifar10_net(scale=0.25, rng=np.random.default_rng(5),
                          threads=2, backend="serial")
        data = cifar10_like(6, seed=5)
        # Swap the halves: every image changes shard, keeps its row.
        swap = np.array([3, 4, 5, 0, 1, 2])
        try:
            straight = self._logits(net, data.images, data.labels)
            swapped = self._logits(net, data.images[swap], data.labels[swap])
        finally:
            _close(net)
        np.testing.assert_array_equal(swapped, straight[swap])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_with_fewer_images_than_workers(self, backend):
        reference = _train(mnist_net, 3, "serial", steps=2, batch=2)
        assert _train(mnist_net, 3, backend, steps=2, batch=2) == reference


class TestOnePoolPerNetwork:
    def test_layers_share_one_pool(self):
        net = cifar10_net(scale=0.25, threads=2, backend="serial")
        pools = {id(layer._pool) for layer in net.conv_layers()}
        assert len(pools) == 1
        assert net.conv_layers()[0]._pool.num_workers == 2
        _close(net)

    def test_standalone_layer_still_makes_a_private_pool(self):
        from repro.core.convspec import ConvSpec
        from repro.nn.layers.conv import ConvLayer

        spec = ConvSpec(nc=1, ny=6, nx=6, nf=2, fy=3, fx=3)
        a = ConvLayer(spec, threads=2, backend="serial")
        b = ConvLayer(spec, threads=2, backend="serial")
        assert a._pool is not None and a._pool is not b._pool

    def test_process_net_owns_exactly_threads_workers_and_closes_clean(
            self):
        before = set(shm.host_segments())
        net = cifar10_net(scale=0.25, rng=np.random.default_rng(0),
                          threads=2, backend="process")
        data = cifar10_like(8, seed=0)
        trainer = SGDTrainer(net)
        try:
            trainer.step(data.images, data.labels)  # spawns, binds, warms
            with telemetry.collect() as tel:
                for _ in range(3):
                    trainer.step(data.images, data.labels)
            backend = net.conv_layers()[0]._pool.backend
            assert isinstance(backend, ProcessBackend)
            pids = backend.worker_pids()
            assert len(pids) == 2
            # One dispatch per worker per step.
            assert tel.counters["pool.shipped_jobs"] == 3 * 2
            assert set(shm.host_segments()) - before  # params, batch, ...
            weights = net.conv_layers()[0].weights.copy()
        finally:
            for _ in range(2):  # close() is idempotent
                for layer in net.conv_layers():
                    layer.close()
        assert backend.worker_pids() == ()
        for pid in pids:
            assert not Path(f"/proc/{pid}").exists()
        assert set(shm.host_segments()) - before == set()
        assert shm.owned_segments() == ()
        # The layers got their parameters back as private arrays.
        np.testing.assert_array_equal(net.conv_layers()[0].weights, weights)

    def test_training_resumes_after_close(self):
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="thread")
        data = mnist_like(8, seed=0)
        trainer = SGDTrainer(net)
        first = trainer.step(data.images, data.labels).loss
        _close(net)
        second = trainer.step(data.images, data.labels).loss
        _close(net)
        assert np.isfinite(second) and second != first

    def test_replaced_parameter_array_is_picked_up(self):
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="serial")
        data = mnist_like(8, seed=0)
        trainer = SGDTrainer(net)
        trainer.step(data.images, data.labels)
        dense = net.layers[-1]
        dense.weights = np.zeros_like(dense.weights)
        dense.bias = np.zeros_like(dense.bias)
        sharder = net.step_sharder()
        logits = sharder.run(data.images, data.labels)
        np.testing.assert_array_equal(logits, np.zeros_like(logits))
        _close(net)

    def test_rebinding_registers_and_boots_once_per_pool_start(self):
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="process")
        data = mnist_like(8, seed=0)
        trainer = SGDTrainer(net)
        pool = net.conv_layers()[0]._pool
        try:
            trainer.step(data.images, data.labels)
            with telemetry.collect() as tel:
                for _ in range(3):
                    dense = net.layers[-1]
                    dense.bias = dense.bias.copy()  # forces a rebind
                    trainer.step(data.images, data.labels)
            assert len(pool._at_shutdown) == 1
            assert tel.counters["pool.shipped_jobs"] == 3 * 2
        finally:
            _close(net)
        assert pool._at_shutdown == []


class _Table(CostBackend):
    """Prices engines from a fixed table (the cheapest gets deployed)."""

    def __init__(self, costs):
        self.costs = costs

    def time(self, technique, phase, spec, sparsity):
        return self.costs.get((phase, technique), 1.0)


@register_engine("test-nan-dw")
class _NanWeightGradient(GemmInParallelEngine):
    """Returns a NaN weight gradient from finite operands."""

    def backward_weights(self, out_error, inputs):
        return np.full(self.spec.weight_shape, np.nan, dtype=out_error.dtype)


class TestEnginesReachTheReplicas:
    def test_redeployed_bp_engine_runs_in_the_workers_next_step(self):
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="process")
        data = mnist_like(8, seed=0)
        spg = SpgCNN(net, _Table({("bp", "sparse"): 0.1}), recheck_epochs=1)
        trainer = SGDTrainer(net)
        name = net.conv_layers()[0].name
        try:
            spg.optimize()
            with telemetry.collect() as before:
                trainer.step(data.images, data.labels)
            events = spg.after_epoch(1)
            with telemetry.collect() as after:
                trainer.step(data.images, data.labels)
        finally:
            _close(net)
        assert [e.new_engine for e in events] == ["sparse"]
        assert before.find_spans(f"{name}/bp", engine="gemm-in-parallel")
        assert not before.find_spans(f"{name}/bp", engine="sparse")
        sparse = after.find_spans(f"{name}/bp", engine="sparse")
        assert len(sparse) == 2  # one per worker
        assert all("process_pid" in span.attrs for span in sparse)

    def test_nan_engine_in_a_worker_is_quarantined_in_the_parent(self):
        # Thread backend: a test-module engine is not importable by a
        # spawned worker.  The shard and its report are the same code.
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="thread")
        data = mnist_like(8, seed=0)
        conv = net.conv_layers()[0]
        conv.set_bp_engine("test-nan-dw")
        trainer = SGDTrainer(net)
        try:
            with telemetry.collect() as tel:
                result = trainer.step(data.images, data.labels)
                again = trainer.step(data.images, data.labels)
        finally:
            _close(net)
        assert not result.skipped and np.isfinite(result.loss)
        assert all(np.isfinite(g).all() for _, _, g in net.parameters())
        assert default_registry().is_quarantined(conv.name, "bp",
                                                 "test-nan-dw")
        assert conv.bp_engine_name == "reference"
        assert tel.counters["engine.fallbacks"] == 1
        assert not again.skipped and again.loss != result.loss


class TestGuards:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_poisoned_batch_leaves_parameters_and_velocity_untouched(
            self, backend):
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend=backend)
        data = mnist_like(8, seed=0)
        trainer = SGDTrainer(net)
        try:
            trainer.step(data.images, data.labels)
            params = [p.tobytes() for _, p, _ in net.parameters()]
            velocity = {k: v.tobytes()
                        for k, v in trainer.velocity_state().items()}
            poisoned = data.images.copy()
            poisoned[3, 0, 5, 5] = np.nan
            result = trainer.step(poisoned, data.labels)
            assert result.skipped
            assert [p.tobytes() for _, p, _ in net.parameters()] == params
            assert {k: v.tobytes() for k, v
                    in trainer.velocity_state().items()} == velocity
            assert not trainer.step(data.images, data.labels).skipped
        finally:
            _close(net)

    def test_corrupted_partial_is_caught_by_the_reduced_gradient_guard(self):
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="serial")
        data = mnist_like(8, seed=0)
        trainer = SGDTrainer(net)
        plan = FaultPlan(name="t", specs=(
            FaultSpec(site="pool.result", kind="corrupt", at=(2,)),))
        params = [p.tobytes() for _, p, _ in net.parameters()]
        with inject(plan):
            result = trainer.step(data.images, data.labels)
        assert result.skipped and np.isfinite(result.loss)
        assert [p.tobytes() for _, p, _ in net.parameters()] == params
        _close(net)

    def test_bad_labels_are_rejected_before_dispatch(self):
        from repro.errors import ShapeError

        net = mnist_net(scale=0.25, threads=2, backend="serial")
        data = mnist_like(4, seed=0)
        with pytest.raises(ShapeError, match="out of range"):
            SGDTrainer(net).step(data.images, data.labels + 10)
        _close(net)


class TestEngineFaultSites:
    """``engine.fp`` / ``engine.bp`` are the parent's: rehearsed before
    dispatch, so a plan fires the same under every backend."""

    PLAN = FaultPlan(name="t", specs=(
        FaultSpec(site="engine.fp", kind="raise", at=(3,)),
        FaultSpec(site="engine.bp", kind="raise", at=(4,)),))

    def _run(self, backend):
        with inject(self.PLAN) as injector, telemetry.collect() as tel:
            state = _train(cifar10_net, 2, backend, steps=3)
        default_registry().clear()
        fired = [(f.site, f.invocation, f.attrs["layer"], f.attrs["method"])
                 for f in injector.fired()]
        visits = (injector.invocations("engine.fp"),
                  injector.invocations("engine.bp"))
        return state, fired, visits, tel.counters["engine.fallbacks"]

    def test_sites_fire_under_process_as_under_serial_and_thread(self):
        serial, fired, visits, fallbacks = self._run("serial")
        # cifar: 2 convs -> 2 FP calls and 3 BP calls (no BP-data for the
        # conv the images feed) per step while no engine is degraded, so
        # both fire in step 2: the first conv's FP, the second's dW.
        first, second = (layer.name for layer in cifar10_net(
            scale=0.25).conv_layers())
        assert fired == [("engine.fp", 3, first, "forward"),
                         ("engine.bp", 4, second, "backward_weights")]
        assert fallbacks == 2
        assert all(np.isfinite(loss) for loss in serial["losses"])
        for backend in ("thread", "process"):
            state, other, other_visits, other_fallbacks = self._run(backend)
            assert (other, other_visits, other_fallbacks) == (
                fired, visits, fallbacks), backend
            assert state == serial, backend

    def test_fired_fault_quarantines_and_deploys_the_fallback(self):
        net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="serial")
        data = mnist_like(8, seed=0)
        conv = net.conv_layers()[0]
        engine = conv.fp_engine_name
        plan = FaultPlan(name="t", specs=(
            FaultSpec(site="engine.fp", kind="raise", at=(1,)),))
        with inject(plan):
            result = SGDTrainer(net).step(data.images, data.labels)
        _close(net)
        assert not result.skipped and np.isfinite(result.loss)
        assert conv.fp_engine_name == "reference"
        assert default_registry().is_quarantined(conv.name, "fp", engine)


class TestFaultsEndBitIdentical:
    def test_injected_task_raise_is_retried_to_the_same_bits(self):
        reference = _train(mnist_net, 2, "serial", steps=3)
        plan = FaultPlan(name="t", specs=(
            FaultSpec(site="pool.task", kind="raise", at=(2, 5)),))
        policy = RetryPolicy(max_retries=2, backoff_base=0.0)
        for backend in ("thread", "process"):
            with inject(plan) as injector, apply_policy(policy):
                faulted = _train(mnist_net, 2, backend, steps=3)
            assert len(injector.fired()) == 2
            assert faulted == reference, backend

    def test_sigkill_mid_step_is_redispatched_to_the_same_bits(self):
        steps, batch = 3, 16
        reference = _train(cifar10_net, 2, "serial", steps=steps,
                           batch=batch, scale=1.0)
        net = cifar10_net(rng=np.random.default_rng(3), threads=2,
                          backend="process")
        data = cifar10_like(steps * batch, seed=3)
        trainer = SGDTrainer(net, learning_rate=0.01)
        losses = []
        try:
            for i in range(steps):
                lo = i * batch
                if i == 1:
                    # Strike while this step's shards are in flight.
                    backend = net.conv_layers()[0]._pool.backend
                    victim = backend.worker_pids()[0]
                    timer = threading.Timer(0.02, os.kill,
                                            (victim, signal.SIGKILL))
                    timer.start()
                losses.append(trainer.step(data.images[lo:lo + batch],
                                           data.labels[lo:lo + batch]).loss)
            timer.join(timeout=5.0)
            assert not timer.is_alive()
            assert victim not in backend.worker_pids()
            assert backend.respawns >= 1
            assert losses == reference["losses"]
            assert [p.tobytes()
                    for _, p, _ in net.parameters()] == reference["params"]
        finally:
            _close(net)
        assert shm.owned_segments() == ()

    def test_first_shard_is_not_judged_by_the_readiness_probe(
            self, monkeypatch):
        # The bind-time worker_ready broadcast completes in microseconds.
        # With the floor patched to 1 ms, a deadline learned from it
        # would kill every worker running the first real shard (tens to
        # hundreds of ms); shards are judged only by completed shards.
        monkeypatch.setattr(backends, "DEADLINE_FLOOR", 0.001)
        steps, batch = 2, 64
        reference = _train(cifar10_net, 2, "serial", steps=steps,
                           batch=batch, scale=1.0)
        net = cifar10_net(rng=np.random.default_rng(3), threads=2,
                          backend="process")
        data = cifar10_like(steps * batch, seed=3)
        trainer = SGDTrainer(net, learning_rate=0.01)
        try:
            losses = [trainer.step(data.images[lo:lo + batch],
                                   data.labels[lo:lo + batch]).loss
                      for lo in range(0, steps * batch, batch)]
            backend = net.conv_layers()[0]._pool.backend
            assert (backend.hung_workers, backend.respawns) == (0, 0)
            assert losses == reference["losses"]
        finally:
            _close(net)


class TestWorkersStayLegible:
    def test_process_trace_has_per_worker_per_layer_rows(self):
        net = cifar10_net(scale=0.25, rng=np.random.default_rng(0),
                          threads=2, backend="process")
        data = cifar10_like(8, seed=0)
        trainer = SGDTrainer(net)
        try:
            trainer.step(data.images, data.labels)
            with telemetry.collect() as tel:
                trainer.step(data.images, data.labels)
        finally:
            _close(net)
        for name in ("step/publish", "step/dispatch", "step/reduce",
                     "sgd/update"):
            assert len(tel.find_spans(name)) == 1, name
        shards = tel.find_spans("worker/step_shard")
        assert sorted((s.attrs["lo"], s.attrs["hi"]) for s in shards) == [
            (0, 4), (4, 8)]
        assert len({s.attrs["process_pid"] for s in shards}) == 2
        for shard in shards:
            assert shard.attrs["job"] > 0
            assert str(shard.attrs["blas"]) == os.environ.get(
                "OPENBLAS_NUM_THREADS", "1")
            assert shard.attrs["malloc"] == pin_malloc_thresholds()
            children = [s for s in tel.spans
                        if s.parent_id == shard.span_id]
            names = [s.name for s in children]
            for layer in solo_layers(net):
                assert f"{layer.name}/fp" in names
                assert f"{layer.name}/bp" in names
            conv_bp = next(s for s in children
                           if s.name == f"{net.conv_layers()[-1].name}/bp")
            assert conv_bp.attrs["phase"] == "bp"
            assert conv_bp.attrs["engine"] == "gemm-in-parallel"
            assert 0.0 <= conv_bp.attrs["sparsity"] <= 1.0
        assert tel.counters["conv.flops.total"] > 0
        # No per-layer fork/join left in a training step.
        assert not [s for s in tel.spans if s.name.startswith("executor/")]


class TestWorkerBlasThreads:
    def _seen(self):
        backend = ProcessBackend(1)
        try:
            return backend.broadcast(worker_diagnostics)[0]["blas_threads"]
        finally:
            backend.shutdown()

    def test_workers_are_pinned_to_one_blas_thread_by_default(
            self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert self._seen() == "1"
        # The pin is for the spawn only: the parent's environment is
        # as the user left it.
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_an_explicit_user_value_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert self._seen() == "3"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


class TestWorkerHeap:
    def test_workers_report_the_thresholds_the_trainer_runs_under(self):
        backend = ProcessBackend(1)
        try:
            seen = backend.broadcast(worker_diagnostics)[0]
        finally:
            backend.shutdown()
        assert seen["malloc_thresholds"] == pin_malloc_thresholds()

    def test_glibc_takes_both_settings(self):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("mallopt thresholds are glibc's")
        assert pin_malloc_thresholds() == "mmap:32M,trim:512M"
        assert pin_malloc_thresholds() == "mmap:32M,trim:512M"  # idempotent


def test_stale_attempt_does_not_write_into_a_later_steps_buffers():
    # A straggler's abandoned original can outlive its step; the stamp
    # tells it the buffers have moved on.
    from repro.runtime.backends import ReplicaCache, run_step_shard

    net = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                    threads=2, backend="serial")
    data = mnist_like(8, seed=0)
    sharder = net.step_sharder()
    jobs = []
    original = sharder.pool._require_backend().call

    def capture(fn, job, *rest):
        jobs.append(job)
        return original(fn, job, *rest)

    sharder.pool._require_backend().call = capture
    sharder.run(data.images, data.labels)
    stale = jobs[0]
    logits = sharder.run(data.images[::-1], data.labels[::-1]).copy()
    assert run_step_shard(stale, 0, 0, 4, ReplicaCache()) is None
    np.testing.assert_array_equal(sharder._local["logits"], logits)
    _close(net)


def test_pool_runs_shutdown_releases_once():
    pool = WorkerPool(2, backend="serial")
    calls = []
    pool.at_shutdown(lambda: calls.append(1))
    pool.shutdown()
    pool.shutdown()
    assert calls == [1]
