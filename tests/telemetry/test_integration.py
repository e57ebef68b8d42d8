"""End-to-end telemetry integration: runtime, layers, trainer, framework."""

import numpy as np
import pytest

from repro import telemetry
from repro.machine.cost_backend import ModelCostBackend
from repro.core.convspec import ConvSpec
from repro.core.framework import SpgCNN
from repro.data.synthetic import make_dataset
from repro.machine.spec import xeon_e5_2650
from repro.nn.layers.conv import ConvLayer
from repro.nn.netdef import build_network
from repro.nn.sgd import SGDTrainer
from repro.nn.training_loop import TrainingLoop
from repro.runtime.pool import WorkerPool

SPEC = ConvSpec(nc=2, ny=8, nx=8, nf=4, fy=3, fx=3, name="c0")


def small_net(threads=None):
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
        threads=threads,
    )


class TestPoolTelemetry:
    def test_map_batches_emits_per_worker_task_spans(self):
        with telemetry.collect() as tel:
            with WorkerPool(num_workers=3) as pool:
                pool.map_batches(lambda lo, hi: hi - lo, 9)
        tasks = tel.find_spans("pool/task")
        assert len(tasks) == 3
        assert sorted(s.attrs["worker"] for s in tasks) == [0, 1, 2]
        assert sorted((s.attrs["lo"], s.attrs["hi"]) for s in tasks) == [
            (0, 3), (3, 6), (6, 9)
        ]
        assert tel.counters["pool.tasks"] == 3
        # Occupancy peaks at the batch size, then drains back to zero.
        peaks = [v for _, v in tel.gauge_series["pool.queue_occupancy"]]
        assert max(peaks) == 3
        assert tel.gauges["pool.queue_occupancy"] == 0

    def test_single_range_inline_path_still_traced(self):
        with telemetry.collect() as tel:
            pool = WorkerPool(num_workers=1)
            pool.map_batches(lambda lo, hi: hi - lo, 4)
            pool.shutdown()
        assert len(tel.find_spans("pool/task")) == 1


class TestConvLayerTelemetry:
    def test_fp_bp_spans_and_goodput_counters(self):
        layer = ConvLayer(SPEC, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal(
            (4,) + SPEC.input_shape).astype(np.float32)
        with telemetry.collect() as tel:
            out = layer.forward(x)
            err = np.zeros_like(out)
            err[:, :, ::2, ::2] = 1.0  # 75% sparse error gradient
            layer.backward(err)
        fp = tel.find_spans("c0/fp")
        bp = tel.find_spans("c0/bp")
        assert len(fp) == 1 and len(bp) == 1
        assert fp[0].attrs["engine"] == layer.fp_engine_name
        assert bp[0].attrs["sparsity"] == pytest.approx(0.75)
        total = tel.counters["conv.flops.total"]
        useful = tel.counters["conv.flops.useful"]
        assert total == pytest.approx(2.0 * 4 * layer.padded_spec.flops)
        assert useful == pytest.approx(total * 0.25)
        # Goodput (Eq. 9) and throughput gauges agree with the flop split.
        assert tel.gauges["goodput.c0"] == pytest.approx(
            tel.gauges["throughput.c0"] * 0.25)

    def test_pooled_layer_computes_inline_and_traces_no_pool(self):
        rng_x = np.random.default_rng(2)
        x = rng_x.standard_normal((6,) + SPEC.input_shape).astype(np.float32)
        inline = ConvLayer(SPEC, rng=np.random.default_rng(3))
        pooled = ConvLayer(SPEC, pool=WorkerPool(3),
                           rng=np.random.default_rng(3))
        try:
            with telemetry.collect() as tel:
                out_pooled = pooled.forward(x)
                err = np.sign(out_pooled).astype(np.float32)
                in_error = pooled.backward(err)
            assert out_pooled.tobytes() == inline.forward(x).tobytes()
            assert in_error.tobytes() == inline.backward(err).tobytes()
            assert pooled.d_weights.tobytes() == inline.d_weights.tobytes()
            # The layer's own spans, and no dispatch: it ran on the caller.
            assert tel.find_spans("c0/fp") and tel.find_spans("c0/bp")
            assert not tel.find_spans("pool/task")
        finally:
            pooled.close()
            inline.close()  # no-op for inline layers


class TestTrainingTelemetry:
    def test_sgd_step_counts_images_and_phases(self):
        net = small_net()
        data = make_dataset(8, 4, (1, 12, 12), seed=0)
        trainer = SGDTrainer(net)
        with telemetry.collect() as tel:
            trainer.step(data.images, data.labels)
        assert tel.counters["images.processed"] == 8
        assert tel.counters["sgd.steps"] == 1
        for name in ("sgd/fp", "sgd/bp", "sgd/update"):
            assert len(tel.find_spans(name)) == 1
        # Layer spans nest inside the sgd phase spans.
        fp = tel.find_spans("sgd/fp")[0]
        conv_fp = tel.find_spans("conv/fp")[0]
        assert conv_fp.parent_id == fp.span_id

    def test_training_loop_epoch_spans_and_gauges(self):
        net = small_net()
        data = make_dataset(8, 4, (1, 12, 12), seed=1)
        loop = TrainingLoop(net, data, batch_size=4)
        with telemetry.collect() as tel:
            loop.run(epochs=2)
        assert len(tel.find_spans("train/epoch")) == 2
        assert tel.counters["train.epochs"] == 2
        assert tel.counters["images.processed"] == 16
        assert "train.loss" in tel.gauges
        assert "train.error_sparsity" in tel.gauges


class TestRetuneTelemetry:
    def test_after_epoch_records_retune_events(self):
        net = build_network(
            {
                "input": [1, 24, 24],
                "layers": [
                    {"type": "conv", "features": 16, "kernel": 5,
                     "name": "convA"},
                    {"type": "relu"},
                    {"type": "flatten"},
                    {"type": "dense", "features": 4},
                ],
            },
            rng=np.random.default_rng(0),
        )
        spg = SpgCNN(net, ModelCostBackend(xeon_e5_2650(), cores=16, batch=64))
        with telemetry.collect() as tel:
            spg.optimize()
            for layer in net.conv_layers():
                layer.last_error_sparsity = 0.95
            events = spg.after_epoch(2)
        assert events
        recorded = [e for e in tel.events if e.name == "retune"]
        assert len(recorded) == len(events)
        assert recorded[0].attrs["layer"] == "convA"
        assert recorded[0].attrs["new_engine"] == events[0].new_engine
        assert tel.counters["retune.count"] == len(events)
        assert tel.counters["retune.checks"] == 1
        assert tel.find_spans("spg/optimize") and tel.find_spans("spg/replan")
