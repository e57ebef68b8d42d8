"""Tests for the analytical cluster-training model."""

import pytest

from repro.data.tables import benchmark_layers
from repro.machine.cluster_model import (
    ClusterSpec,
    cluster_throughput,
    communication_bound_fraction,
    sync_time,
    worker_throughput,
)
from repro.errors import MachineModelError
from repro.machine.executor import fig9_configs
from repro.machine.spec import xeon_e5_2650

CIFAR = benchmark_layers("cifar-10")
MODEL_BYTES = 500_000  # ~CIFAR model size in float32


def cluster(num_workers=8, bandwidth=1.25e9):
    return ClusterSpec(
        num_workers=num_workers,
        machine=xeon_e5_2650(),
        cores_per_worker=16,
        network_bandwidth=bandwidth,
    )


class TestSyncTime:
    def test_includes_latency_and_transfer(self):
        c = cluster()
        t = sync_time(c, MODEL_BYTES)
        assert t > c.sync_latency
        assert t == pytest.approx(
            c.sync_latency + 2 * MODEL_BYTES / c.network_bandwidth
        )

    def test_rejects_negative_model(self):
        with pytest.raises(MachineModelError):
            sync_time(cluster(), -1)


class TestClusterThroughput:
    def test_scales_with_workers_when_compute_bound(self):
        config = fig9_configs()[0]  # slow CAFFE workers: compute bound
        one = cluster_throughput(CIFAR, config, cluster(1), MODEL_BYTES, 256)
        eight = cluster_throughput(CIFAR, config, cluster(8), MODEL_BYTES, 256)
        assert eight == pytest.approx(8 * one, rel=1e-6)

    def test_spg_workers_yield_faster_clusters(self):
        # The paper's Sec. 6 point: per-worker speedups carry to clusters.
        configs = fig9_configs()
        baseline = cluster_throughput(CIFAR, configs[1], cluster(), MODEL_BYTES, 256)
        optimized = cluster_throughput(CIFAR, configs[4], cluster(), MODEL_BYTES, 256)
        assert optimized > 3 * baseline

    def test_frequent_sync_erodes_throughput(self):
        config = fig9_configs()[4]
        rare = cluster_throughput(CIFAR, config, cluster(), MODEL_BYTES, 1024)
        frequent = cluster_throughput(CIFAR, config, cluster(), MODEL_BYTES, 8)
        assert frequent < rare

    def test_rejects_bad_interval(self):
        with pytest.raises(MachineModelError):
            cluster_throughput(CIFAR, fig9_configs()[0], cluster(), MODEL_BYTES, 0)


class TestCommunicationBound:
    def test_faster_workers_are_more_communication_bound(self):
        # Speeding up compute (spg-CNN) raises the sync duty cycle at a
        # fixed sync interval -- the interaction the paper flags.
        configs = fig9_configs()
        slow = communication_bound_fraction(
            CIFAR, configs[1], cluster(), MODEL_BYTES, 64
        )
        fast = communication_bound_fraction(
            CIFAR, configs[4], cluster(), MODEL_BYTES, 64
        )
        assert fast > slow

    def test_fraction_in_unit_interval(self):
        frac = communication_bound_fraction(
            CIFAR, fig9_configs()[2], cluster(), MODEL_BYTES, 64
        )
        assert 0 < frac < 1

    def test_worker_throughput_matches_fig9_model(self):
        from repro.machine.executor import training_throughput

        config = fig9_configs()[2]
        c = cluster()
        assert worker_throughput(CIFAR, config, c) == pytest.approx(
            training_throughput(CIFAR, config, c.machine, c.cores_per_worker)
        )


class TestClusterSpecValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(MachineModelError):
            ClusterSpec(0, xeon_e5_2650(), 16, 1e9)

    def test_rejects_bad_network(self):
        with pytest.raises(MachineModelError):
            ClusterSpec(2, xeon_e5_2650(), 16, 0.0)
