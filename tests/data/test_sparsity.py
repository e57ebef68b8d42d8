"""Tests for the Fig. 3b sparsity measurement and trajectory models."""

import numpy as np
import pytest

from repro.data.sparsity import (
    SparsityTrajectory,
    measure_sparsity_trajectory,
)
from repro.data.synthetic import make_dataset
from repro.nn.zoo import mnist_net


class TestMeasuredTrajectory:
    def test_real_training_produces_high_sparsity(self):
        # Train the (scaled-down) MNIST zoo net on synthetic data and check
        # the measured error sparsity is in the paper's regime.
        net = mnist_net(scale=0.3, rng=np.random.default_rng(0))
        data = make_dataset(48, 10, (1, 28, 28), noise=0.3, seed=0)
        traj = measure_sparsity_trajectory(
            net, data, num_epochs=3, batch_size=16, benchmark="MNIST"
        )
        assert traj.benchmark == "MNIST"
        assert len(traj.sparsity) == 3
        # ReLU + 2x2 pooling force at least ~75% sparsity mechanically.
        assert traj.sparsity[-1] > 0.75

    def test_trajectory_is_recorded_per_epoch(self):
        net = mnist_net(scale=0.2, rng=np.random.default_rng(1))
        data = make_dataset(16, 10, (1, 28, 28), seed=1)
        traj = measure_sparsity_trajectory(net, data, num_epochs=2, batch_size=8)
        assert traj.epochs == (1, 2)


class TestTrajectoryContainer:
    def test_fields(self):
        traj = SparsityTrajectory("b", (1, 2), (0.5, 0.6))
        assert traj.after_epoch(2) == 0.6
        with pytest.raises(ValueError):
            traj.after_epoch(3)
