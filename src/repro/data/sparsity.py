"""Error-gradient sparsity measurement and trajectories (paper Fig. 3b).

The paper measures the sparsity of back-propagated activation errors
across training epochs for MNIST, CIFAR and ImageNet-100, finding > 85%
sparsity after the second epoch and a rising trend as the model improves.
The sparsity arises mechanically: max pooling routes each window's
gradient to one element (>= 75% zeros for 2x2 windows) and ReLU zeroes
the gradient wherever activations were clamped.

:func:`measure_sparsity_trajectory` reproduces the measurement by
actually training the small zoo networks on synthetic data and recording
the mean conv-layer error sparsity per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import Dataset
from repro.nn.network import Network
from repro.nn.sgd import SGDTrainer


@dataclass(frozen=True)
class SparsityTrajectory:
    """Per-epoch mean error sparsity of a benchmark's conv layers."""

    benchmark: str
    epochs: tuple[int, ...]
    sparsity: tuple[float, ...]

    def after_epoch(self, epoch: int) -> float:
        """Sparsity recorded after the given 1-based epoch."""
        return self.sparsity[self.epochs.index(epoch)]


def measure_sparsity_trajectory(
    network: Network,
    dataset: Dataset,
    num_epochs: int = 10,
    batch_size: int = 16,
    learning_rate: float = 0.05,
    benchmark: str = "",
) -> SparsityTrajectory:
    """Train ``network`` and record mean conv error sparsity per epoch."""
    trainer = SGDTrainer(network, learning_rate=learning_rate)
    epochs, values = [], []
    for epoch in range(1, num_epochs + 1):
        results = trainer.train_epoch(dataset.images, dataset.labels, batch_size)
        per_step = [
            float(np.mean(list(r.error_sparsities.values())))
            for r in results
            if r.error_sparsities
        ]
        epochs.append(epoch)
        values.append(float(np.mean(per_step)) if per_step else 0.0)
    return SparsityTrajectory(
        benchmark=benchmark or network.name,
        epochs=tuple(epochs),
        sparsity=tuple(values),
    )

