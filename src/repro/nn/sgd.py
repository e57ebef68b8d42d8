"""Stochastic gradient descent training (paper Sec. 2.1).

One step runs FP to compute the network's output, BP to compute the error
gradients, and applies the (momentum-smoothed) delta weights -- the
standard minibatch SGD loop the paper's platforms (ADAM, CAFFE)
implement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import telemetry
from repro.errors import ReproError
from repro.nn.losses import accuracy, check_labels, softmax_cross_entropy
from repro.nn.network import Network
from repro.resilience import faults
from repro.runtime.heap import pin_malloc_thresholds

if TYPE_CHECKING:  # pragma: no cover - built by Network.step_sharder
    from repro.runtime.parallel import ShardedStep


@dataclass
class StepResult:
    """Loss/accuracy of one SGD step, plus per-layer error sparsity."""

    loss: float
    accuracy: float
    error_sparsities: dict[str, float] = field(default_factory=dict)
    #: True when the batch was dropped by the non-finite guard: its loss
    #: or gradient contained NaN/Inf, so no update was applied.
    skipped: bool = False


#: A trainer's native update before its first update looked for it.
_UNRESOLVED = object()


def momentum_chain(param: np.ndarray, vel: np.ndarray, g: np.ndarray,
                   lr: float, momentum: float, scaled: np.ndarray) -> None:
    """``vel = momentum * vel - lr * g; param += vel`` in place, as numpy
    computes it, ``lr * g`` landing in the ``param``-shaped ``scaled``;
    ``g`` is left as it is.

    The reference of the native update (:mod:`repro.nn.update_c`) and
    the path of every parameter it does not take.  ``g`` is read as
    ``g + 0.0``: that maps ``-0.0`` to ``+0.0`` and leaves every other
    value alone, so a gradient a BLAS call wrote fresh (which may hold a
    ``-0.0``) updates exactly as one accumulated into a zeroed buffer.
    """
    np.add(g, 0.0, out=scaled)
    scaled *= lr
    vel *= momentum
    vel -= scaled
    param += vel


class SGDTrainer:
    """Minibatch SGD with momentum."""

    def __init__(self, network: Network, learning_rate: float = 0.01,
                 momentum: float = 0.9):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.network = network
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: dict[str, np.ndarray] = {}
        # The chain's ``lr * g``, one parameter at a time.
        self._scratch = np.empty(0, dtype=np.float32)
        # The native update (repro.nn.update_c), resolved at the first
        # update: None where no unit could be built.
        self._unit: Any = _UNRESOLVED
        # A step's megabyte-sized temporaries must come from a heap
        # that keeps its pages (see ``runtime.heap``).
        pin_malloc_thresholds()

    def step(self, inputs: np.ndarray, labels: np.ndarray) -> StepResult:
        """One FP + BP + update pass over a minibatch.

        A batch whose loss or loss gradient is non-finite (a poisoned
        input, an overflowed activation, an injected NaN) is *skipped*:
        no BP, no parameter update, and the returned result is flagged so
        the caller can exclude it from epoch metrics.  One bad batch must
        not destroy the model.
        """
        net = self.network
        sharder = net.step_sharder()
        if sharder is not None:
            return self._sharded_step(sharder, inputs, labels)
        net.zero_grads()
        with telemetry.span("sgd/fp", batch=int(inputs.shape[0])):
            logits = net.forward(inputs, training=True)
        loss, grad = softmax_cross_entropy(logits, labels)
        grad = faults.corrupt_array("sgd.gradient", grad)
        if not (np.isfinite(loss) and np.isfinite(grad).all()):
            return self._skipped(loss, logits, labels)
        with telemetry.span("sgd/bp", batch=int(inputs.shape[0])):
            net.backward(grad, need_input_error=False)
        return self._update(loss, logits, labels)

    def _sharded_step(self, sharder: ShardedStep, inputs: np.ndarray,
                      labels: np.ndarray) -> StepResult:
        """The step of a pooled network: one FP+BP shard per worker.

        The workers ran BP before the loss is known here, so the guard
        decides whether to *adopt* it: a non-finite loss, loss gradient
        (the ``sgd.gradient`` site poisons it on cue) or reduced
        parameter gradient skips the batch with parameters and momentum
        untouched.  The site therefore only gates here: a corruption
        that stays finite is not back-propagated, as it is inline.
        """
        check_labels(labels, int(inputs.shape[0]),
                     self.network.output_shape[0])
        logits = sharder.run(inputs, labels)
        loss, grad = softmax_cross_entropy(logits, labels)
        grad = faults.corrupt_array("sgd.gradient", grad)
        if not (np.isfinite(loss) and np.isfinite(grad).all()
                and sharder.reduce()):
            return self._skipped(loss, logits, labels)
        return self._update(loss, logits, labels)

    def _skipped(self, loss: float, logits: np.ndarray,
                 labels: np.ndarray) -> StepResult:
        telemetry.add("sgd.skipped_batches", 1)
        telemetry.event("sgd.nonfinite_batch", batch=int(labels.shape[0]),
                        loss=float(loss))
        return StepResult(
            loss=float(loss),
            accuracy=accuracy(logits, labels),
            error_sparsities=self.network.error_sparsities(),
            skipped=True,
        )

    def _update(self, loss: float, logits: np.ndarray,
                labels: np.ndarray) -> StepResult:
        net = self.network
        lr, momentum = self.learning_rate, self.momentum
        with telemetry.span("sgd/update"):
            unit = self._native_update()
            for name, param, g in net.parameters():
                vel = self._velocity.get(name)
                if vel is None:
                    vel = np.zeros_like(param)
                    self._velocity[name] = vel
                if unit is None or not unit.update(param, vel, g, lr,
                                                   momentum):
                    momentum_chain(param, vel, g, lr, momentum,
                                   self._scratch_like(param))
        telemetry.add("images.processed", int(labels.shape[0]))
        telemetry.add("sgd.steps", 1)
        return StepResult(
            loss=loss,
            accuracy=accuracy(logits, labels),
            error_sparsities=net.error_sparsities(),
        )

    def _native_update(self) -> Any:
        """The update unit, built or fetched at the first update of
        this trainer; ``None`` -- every parameter takes the chain --
        where none could be built, or where a coefficient is no Python
        number (numpy would then compute the chain in its precision)."""
        if self._unit is _UNRESOLVED:
            self._unit = None
            if all(type(c) in (int, float)
                   for c in (self.learning_rate, self.momentum)):
                from repro import native
                from repro.nn.update_c import load_update_kernels

                self._unit = native.kernels_for(load_update_kernels)[0]
        return self._unit

    def _scratch_like(self, param: np.ndarray) -> np.ndarray:
        """A ``param``-shaped view of the update scratch, grown on demand."""
        if self._scratch.size < param.size or self._scratch.dtype != param.dtype:
            self._scratch = np.empty(param.size, dtype=param.dtype)
        return self._scratch[: param.size].reshape(param.shape)

    # -- optimizer state (checkpointing) ---------------------------------

    def velocity_state(self) -> dict[str, np.ndarray]:
        """Copies of the momentum buffers, keyed by parameter name."""
        return {name: vel.copy() for name, vel in self._velocity.items()}

    def load_velocity_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore momentum buffers saved by :meth:`velocity_state`.

        Buffers must match the shapes of the network's parameters; extra
        names are rejected so a checkpoint cannot silently smuggle in
        state for a different architecture.
        """
        shapes = {name: param.shape for name, param, _ in self.network.parameters()}
        for name, vel in state.items():
            if name not in shapes:
                raise ReproError(f"velocity for unknown parameter {name!r}")
            if vel.shape != shapes[name]:
                raise ReproError(
                    f"velocity shape {vel.shape} != parameter shape "
                    f"{shapes[name]} for {name!r}"
                )
        self._velocity = {name: vel.copy() for name, vel in state.items()}

    def train_epoch(
        self, images: np.ndarray, labels: np.ndarray, batch_size: int
    ) -> list[StepResult]:
        """Train over one pass of the dataset in order; returns step results."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        results = []
        for lo in range(0, len(images), batch_size):
            batch_x = images[lo : lo + batch_size]
            batch_y = labels[lo : lo + batch_size]
            if len(batch_x) == 0:
                break
            results.append(self.step(batch_x, batch_y))
        return results

    def evaluate(self, images: np.ndarray, labels: np.ndarray,
                 batch_size: int = 64) -> tuple[float, float]:
        """Mean loss and accuracy without updating parameters."""
        losses, correct, seen = [], 0.0, 0
        for lo in range(0, len(images), batch_size):
            batch_x = images[lo : lo + batch_size]
            batch_y = labels[lo : lo + batch_size]
            logits = self.network.forward(batch_x, training=False)
            loss, _ = softmax_cross_entropy(logits, batch_y)
            losses.append(loss * len(batch_x))
            correct += accuracy(logits, batch_y) * len(batch_x)
            seen += len(batch_x)
        if seen == 0:
            return 0.0, 0.0
        return sum(losses) / seen, correct / seen
