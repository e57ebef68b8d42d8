"""A full training loop tying the stack together.

:class:`TrainingLoop` runs multi-epoch SGD with the pieces a real
training job uses: shuffling, evaluation on held-out data, and an
epoch-end hook where spg-CNN's periodic re-tuning (Sec. 4.4) plugs in.
It trains at the :class:`~repro.nn.sgd.SGDTrainer`'s default rate.
Batches the SGD trainer skipped for non-finite loss/gradients are
excluded from epoch metrics (and counted in
``EpochRecord.skipped_batches``); the remaining per-batch metrics are
weighted by batch size, so a short final batch does not skew the epoch
mean.

With a ``checkpoint_dir``, one writer saves the loop's
:class:`~repro.nn.serialize.TrainingState` -- weights, momentum
buffers, epoch history, shuffle-RNG state and, mid-epoch, the epoch's
order and :class:`EpochProgress` -- to ``epoch-NNNN.npz`` after every
epoch and, with ``journal_every > 0``, to ``journal.npz`` every that
many completed batches (the epoch file supersedes and removes the
journal).  :meth:`restore` brings a fresh loop back to either kind of
file and :meth:`resume_latest` to the one furthest along; a following
:meth:`run` replays exactly the remaining batches, and the recovered
run's weights and epoch records are bit-identical to an uninterrupted
run's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry
from repro.data.synthetic import Dataset
from repro.errors import ReproError
from repro.nn.network import Network
from repro.nn.serialize import (
    TrainingState,
    load_state,
    save_state,
    state_position,
)
from repro.nn.sgd import SGDTrainer, StepResult


@dataclass
class EpochRecord:
    """Metrics of one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    eval_loss: float | None
    eval_accuracy: float | None
    learning_rate: float
    mean_error_sparsity: float
    #: Batches dropped by the non-finite guard this epoch.
    skipped_batches: int = 0


@dataclass
class EpochProgress:
    """The running metrics of the epoch in flight.

    Stored as a mid-epoch state's ``partial`` (these field names are its
    JSON keys), so a resumed epoch ends in the uninterrupted record.
    """

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    sparsities: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    skipped: int = 0

    @property
    def batches(self) -> int:
        """Batches of the epoch applied (or skipped) so far."""
        return len(self.sizes) + self.skipped

    def add(self, result: StepResult, size: int) -> None:
        if result.skipped:
            self.skipped += 1
            return
        self.losses.append(float(result.loss))
        self.accuracies.append(float(result.accuracy))
        self.sizes.append(size)
        if result.error_sparsities:
            self.sparsities.append(
                float(np.mean(list(result.error_sparsities.values())))
            )

    def mean_sparsity(self) -> float:
        return float(np.mean(self.sparsities)) if self.sparsities else 0.0

    def mean(self, values: list[float]) -> float:
        """Batch-size-weighted mean: a short final batch contributes in
        proportion to the images it actually held."""
        if not values:
            return float("nan")
        return float(np.average(values, weights=self.sizes))


@dataclass
class TrainingHistory:
    """All epoch records of one run."""

    epochs: list[EpochRecord] = field(default_factory=list)

    @property
    def final(self) -> EpochRecord:
        if not self.epochs:
            raise ReproError("empty training history")
        return self.epochs[-1]

    def loss_curve(self) -> list[float]:
        return [e.train_loss for e in self.epochs]

    def improved(self) -> bool:
        """True when the final train loss beat the first epoch's."""
        if len(self.epochs) < 2:
            return False
        return self.epochs[-1].train_loss < self.epochs[0].train_loss


class TrainingLoop:
    """Multi-epoch training with evaluation, checkpoints and hooks."""

    def __init__(
        self,
        network: Network,
        train_data: Dataset,
        eval_data: Dataset | None = None,
        batch_size: int = 16,
        momentum: float = 0.9,
        epoch_end_hook: Callable[[int, Network], None] | None = None,
        shuffle_seed: int = 0,
        preflight: bool = True,
        checkpoint_dir: str | Path | None = None,
        journal_every: int = 0,
        scheduler: str | None = None,
    ):
        if batch_size <= 0:
            raise ReproError(f"batch_size must be positive, got {batch_size}")
        if journal_every < 0:
            raise ReproError(
                f"journal_every must be non-negative, got {journal_every}"
            )
        if journal_every > 0 and checkpoint_dir is None:
            raise ReproError(
                "journal_every needs a checkpoint_dir to write the "
                "journal into"
            )
        self.network = network
        if scheduler is not None:
            # Step-execution strategy ("barrier" | "dag"); set before
            # preflight so the probe exercises the path training uses.
            network.set_scheduler(scheduler)
        if preflight:
            # Fail fast on graph errors (shape/dtype inconsistencies)
            # before the first batch; see repro.check.graph.
            from repro.check.graph import preflight_network

            preflight_network(network)
            if getattr(network, "scheduler", "barrier") == "dag":
                # The task-graph runtime replaces per-layer barriers
                # with declared happens-before edges; prove the compiled
                # FP/BP graphs race-free before trusting them with
                # training state.  See repro.check.effects.
                from repro.check.effects import preflight_dag

                preflight_dag(network, batch_size)
        self.train_data = train_data
        self.eval_data = eval_data
        self.batch_size = batch_size
        self.trainer = SGDTrainer(network, momentum=momentum)
        self.epoch_end_hook = epoch_end_hook
        # Observer hooks (see add_batch_hook / add_epoch_hook): unlike
        # epoch_end_hook they must not mutate the network -- the monitor
        # uses them to watch a run without perturbing it.
        self._batch_hooks: list[Callable[[int, int, "StepResult"], None]] = []
        self._epoch_hooks: list[Callable[[int, EpochRecord], None]] = []
        self._shuffle_rng = np.random.default_rng(shuffle_seed)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.journal_every = journal_every
        self._completed_epochs = 0
        self._history = TrainingHistory()
        # The epoch in flight: its order (None until drawn) and metrics.
        self._order: np.ndarray | None = None
        self._progress = EpochProgress()

    # -- training state ---------------------------------------------------

    def checkpoint_path(self, epoch: int) -> Path:
        """Where the state after ``epoch`` completed epochs lives."""
        if self.checkpoint_dir is None:
            raise ReproError("this loop has no checkpoint_dir configured")
        return self.checkpoint_dir / f"epoch-{epoch:04d}.npz"

    @property
    def journal_path(self) -> Path:
        """Where this loop's mid-epoch state lives."""
        if self.checkpoint_dir is None:
            raise ReproError("this loop has no checkpoint_dir configured")
        return self.checkpoint_dir / "journal.npz"

    @property
    def position(self) -> tuple[int, int]:
        """``(epoch, batches_done)``: where the next :meth:`run` starts."""
        return self._completed_epochs + 1, self._progress.batches

    def _save_state(self, path: Path) -> None:
        epoch, batches_done = self.position
        state = TrainingState(
            epoch=epoch,
            batches_done=batches_done,
            order=self._order,
            history=[asdict(record) for record in self._history.epochs],
            partial=asdict(self._progress),
        )
        save_state(self.network, path, state, trainer=self.trainer,
                   rng=self._shuffle_rng)
        if self._order is not None:
            telemetry.add("train.journal_writes", 1)
        else:
            telemetry.add("train.checkpoints", 1)
            telemetry.event("checkpoint", epoch=epoch - 1, path=str(path))

    def restore(self, path: str | Path) -> tuple[int, int]:
        """Resume from a state file of either kind.

        Restores weights, momentum, shuffle-RNG state and the epoch
        history in place and replaces the whole resume state: a
        mid-epoch file arms the next :meth:`run` to replay exactly the
        remaining batches of its stored order, an epoch-boundary file
        clears any replay armed before.  The resumed run is
        bit-identical to one that was never interrupted.  Returns the
        restored position ``(epoch, batches_done)``.
        """
        state = load_state(
            self.network, path, trainer=self.trainer, rng=self._shuffle_rng
        )
        progress = EpochProgress(**state.partial)
        if progress.batches != state.batches_done:
            raise ReproError(
                f"{path}: partial metrics cover {progress.batches} batches, "
                f"batches_done says {state.batches_done}"
            )
        self._completed_epochs = state.epoch - 1
        self._order = state.order
        self._progress = progress
        self._history = TrainingHistory(
            epochs=[EpochRecord(**record) for record in state.history]
        )
        telemetry.event("resume", epoch=state.epoch,
                        batches_done=state.batches_done, path=str(path))
        return self.position

    def resume_latest(self) -> tuple[int, int]:
        """Restore the furthest state file in ``checkpoint_dir``.

        Considers every ``epoch-*.npz`` and ``journal.npz``, skips files
        whose metadata cannot be read, and restores the one with the
        furthest ``(epoch, batches_done)``; no file is deleted or
        modified.  With none, a no-op.  Returns the loop's position.
        """
        if self.checkpoint_dir is None:
            raise ReproError("this loop has no checkpoint_dir configured")
        candidates = [*self.checkpoint_dir.glob("epoch-*.npz"),
                      self.journal_path]
        positioned = [(position, path) for path in candidates
                      if (position := state_position(path)) is not None]
        if not positioned:
            return self.position
        return self.restore(max(positioned)[1])

    # -- observer hooks ---------------------------------------------------

    def add_batch_hook(
        self, hook: Callable[[int, int, StepResult], None]
    ) -> None:
        """Call ``hook(epoch, batch_index, result)`` after every SGD step.

        Skipped (non-finite) batches are reported too, flagged on the
        :class:`~repro.nn.sgd.StepResult`.  Hooks run inside the epoch,
        between two steps: they may swap a layer's engine (as
        :meth:`repro.core.framework.SpgCNN.after_batch` does) but must not
        change the network's parameters or its layers.
        """
        self._batch_hooks.append(hook)

    def add_epoch_hook(
        self, hook: Callable[[int, EpochRecord], None]
    ) -> None:
        """Call ``hook(epoch, record)`` after each epoch's record is final.

        Fires after ``epoch_end_hook`` (so re-tuning decisions made there
        are visible) and before the epoch's checkpoint is written.
        """
        self._epoch_hooks.append(hook)

    def _epoch_batches(self, order: np.ndarray | None = None,
                       start_batch: int = 0):
        # Fancy-index one batch at a time: materializing the whole
        # shuffled dataset up front (images[order]) doubles peak memory
        # and copies every image before the first batch even runs.
        # ``start_batch`` skips batches a mid-epoch state already applied.
        if order is None:
            order = self._shuffle_rng.permutation(len(self.train_data))
        images = self.train_data.images
        labels = self.train_data.labels
        for lo in range(start_batch * self.batch_size, len(order),
                        self.batch_size):
            idx = order[lo : lo + self.batch_size]
            yield images[idx], labels[idx]

    def run(self, epochs: int) -> TrainingHistory:
        """Train until ``epochs`` total epochs are complete.

        ``epochs`` counts from the start of the run, restored epochs
        included: after ``restore`` of ``epoch-0002.npz``, ``run(3)``
        trains exactly one more epoch, and after ``restore`` of a
        mid-epoch file it first finishes that file's epoch.  Returns the
        full metric history (restored epochs included); calling with
        ``epochs`` already completed is a no-op.
        """
        if epochs <= 0:
            raise ReproError(f"epochs must be positive, got {epochs}")
        history = self._history
        for epoch in range(self._completed_epochs + 1, epochs + 1):
            if self._order is None:
                self._order = self._shuffle_rng.permutation(
                    len(self.train_data)
                )
            progress = self._progress
            with telemetry.span("train/epoch", epoch=epoch):
                for batch_x, batch_y in self._epoch_batches(
                        self._order, progress.batches):
                    result = self.trainer.step(batch_x, batch_y)
                    for hook in self._batch_hooks:
                        hook(epoch, progress.batches, result)
                    progress.add(result, len(batch_x))
                    if (self.journal_every
                            and progress.batches % self.journal_every == 0):
                        self._save_state(self.journal_path)
                eval_loss = eval_acc = None
                if self.eval_data is not None:
                    with telemetry.span("train/eval", epoch=epoch):
                        eval_loss, eval_acc = self.trainer.evaluate(
                            self.eval_data.images, self.eval_data.labels
                        )
            train_loss = progress.mean(progress.losses)
            telemetry.add("train.epochs", 1)
            telemetry.gauge("train.loss", train_loss)
            telemetry.gauge("train.error_sparsity", progress.mean_sparsity())
            history.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    train_accuracy=progress.mean(progress.accuracies),
                    eval_loss=eval_loss,
                    eval_accuracy=eval_acc,
                    learning_rate=self.trainer.learning_rate,
                    mean_error_sparsity=progress.mean_sparsity(),
                    skipped_batches=progress.skipped,
                )
            )
            self._completed_epochs = epoch
            self._order = None
            self._progress = EpochProgress()
            if self.epoch_end_hook is not None:
                self.epoch_end_hook(epoch, self.network)
            for hook in self._epoch_hooks:
                hook(epoch, history.epochs[-1])
            if self.checkpoint_dir is not None:
                self._save_state(self.checkpoint_path(epoch))
                if self.journal_every:
                    # The epoch file supersedes the mid-epoch one.
                    self.journal_path.unlink(missing_ok=True)
        return history
