"""A full training loop tying the stack together.

:class:`TrainingLoop` runs multi-epoch SGD with the pieces a real
training job uses: shuffling, evaluation on held-out data, and an
epoch-end hook where spg-CNN's periodic re-tuning (Sec. 4.4) plugs in.
It trains at the :class:`~repro.nn.sgd.SGDTrainer`'s default rate.

With a ``checkpoint_dir``, the loop writes a resumable checkpoint after
every epoch -- weights, momentum buffers, epoch history and shuffle-RNG
state (see :mod:`repro.nn.serialize`) -- and
:meth:`restore` brings a fresh loop back to exactly that point: the
resumed run's weights are bit-identical to those of an uninterrupted run
with the same seed.  Batches the SGD trainer skipped for non-finite
loss/gradients are excluded from epoch metrics (and counted in
``EpochRecord.skipped_batches``); the remaining per-batch metrics are
weighted by batch size, so a short final batch no longer skews the epoch
mean.

With ``journal_every > 0`` the loop additionally writes a *batch
journal* (``journal.npz`` next to the checkpoints) every that many
completed batches: weights, momentum, the epoch's shuffled order, the
completed-batch cursor, the RNG cursor and the partial epoch metrics,
fsync'd atomically.  After a mid-epoch kill, :meth:`resume_latest`
restores whichever of (latest checkpoint, journal) is further along and
:meth:`run` replays exactly the remaining batches -- the recovered run's
weights and epoch records are bit-identical to an uninterrupted run.
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
    JournalState,
    load_checkpoint,
    load_journal,
    save_checkpoint,
    save_journal,
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
        # Pending mid-epoch resume state set by restore_journal().
        self._journal_resume: JournalState | None = None

    # -- checkpointing ----------------------------------------------------

    def checkpoint_path(self, epoch: int) -> Path:
        """Where the checkpoint for ``epoch`` lives."""
        if self.checkpoint_dir is None:
            raise ReproError("this loop has no checkpoint_dir configured")
        return self.checkpoint_dir / f"epoch-{epoch:04d}.npz"

    @staticmethod
    def latest_checkpoint(checkpoint_dir: str | Path) -> Path | None:
        """The highest-epoch checkpoint in a directory, or None."""
        paths = sorted(Path(checkpoint_dir).glob("epoch-*.npz"))
        return paths[-1] if paths else None

    def save_checkpoint(self, epoch: int) -> Path:
        """Write the resumable state after ``epoch`` completed epochs."""
        written = save_checkpoint(
            self.network, self.checkpoint_path(epoch),
            epoch=epoch,
            trainer=self.trainer,
            rng=self._shuffle_rng,
            history=[asdict(record) for record in self._history.epochs],
        )
        telemetry.add("train.checkpoints", 1)
        telemetry.event("checkpoint", epoch=epoch, path=str(written))
        return written

    def restore(self, path: str | Path) -> int:
        """Resume from a checkpoint written by :meth:`save_checkpoint`.

        Restores weights, momentum, shuffle-RNG state and the epoch
        history in place; a following :meth:`run` continues from the next
        epoch bit-identically to a run that was never interrupted.
        Returns the number of epochs the checkpoint had completed.
        """
        state = load_checkpoint(
            self.network, path, trainer=self.trainer, rng=self._shuffle_rng
        )
        self._completed_epochs = state.epoch
        self._history = TrainingHistory(
            epochs=[EpochRecord(**record) for record in state.history]
        )
        telemetry.event("resume", epoch=state.epoch, path=str(path))
        return state.epoch

    @property
    def completed_epochs(self) -> int:
        """Epochs finished so far (restored ones included)."""
        return self._completed_epochs

    # -- batch journal (mid-epoch crash recovery) -------------------------

    @property
    def journal_path(self) -> Path:
        """Where this loop's batch journal lives."""
        if self.checkpoint_dir is None:
            raise ReproError("this loop has no checkpoint_dir configured")
        return self.checkpoint_dir / "journal.npz"

    def _write_journal(self, epoch: int, order: np.ndarray,
                       batches_done: int, losses: list, accuracies: list,
                       sparsities: list, sizes: list, skipped: int) -> None:
        partial = {
            "losses": [float(x) for x in losses],
            "accuracies": [float(x) for x in accuracies],
            "sparsities": [float(x) for x in sparsities],
            "sizes": [int(x) for x in sizes],
            "skipped": int(skipped),
        }
        save_journal(
            self.network, self.journal_path,
            epoch=epoch, batches_done=batches_done, order=order,
            trainer=self.trainer, rng=self._shuffle_rng,
            history=[asdict(record) for record in self._history.epochs],
            partial=partial,
        )
        telemetry.add("train.journal_writes", 1)

    def restore_journal(self, path: str | Path) -> tuple[int, int]:
        """Resume mid-epoch from a batch journal.

        Restores weights, momentum and RNG in place and arms the next
        :meth:`run` to replay exactly the remaining batches of the
        journaled epoch (using the journal's stored permutation -- it is
        never re-drawn).  Returns ``(epoch, batches_done)``.
        """
        state = load_journal(
            self.network, path, trainer=self.trainer, rng=self._shuffle_rng
        )
        self._completed_epochs = state.epoch - 1
        self._history = TrainingHistory(
            epochs=[EpochRecord(**record) for record in state.history]
        )
        self._journal_resume = state
        telemetry.event("resume_journal", epoch=state.epoch,
                        batches_done=state.batches_done, path=str(path))
        return state.epoch, state.batches_done

    def resume_latest(self) -> int:
        """Restore the furthest recovery point in ``checkpoint_dir``.

        Prefers the batch journal when its in-progress epoch is ahead of
        the newest epoch checkpoint (the crash happened mid-epoch after
        the checkpoint); otherwise restores the checkpoint and discards
        the stale journal.  A no-op (returning 0) when the directory has
        neither.  Returns the completed-epoch count restored to.
        """
        if self.checkpoint_dir is None:
            raise ReproError("this loop has no checkpoint_dir configured")
        ckpt = self.latest_checkpoint(self.checkpoint_dir)
        ckpt_epoch = 0
        if ckpt is not None:
            try:
                ckpt_epoch = int(ckpt.stem.split("-")[1])
            except (IndexError, ValueError):  # pragma: no cover - foreign file
                ckpt_epoch = 0
        journal = self.journal_path
        if journal.exists():
            try:
                journal_epoch, _ = self.restore_journal(journal)
                if journal_epoch > ckpt_epoch:
                    return self._completed_epochs
            except Exception:
                # Torn or foreign journal: fall back to the checkpoint.
                pass
            self._journal_resume = None
            journal.unlink(missing_ok=True)
        if ckpt is not None:
            return self.restore(ckpt)
        return self._completed_epochs

    # -- observer hooks ---------------------------------------------------

    def add_batch_hook(
        self, hook: Callable[[int, int, StepResult], None]
    ) -> None:
        """Call ``hook(epoch, batch_index, result)`` after every SGD step.

        Skipped (non-finite) batches are reported too, flagged on the
        :class:`~repro.nn.sgd.StepResult`.  Hooks are observers: they run
        inside the epoch and must not mutate the network.
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
        # ``start_batch`` skips batches a journal already replayed.
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
        included: after ``restore`` of an epoch-2 checkpoint, ``run(3)``
        trains exactly one more epoch.  Returns the full metric history
        (restored epochs included); calling with ``epochs`` already
        completed is a no-op.
        """
        if epochs <= 0:
            raise ReproError(f"epochs must be positive, got {epochs}")
        history = self._history
        for epoch in range(self._completed_epochs + 1, epochs + 1):
            resume = self._journal_resume
            self._journal_resume = None
            if resume is not None and resume.epoch == epoch:
                # Mid-epoch recovery: replay the journaled permutation
                # from the completed-batch cursor; the partial metrics
                # seed the epoch's accumulators so its final record is
                # identical to the uninterrupted run's.
                order = resume.order
                start_batch = resume.batches_done
                partial = resume.partial
                losses = [float(x) for x in partial.get("losses", [])]
                accuracies = [float(x) for x in partial.get("accuracies", [])]
                sparsities = [float(x) for x in partial.get("sparsities", [])]
                sizes = [int(x) for x in partial.get("sizes", [])]
                skipped = int(partial.get("skipped", 0))
            else:
                order = self._shuffle_rng.permutation(len(self.train_data))
                start_batch = 0
                losses, accuracies, sparsities, sizes = [], [], [], []
                skipped = 0
            batches_done = start_batch
            with telemetry.span("train/epoch", epoch=epoch):
                for batch_x, batch_y in self._epoch_batches(order,
                                                            start_batch):
                    result = self.trainer.step(batch_x, batch_y)
                    for hook in self._batch_hooks:
                        hook(epoch, len(sizes) + skipped, result)
                    if result.skipped:
                        skipped += 1
                    else:
                        losses.append(result.loss)
                        accuracies.append(result.accuracy)
                        sizes.append(len(batch_x))
                        if result.error_sparsities:
                            sparsities.append(
                                float(np.mean(
                                    list(result.error_sparsities.values())
                                ))
                            )
                    batches_done += 1
                    if (self.journal_every
                            and batches_done % self.journal_every == 0):
                        self._write_journal(
                            epoch, order, batches_done, losses,
                            accuracies, sparsities, sizes, skipped,
                        )
                eval_loss = eval_acc = None
                if self.eval_data is not None:
                    with telemetry.span("train/eval", epoch=epoch):
                        eval_loss, eval_acc = self.trainer.evaluate(
                            self.eval_data.images, self.eval_data.labels
                        )
            # Batch-size-weighted means: a short final batch contributes
            # in proportion to the images it actually held.
            train_loss = (
                float(np.average(losses, weights=sizes))
                if losses else float("nan")
            )
            train_acc = (
                float(np.average(accuracies, weights=sizes))
                if accuracies else float("nan")
            )
            telemetry.add("train.epochs", 1)
            telemetry.gauge("train.loss", train_loss)
            telemetry.gauge(
                "train.error_sparsity",
                float(np.mean(sparsities)) if sparsities else 0.0,
            )
            history.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    train_accuracy=train_acc,
                    eval_loss=eval_loss,
                    eval_accuracy=eval_acc,
                    learning_rate=self.trainer.learning_rate,
                    mean_error_sparsity=(
                        float(np.mean(sparsities)) if sparsities else 0.0
                    ),
                    skipped_batches=skipped,
                )
            )
            self._completed_epochs = epoch
            if self.epoch_end_hook is not None:
                self.epoch_end_hook(epoch, self.network)
            for hook in self._epoch_hooks:
                hook(epoch, history.epochs[-1])
            if self.checkpoint_dir is not None:
                self.save_checkpoint(epoch)
                if self.journal_every:
                    # The epoch checkpoint supersedes any mid-epoch
                    # journal.
                    self.journal_path.unlink(missing_ok=True)
        return history
