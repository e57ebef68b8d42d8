"""Tests for the full training loop."""

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.errors import ReproError
from repro.nn.netdef import build_network
from repro.nn.training_loop import TrainingHistory, TrainingLoop


def net(seed=0):
    return build_network(
        {
            "input": [1, 10, 10],
            "layers": [
                {"type": "conv", "features": 6, "kernel": 3},
                {"type": "relu"},
                {"type": "pool", "kernel": 2, "stride": 2},
                {"type": "flatten"},
                {"type": "dense", "features": 4},
            ],
        },
        rng=np.random.default_rng(seed),
    )


@pytest.fixture(scope="module")
def datasets():
    train = make_dataset(48, 4, (1, 10, 10), noise=0.2, seed=0)
    evaluation = make_dataset(16, 4, (1, 10, 10), noise=0.2, seed=1)
    return train, evaluation


class TestTrainingLoop:
    def test_converges_and_records_history(self, datasets):
        train, evaluation = datasets
        loop = TrainingLoop(net(), train, eval_data=evaluation,
                            batch_size=8)
        history = loop.run(epochs=5)
        assert len(history.epochs) == 5
        assert history.improved()
        assert history.final.eval_loss is not None
        # Every epoch trains at the trainer's rate.
        assert {e.learning_rate for e in history.epochs} == {0.01}

    def test_error_sparsity_tracked(self, datasets):
        train, _ = datasets
        history = TrainingLoop(net(), train, batch_size=8).run(epochs=2)
        # ReLU + pooling guarantee high error sparsity at the conv layer.
        assert history.final.mean_error_sparsity > 0.5

    def test_epoch_end_hook_called(self, datasets):
        train, _ = datasets
        calls = []
        TrainingLoop(
            net(), train, batch_size=8,
            epoch_end_hook=lambda epoch, network: calls.append(epoch),
        ).run(epochs=3)
        assert calls == [1, 2, 3]

    def test_spg_hook_integration(self, datasets):
        from repro.machine.cost_backend import ModelCostBackend
        from repro.core.framework import SpgCNN
        from repro.machine.spec import xeon_e5_2650

        train, _ = datasets
        network = net(seed=2)
        spg = SpgCNN(network, ModelCostBackend(xeon_e5_2650(), 16, 64))
        spg.optimize()
        loop = TrainingLoop(
            network, train, batch_size=8,
            epoch_end_hook=lambda epoch, _net: spg.after_epoch(epoch),
        )
        loop.run(epochs=4)
        # Periodic re-tuning ran against measured sparsity.
        assert spg.plan.layers[0].sparsity > 0

    def test_shuffling_changes_batch_order(self, datasets):
        train, _ = datasets
        loop = TrainingLoop(net(), train, batch_size=8, shuffle_seed=7)
        first_epoch = [y.copy() for _, y in loop._epoch_batches()]
        second_epoch = [y.copy() for _, y in loop._epoch_batches()]
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(first_epoch, second_epoch)
        )

    def test_validation(self, datasets):
        train, _ = datasets
        with pytest.raises(ReproError):
            TrainingLoop(net(), train, batch_size=0)
        with pytest.raises(ReproError):
            TrainingLoop(net(), train).run(epochs=0)
        with pytest.raises(ReproError):
            _ = TrainingHistory().final


class TestEpochMetrics:
    def test_means_weighted_by_batch_size(self, datasets, monkeypatch):
        # 48 samples at batch 20 -> batches of 20, 20, 8.  The short
        # final batch must contribute by its size, not equally.
        train, _ = datasets
        loop = TrainingLoop(net(), train, batch_size=20)
        from repro.nn.sgd import StepResult

        canned = iter([
            StepResult(loss=1.0, accuracy=1.0),
            StepResult(loss=1.0, accuracy=1.0),
            StepResult(loss=10.0, accuracy=0.0),  # the 8-sample batch
        ])
        monkeypatch.setattr(loop.trainer, "step",
                            lambda x, y: next(canned))
        history = loop.run(epochs=1)
        want_loss = (1.0 * 20 + 1.0 * 20 + 10.0 * 8) / 48
        want_acc = (1.0 * 20 + 1.0 * 20 + 0.0 * 8) / 48
        assert history.final.train_loss == pytest.approx(want_loss)
        assert history.final.train_accuracy == pytest.approx(want_acc)

    def test_skipped_batches_excluded_from_means(self, datasets, monkeypatch):
        train, _ = datasets
        loop = TrainingLoop(net(), train, batch_size=16)
        from repro.nn.sgd import StepResult

        canned = iter([
            StepResult(loss=2.0, accuracy=0.5),
            StepResult(loss=float("nan"), accuracy=0.0, skipped=True),
            StepResult(loss=4.0, accuracy=0.5),
        ])
        monkeypatch.setattr(loop.trainer, "step",
                            lambda x, y: next(canned))
        history = loop.run(epochs=1)
        assert history.final.skipped_batches == 1
        assert history.final.train_loss == pytest.approx(3.0)


class TestEpochBatches:
    def test_batches_cover_dataset_once_shuffled(self, datasets):
        train, _ = datasets
        loop = TrainingLoop(net(), train, batch_size=8, shuffle_seed=5)
        batches = list(loop._epoch_batches())
        assert sum(len(y) for _, y in batches) == len(train)
        # Same seed, same order as indexing by the raw permutation.
        expected = np.random.default_rng(5).permutation(len(train))
        got = np.concatenate([x for x, _ in batches])
        np.testing.assert_array_equal(got, train.images[expected])

    def test_peak_allocation_stays_batch_sized(self):
        import tracemalloc

        # Big enough that a whole-dataset shuffled copy dwarfs batch
        # copies and interpreter noise.
        train = make_dataset(256, 4, (1, 16, 16), noise=0.2, seed=0)
        loop = TrainingLoop(net(), train, batch_size=8, shuffle_seed=5)
        tracemalloc.start()
        for _ in loop._epoch_batches():
            pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The old implementation copied images[order] + labels[order]
        # up front (>= dataset size); batch-at-a-time stays far below.
        assert peak < train.images.nbytes / 2


class TestCheckpointResume:
    def _loop(self, datasets, tmp_path, *, net_seed=0, shuffle_seed=5,
              checkpoint_dir=None, **kwargs):
        train, evaluation = datasets
        return TrainingLoop(
            net(seed=net_seed), train, eval_data=evaluation, batch_size=8,
            shuffle_seed=shuffle_seed, checkpoint_dir=checkpoint_dir,
            **kwargs,
        )

    @staticmethod
    def _params_bytes(network):
        return b"".join(
            np.ascontiguousarray(p).tobytes()
            for _, p, _ in network.parameters()
        )

    def test_checkpoints_written_every_epoch(self, datasets, tmp_path):
        loop = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path)
        loop.run(epochs=3)
        names = sorted(p.name for p in tmp_path.glob("epoch-*.npz"))
        assert names == ["epoch-0001.npz", "epoch-0002.npz",
                         "epoch-0003.npz"]

    def test_killed_run_resumes_bit_identically(self, datasets, tmp_path):
        # The uninterrupted run.
        full = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path / "a")
        full_history = full.run(epochs=4)
        # The same run killed after epoch 2...
        killed = self._loop(datasets, tmp_path,
                            checkpoint_dir=tmp_path / "b")
        killed.run(epochs=2)
        # ...and resumed in a "fresh process": different init and shuffle
        # seeds, all overwritten by restore().
        resumed = self._loop(datasets, tmp_path, net_seed=99,
                             shuffle_seed=99)
        assert resumed.restore(tmp_path / "b" / "epoch-0002.npz") == (3, 0)
        resumed_history = resumed.run(epochs=4)
        assert self._params_bytes(resumed.network) == \
            self._params_bytes(full.network)
        assert resumed_history.loss_curve() == full_history.loss_curve()
        assert [e.epoch for e in resumed_history.epochs] == [1, 2, 3, 4]

    def test_run_past_completed_epochs_is_noop(self, datasets, tmp_path):
        loop = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path)
        loop.run(epochs=2)
        before = self._params_bytes(loop.network)
        history = loop.run(epochs=2)  # already done
        assert self._params_bytes(loop.network) == before
        assert len(history.epochs) == 2

    def test_checkpoint_path_requires_directory(self, datasets, tmp_path):
        loop = self._loop(datasets, tmp_path)
        with pytest.raises(ReproError):
            loop.checkpoint_path(1)

    def test_restore_rejects_mismatched_network(self, datasets, tmp_path):
        loop = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path)
        loop.run(epochs=1)
        other = TrainingLoop(
            build_network(
                {
                    "input": [1, 10, 10],
                    "layers": [
                        {"type": "conv", "features": 3, "kernel": 3},
                        {"type": "relu"},
                        {"type": "flatten"},
                        {"type": "dense", "features": 4},
                    ],
                },
                rng=np.random.default_rng(0),
            ),
            datasets[0], batch_size=8,
        )
        with pytest.raises(ReproError, match="structure"):
            other.restore(tmp_path / "epoch-0001.npz")


class TestJournalResume:
    """Crash-consistent mid-epoch recovery through the batch journal."""

    def _loop(self, datasets, tmp_path, *, net_seed=0, shuffle_seed=5,
              checkpoint_dir=None, **kwargs):
        train, evaluation = datasets
        return TrainingLoop(
            net(seed=net_seed), train, eval_data=evaluation, batch_size=8,
            shuffle_seed=shuffle_seed, checkpoint_dir=checkpoint_dir,
            **kwargs,
        )

    @staticmethod
    def _params_bytes(network):
        return b"".join(
            np.ascontiguousarray(p).tobytes()
            for _, p, _ in network.parameters()
        )

    def test_journal_requires_checkpoint_dir(self, datasets):
        train, _ = datasets
        with pytest.raises(ReproError, match="checkpoint_dir"):
            TrainingLoop(net(), train, journal_every=1)

    def test_negative_journal_cadence_rejected(self, datasets, tmp_path):
        train, _ = datasets
        with pytest.raises(ReproError, match="journal_every"):
            TrainingLoop(net(), train, checkpoint_dir=tmp_path,
                         journal_every=-1)

    def test_mid_epoch_crash_resumes_bit_identically(self, datasets,
                                                     tmp_path):
        full = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path / "a")
        full_history = full.run(epochs=4)

        crashed = self._loop(datasets, tmp_path,
                             checkpoint_dir=tmp_path / "b",
                             journal_every=1)

        def crash(epoch, batch, result):
            if epoch == 2 and batch == 2:
                raise RuntimeError("simulated crash")

        crashed.add_batch_hook(crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            crashed.run(epochs=4)
        assert crashed.journal_path.exists()

        # A "fresh process": different init and shuffle seeds, so any
        # state not carried by the journal breaks bit-identity.
        resumed = self._loop(datasets, tmp_path, net_seed=99,
                             shuffle_seed=1, checkpoint_dir=tmp_path / "b",
                             journal_every=1)
        assert resumed.resume_latest() == (2, 2)  # epoch 2 was in flight
        resumed_history = resumed.run(epochs=4)
        assert self._params_bytes(resumed.network) == \
            self._params_bytes(full.network)
        assert resumed_history.loss_curve() == full_history.loss_curve()
        assert [e.epoch for e in resumed_history.epochs] == [1, 2, 3, 4]

    def test_epoch_checkpoint_supersedes_journal(self, datasets, tmp_path):
        loop = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path,
                          journal_every=1)
        loop.run(epochs=2)
        # Every epoch ended in a checkpoint, so no journal should remain
        # as a (stale) recovery point.
        assert not loop.journal_path.exists()
        assert (tmp_path / "epoch-0002.npz").exists()

    def test_resume_latest_with_empty_directory_is_a_noop(self, datasets,
                                                          tmp_path):
        loop = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path)
        assert loop.resume_latest() == (1, 0)

    def test_resume_latest_skips_a_torn_journal(self, datasets, tmp_path):
        first = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path)
        first.run(epochs=2)
        (tmp_path / "journal.npz").write_bytes(b"torn")
        resumed = self._loop(datasets, tmp_path, net_seed=7,
                             checkpoint_dir=tmp_path)
        assert resumed.resume_latest() == (3, 0)
        # Recovery reads files; it never deletes or rewrites one.
        assert (tmp_path / "journal.npz").read_bytes() == b"torn"

    def test_stale_journal_loses_to_newer_checkpoint(self, datasets,
                                                     tmp_path):
        crashed = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path,
                             journal_every=1)

        def crash(epoch, batch, result):
            if epoch == 1 and batch == 3:
                raise RuntimeError("boom")

        crashed.add_batch_hook(crash)
        with pytest.raises(RuntimeError):
            crashed.run(epochs=2)
        assert crashed.journal_path.exists()  # epoch-1 journal
        # A later run completed epoch 2 (e.g. recovery happened once
        # already); the old epoch-1 journal must not win.
        finished = self._loop(datasets, tmp_path, checkpoint_dir=tmp_path)
        finished.run(epochs=2)
        resumed = self._loop(datasets, tmp_path, net_seed=3,
                             checkpoint_dir=tmp_path, journal_every=1)
        assert resumed.resume_latest() == (3, 0)
        assert resumed.journal_path.exists()  # left as it was
