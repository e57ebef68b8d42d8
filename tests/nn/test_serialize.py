"""Tests for training checkpoints and batch journals."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.nn.netdef import build_network
from repro.nn.serialize import (
    load_checkpoint,
    save_checkpoint,
    structure_fingerprint,
)


def net(features=4, seed=0):
    return build_network(
        {
            "input": [1, 8, 8],
            "layers": [
                {"type": "conv", "features": features, "kernel": 3},
                {"type": "relu"},
                {"type": "flatten"},
                {"type": "dense", "features": 3},
            ],
        },
        rng=np.random.default_rng(seed),
    )


class TestFingerprint:
    def test_fingerprint_is_deterministic(self):
        assert structure_fingerprint(net(seed=1)) == structure_fingerprint(
            net(seed=2)
        )

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ReproError, match="not a repro checkpoint"):
            load_checkpoint(net(), path)

    def test_suffix_added_when_missing(self, tmp_path):
        path = save_checkpoint(net(), tmp_path / "model", epoch=1)
        assert path.suffix == ".npz"
        assert path.exists()


class TestTrainingCheckpoint:
    def _trained(self, seed=0):
        from repro.nn.sgd import SGDTrainer

        network = net(seed=seed)
        trainer = SGDTrainer(network, learning_rate=0.05)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8)
        trainer.step(x, y)  # populates the momentum buffers
        return network, trainer, rng

    def test_roundtrip_restores_everything(self, tmp_path):
        network, trainer, rng = self._trained(seed=1)
        history = [{"epoch": 1, "train_loss": 1.5}]
        path = save_checkpoint(network, tmp_path / "ckpt.npz", epoch=1,
                               trainer=trainer, rng=rng, history=history)
        target, target_trainer, target_rng = self._trained(seed=2)
        state = load_checkpoint(target, path, trainer=target_trainer,
                                rng=target_rng)
        assert state.epoch == 1
        assert state.history == history
        assert state.has_velocity and state.has_rng
        for (_, p1, _), (_, p2, _) in zip(network.parameters(),
                                          target.parameters()):
            np.testing.assert_array_equal(p1, p2)
        for name, vel in trainer.velocity_state().items():
            np.testing.assert_array_equal(
                vel, target_trainer.velocity_state()[name]
            )
        # The RNG continues exactly where the source RNG would.
        np.testing.assert_array_equal(target_rng.random(5), rng.random(5))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        # A write that dies part-way (the SIGKILL-inside-np.savez case of
        # the kill-chaos suite) must leave the earlier file loadable and
        # nothing else in the directory for ``epoch-*.npz`` to pick up.
        from repro.nn import serialize

        network, trainer, rng = self._trained(seed=1)
        path = save_checkpoint(network, tmp_path / "epoch-0001.npz", epoch=1,
                               trainer=trainer, rng=rng)
        before = path.read_bytes()

        def torn_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(serialize.np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(network, path, epoch=2, trainer=trainer, rng=rng)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["epoch-0001.npz"]
        assert load_checkpoint(net(seed=2), path).epoch == 1

    def test_mutated_network_rejected(self, tmp_path):
        # Satellite S4: a checkpoint must not load into a network whose
        # structure changed after the save.
        network, trainer, rng = self._trained()
        path = save_checkpoint(network, tmp_path / "ckpt.npz", epoch=1,
                               trainer=trainer, rng=rng)
        mutated = net(features=8)  # different conv width
        with pytest.raises(ReproError, match="structure"):
            load_checkpoint(mutated, path)
        # The mismatch is detected before any parameter is written.
        fresh = net(features=8)
        for (_, p1, _), (_, p2, _) in zip(mutated.parameters(),
                                          fresh.parameters()):
            np.testing.assert_array_equal(p1, p2)

    def test_archive_without_meta_rejected(self, tmp_path):
        network = net()
        path = tmp_path / "params.npz"
        np.savez(path, __structure__=np.frombuffer(
            structure_fingerprint(network).encode("utf-8"), dtype=np.uint8))
        with pytest.raises(ReproError, match="not a training checkpoint"):
            load_checkpoint(network, path)

    def test_weights_only_checkpoint_loads(self, tmp_path):
        network = net(seed=3)
        path = save_checkpoint(network, tmp_path / "bare.npz", epoch=2)
        state = load_checkpoint(net(seed=4), path)
        assert state.epoch == 2
        assert not state.has_velocity and not state.has_rng

    def test_unknown_format_rejected(self, tmp_path):
        import json

        network = net()
        path = save_checkpoint(network, tmp_path / "ckpt.npz")
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["format"] = 999
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ReproError, match="format"):
            load_checkpoint(net(), path)

    def test_negative_epoch_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            save_checkpoint(net(), tmp_path / "x.npz", epoch=-1)

    def test_velocity_shape_mismatch_rejected(self):
        from repro.nn.sgd import SGDTrainer

        trainer = SGDTrainer(net())
        with pytest.raises(ReproError, match="unknown parameter"):
            trainer.load_velocity_state({"nope": np.zeros(3)})
        name = next(iter(n for n, _, _ in trainer.network.parameters()))
        with pytest.raises(ReproError, match="shape"):
            trainer.load_velocity_state({name: np.zeros(1)})


class TestBatchJournal:
    """Mid-epoch crash-recovery journal (save_journal / load_journal)."""

    def _trained(self, seed=0):
        from repro.nn.sgd import SGDTrainer

        network = net(seed=seed)
        trainer = SGDTrainer(network, learning_rate=0.05)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8)
        trainer.step(x, y)
        return network, trainer, rng

    def _write(self, tmp_path, seed=1):
        from repro.nn.serialize import save_journal

        network, trainer, rng = self._trained(seed=seed)
        order = np.random.default_rng(9).permutation(24)
        history = [{"epoch": 1, "train_loss": 1.25}]
        partial = {"losses": [1.5, 1.4], "sizes": [8, 8], "skipped": 0}
        path = save_journal(
            network, tmp_path / "journal.npz", epoch=2, batches_done=2,
            order=order, trainer=trainer, rng=rng, history=history,
            partial=partial,
        )
        return network, trainer, rng, order, history, partial, path

    def test_roundtrip_restores_everything(self, tmp_path):
        from repro.nn.serialize import load_journal

        network, trainer, rng, order, history, partial, path = \
            self._write(tmp_path)
        target, target_trainer, target_rng = self._trained(seed=2)
        state = load_journal(target, path, trainer=target_trainer,
                             rng=target_rng)
        assert state.epoch == 2
        assert state.batches_done == 2
        assert state.history == history
        assert state.partial == partial
        np.testing.assert_array_equal(state.order, order)
        for (_, p1, _), (_, p2, _) in zip(network.parameters(),
                                          target.parameters()):
            np.testing.assert_array_equal(p1, p2)
        for name, vel in trainer.velocity_state().items():
            np.testing.assert_array_equal(
                vel, target_trainer.velocity_state()[name]
            )
        np.testing.assert_array_equal(target_rng.random(5), rng.random(5))

    def test_journal_position_peeks_metadata_without_a_network(
            self, tmp_path):
        from repro.nn.serialize import journal_position

        *_, path = self._write(tmp_path)
        assert journal_position(path) == (2, 2)

    def test_journal_position_is_none_for_non_journals(self, tmp_path):
        from repro.nn.serialize import journal_position

        assert journal_position(tmp_path / "missing.npz") is None
        network, trainer, rng = self._trained()
        ckpt = save_checkpoint(network, tmp_path / "ckpt.npz", epoch=1,
                               trainer=trainer, rng=rng)
        assert journal_position(ckpt) is None
        torn = tmp_path / "torn.npz"
        torn.write_bytes(b"\x00\x01garbage")
        assert journal_position(torn) is None

    def test_checkpoint_rejected_by_load_journal(self, tmp_path):
        from repro.nn.serialize import load_journal

        network, trainer, rng = self._trained()
        ckpt = save_checkpoint(network, tmp_path / "ckpt.npz", epoch=1,
                               trainer=trainer, rng=rng)
        with pytest.raises(ReproError, match="journal"):
            load_journal(net(), ckpt)

    def test_mismatched_structure_rejected(self, tmp_path):
        from repro.nn.serialize import load_journal

        *_, path = self._write(tmp_path)
        with pytest.raises(ReproError, match="structure"):
            load_journal(net(features=8), path)

    def test_invalid_positions_rejected(self, tmp_path):
        from repro.nn.serialize import save_journal

        network, _, _ = self._trained()
        with pytest.raises(ReproError, match="epoch"):
            save_journal(network, tmp_path / "j.npz", epoch=0,
                         batches_done=0, order=np.arange(4))
        with pytest.raises(ReproError, match="batches_done"):
            save_journal(network, tmp_path / "j.npz", epoch=1,
                         batches_done=-1, order=np.arange(4))
