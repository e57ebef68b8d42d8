"""Tests for the training-state file: one writer, one reader, two layouts."""

import json

import numpy as np
import pytest

from repro.errors import ReproError
from repro.nn.netdef import build_network
from repro.nn.serialize import (
    TrainingState,
    load_state,
    save_state,
    state_position,
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


def trained(seed=0):
    from repro.nn.sgd import SGDTrainer

    network = net(seed=seed)
    trainer = SGDTrainer(network, learning_rate=0.05)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=8)
    trainer.step(x, y)  # populates the momentum buffers
    return network, trainer, rng


def rewrite_meta(path, **changes):
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    meta.update(changes)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


class TestFingerprint:
    def test_fingerprint_is_deterministic(self):
        assert structure_fingerprint(net(seed=1)) == structure_fingerprint(
            net(seed=2)
        )

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ReproError, match="not a repro checkpoint"):
            load_state(net(), path)

    def test_path_is_written_and_read_as_given(self, tmp_path):
        network, trainer, rng = trained(seed=1)
        path = save_state(network, tmp_path / "model", TrainingState(),
                          trainer=trainer, rng=rng)
        assert path == tmp_path / "model"
        assert [p.name for p in tmp_path.iterdir()] == ["model"]
        assert load_state(net(seed=2), path).epoch == 1


#: The metadata keys of each layout, exactly as earlier releases wrote them.
BOUNDARY_META = {"format", "epoch", "history"}
MID_EPOCH_META = BOUNDARY_META | {"journal_format", "batches_done", "partial"}


def archive_keys(path):
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        return set(archive.files), set(meta)


class TestLayout:
    def test_epoch_boundary_keeps_the_checkpoint_keys(self, tmp_path):
        network, trainer, rng = trained()
        path = save_state(network, tmp_path / "epoch-0002.npz",
                          TrainingState(epoch=3), trainer=trainer, rng=rng)
        params = {name for name, _, _ in network.parameters()}
        arrays, meta = archive_keys(path)
        assert arrays == params | {"__structure__", "__meta__", "__rng__"} \
            | {"__velocity__." + name for name in params}
        assert meta == BOUNDARY_META
        with np.load(path) as archive:
            stored = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        assert stored["epoch"] == 2  # completed epochs, on disk

    def test_mid_epoch_keeps_the_journal_keys(self, tmp_path):
        network, trainer, rng = trained()
        path = save_state(
            network, tmp_path / "journal.npz",
            TrainingState(epoch=2, batches_done=1, order=np.arange(8)),
            trainer=trainer, rng=rng)
        params = {name for name, _, _ in network.parameters()}
        arrays, meta = archive_keys(path)
        assert arrays == params | {"__structure__", "__meta__", "__rng__",
                                   "__order__"} \
            | {"__velocity__." + name for name in params}
        assert meta == MID_EPOCH_META

    def test_both_layouts_read_with_their_meaning(self, tmp_path):
        # Files as earlier releases wrote them, key by key: a checkpoint
        # counts completed epochs, a journal names the epoch in flight.
        network, _, _ = trained()
        base = {name: param for name, param, _ in network.parameters()}
        base["__structure__"] = np.frombuffer(
            structure_fingerprint(network).encode("utf-8"), dtype=np.uint8)

        def write(name, meta, **extra):
            arrays = dict(base, **extra)
            arrays["__meta__"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.savez(tmp_path / name, **arrays)
            return tmp_path / name

        ckpt = write("epoch-0002.npz",
                     {"format": 1, "epoch": 2, "history": []})
        journal = write(
            "journal.npz",
            {"format": 1, "journal_format": 1, "epoch": 2,
             "batches_done": 3, "history": [], "partial": {"skipped": 3}},
            __order__=np.arange(24, dtype=np.int64))
        assert state_position(ckpt) == (3, 0)
        assert state_position(journal) == (2, 3)
        state = load_state(net(seed=5), ckpt)
        assert (state.epoch, state.batches_done, state.order) == (3, 0, None)
        state = load_state(net(seed=5), journal)
        assert (state.epoch, state.batches_done) == (2, 3)
        np.testing.assert_array_equal(state.order, np.arange(24))
        assert state.partial == {"skipped": 3}


class TestTrainingCheckpoint:
    """The epoch-boundary layout (``order is None``)."""

    def test_roundtrip_restores_everything(self, tmp_path):
        network, trainer, rng = trained(seed=1)
        history = [{"epoch": 1, "train_loss": 1.5}]
        path = save_state(network, tmp_path / "ckpt.npz",
                          TrainingState(epoch=2, history=history),
                          trainer=trainer, rng=rng)
        target, target_trainer, target_rng = trained(seed=2)
        state = load_state(target, path, trainer=target_trainer,
                           rng=target_rng)
        assert (state.epoch, state.batches_done, state.order) == (2, 0, None)
        assert state.history == history
        assert state.partial == {}
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

        network, trainer, rng = trained(seed=1)
        path = save_state(network, tmp_path / "epoch-0001.npz",
                          TrainingState(epoch=2), trainer=trainer, rng=rng)
        before = path.read_bytes()

        def torn_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(serialize.np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_state(network, path, TrainingState(epoch=3),
                       trainer=trainer, rng=rng)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["epoch-0001.npz"]
        assert load_state(net(seed=2), path).epoch == 2

    def test_mutated_network_rejected(self, tmp_path):
        # A checkpoint must not load into a network whose structure
        # changed after the save.
        network, trainer, rng = trained()
        path = save_state(network, tmp_path / "ckpt.npz",
                          TrainingState(epoch=2), trainer=trainer, rng=rng)
        mutated = net(features=8)  # different conv width
        with pytest.raises(ReproError, match="structure"):
            load_state(mutated, path)
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
            load_state(network, path)
        assert state_position(path) is None

    def test_weights_only_checkpoint_loads(self, tmp_path):
        network = net(seed=3)
        path = save_state(network, tmp_path / "bare.npz",
                          TrainingState(epoch=3))
        target, target_trainer, target_rng = trained(seed=4)
        velocity = target_trainer.velocity_state()
        rng_state = target_rng.bit_generator.state
        state = load_state(target, path, trainer=target_trainer,
                           rng=target_rng)
        assert state.epoch == 3
        # No momentum or RNG in the file: both are left as they were.
        for name, vel in target_trainer.velocity_state().items():
            np.testing.assert_array_equal(vel, velocity[name])
        assert target_rng.bit_generator.state == rng_state

    def test_unknown_format_rejected(self, tmp_path):
        path = save_state(net(), tmp_path / "ckpt.npz", TrainingState())
        rewrite_meta(path, format=999)
        with pytest.raises(ReproError, match="format"):
            load_state(net(), path)
        assert state_position(path) is None

    def test_velocity_mismatch_rejected_before_parameters_load(self,
                                                               tmp_path):
        network, trainer, rng = trained(seed=1)
        path = save_state(network, tmp_path / "ckpt.npz", TrainingState(),
                          trainer=trainer, rng=rng)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        key = next(k for k in arrays if k.startswith("__velocity__."))
        arrays[key] = np.zeros(1, dtype=np.float32)
        np.savez(path, **arrays)
        target, target_trainer, _ = trained(seed=2)
        before = [p.copy() for _, p, _ in target.parameters()]
        with pytest.raises(ReproError, match="shape"):
            load_state(target, path, trainer=target_trainer)
        for p1, (_, p2, _) in zip(before, target.parameters()):
            np.testing.assert_array_equal(p1, p2)

    def test_velocity_shape_mismatch_rejected(self):
        from repro.nn.sgd import SGDTrainer

        trainer = SGDTrainer(net())
        with pytest.raises(ReproError, match="unknown parameter"):
            trainer.load_velocity_state({"nope": np.zeros(3)})
        name = next(iter(n for n, _, _ in trainer.network.parameters()))
        with pytest.raises(ReproError, match="shape"):
            trainer.load_velocity_state({name: np.zeros(1)})


class TestBatchJournal:
    """The mid-epoch layout (an order and ``batches_done > 0``)."""

    def _write(self, tmp_path, seed=1):
        network, trainer, rng = trained(seed=seed)
        order = np.random.default_rng(9).permutation(24)
        history = [{"epoch": 1, "train_loss": 1.25}]
        partial = {"losses": [1.5, 1.4], "sizes": [8, 8], "skipped": 0}
        path = save_state(
            network, tmp_path / "journal.npz",
            TrainingState(epoch=2, batches_done=2, order=order,
                          history=history, partial=partial),
            trainer=trainer, rng=rng,
        )
        return network, trainer, rng, order, history, partial, path

    def test_roundtrip_restores_everything(self, tmp_path):
        network, trainer, rng, order, history, partial, path = \
            self._write(tmp_path)
        target, target_trainer, target_rng = trained(seed=2)
        state = load_state(target, path, trainer=target_trainer,
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

    def test_state_position_peeks_metadata_without_a_network(
            self, tmp_path):
        *_, path = self._write(tmp_path)
        assert state_position(path) == (2, 2)
        ckpt = save_state(net(), tmp_path / "epoch-0001.npz",
                          TrainingState(epoch=2))
        assert state_position(ckpt) == (2, 0)

    def test_state_position_is_none_for_unreadable_files(self, tmp_path):
        assert state_position(tmp_path / "missing.npz") is None
        torn = tmp_path / "torn.npz"
        torn.write_bytes(b"\x00\x01garbage")
        assert state_position(torn) is None
        *_, path = self._write(tmp_path)
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert state_position(truncated) is None
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, stuff=np.zeros(3))
        assert state_position(foreign) is None

    def test_unknown_journal_format_rejected(self, tmp_path):
        *_, path = self._write(tmp_path)
        rewrite_meta(path, journal_format=999)
        with pytest.raises(ReproError, match="journal format"):
            load_state(net(), path)
        assert state_position(path) is None

    def test_mismatched_structure_rejected(self, tmp_path):
        *_, path = self._write(tmp_path)
        with pytest.raises(ReproError, match="structure"):
            load_state(net(features=8), path)

    def test_invalid_positions_rejected(self, tmp_path):
        network, _, _ = trained()
        with pytest.raises(ReproError, match="epoch"):
            save_state(network, tmp_path / "j.npz", TrainingState(epoch=0))
        with pytest.raises(ReproError, match="batches_done"):
            save_state(network, tmp_path / "j.npz",
                       TrainingState(batches_done=-1))
        # An order exactly when batches are done: the layout follows it.
        with pytest.raises(ReproError, match="order"):
            save_state(network, tmp_path / "j.npz",
                       TrainingState(batches_done=2))
        with pytest.raises(ReproError, match="order"):
            save_state(network, tmp_path / "j.npz",
                       TrainingState(order=np.arange(4)))
        assert list(tmp_path.iterdir()) == []
