"""Resume from every recovery point a stopped run leaves behind.

A 2-epoch run (4 batches an epoch, a mid-epoch state after every batch)
is stopped after each of its batches in turn.  Every state file the
stopped run left -- ``epoch-0001.npz``, ``journal.npz`` or both -- must
resume, through :meth:`TrainingLoop.restore` and through
:meth:`TrainingLoop.resume_latest`, to the uninterrupted run's parameter
bytes and epoch records.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.data.synthetic import mnist_like
from repro.errors import ReproError
from repro.nn.serialize import state_position
from repro.nn.training_loop import TrainingLoop
from repro.nn.zoo import cifar10_net, mnist_net

EPOCHS = 2
BATCH = 8
SAMPLES = 32
BATCHES_PER_EPOCH = SAMPLES // BATCH


class _Stop(Exception):
    pass


def _loop(checkpoint_dir=None, *, seed=0, journal_every=0, threads=None,
          backend="serial"):
    network = mnist_net(scale=0.25, rng=np.random.default_rng(seed),
                        threads=threads, backend=backend)
    return TrainingLoop(network, mnist_like(SAMPLES, seed=0),
                        batch_size=BATCH, shuffle_seed=seed,
                        checkpoint_dir=checkpoint_dir,
                        journal_every=journal_every)


def _close(loop):
    for layer in loop.network.conv_layers():
        layer.close()


def _params_bytes(network):
    return b"".join(np.ascontiguousarray(p).tobytes()
                    for _, p, _ in network.parameters())


def _outcome(loop, history):
    return _params_bytes(loop.network), [asdict(e) for e in history.epochs]


def _stopped(directory, after, **kwargs):
    """Run until ``after`` batches of the whole run are applied, then stop
    (the next step runs, but neither counts nor is saved)."""
    loop = _loop(directory, journal_every=1, **kwargs)

    def stop(epoch, batch, result):
        if (epoch - 1) * BATCHES_PER_EPOCH + batch == after:
            raise _Stop

    loop.add_batch_hook(stop)
    with pytest.raises(_Stop):
        loop.run(EPOCHS)
    _close(loop)


def _resumed(directory, path=None, **kwargs):
    """A fresh loop (other init and shuffle seeds: only the file's state
    may carry over) resumed from ``path``, or the furthest file."""
    loop = _loop(directory, seed=99, **kwargs)
    if path is None:
        loop.resume_latest()
    else:
        loop.restore(path)
    history = loop.run(EPOCHS)
    _close(loop)
    return _outcome(loop, history)


@pytest.fixture(scope="module")
def uninterrupted():
    loop = _loop()
    history = loop.run(EPOCHS)
    _close(loop)
    return _outcome(loop, history)


@pytest.mark.parametrize("after", range(1, EPOCHS * BATCHES_PER_EPOCH))
def test_every_recovery_point_resumes_bit_identically(tmp_path, after,
                                                      uninterrupted):
    _stopped(tmp_path, after)
    epoch, batch = divmod(after, BATCHES_PER_EPOCH)
    expected = {}
    if epoch:
        expected["epoch-0001.npz"] = (2, 0)
    if batch:
        expected["journal.npz"] = (epoch + 1, batch)
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == sorted(expected)
    for name, position in expected.items():
        assert state_position(tmp_path / name) == position
        assert _resumed(tmp_path, tmp_path / name) == uninterrupted, name
    assert _resumed(tmp_path) == uninterrupted


def test_process_backend_resume_matches_serial(tmp_path):
    # The same split (two shards) under the serial and the process
    # backend: the resumed runs agree bit for bit.
    outcomes = []
    for backend in ("serial", "process"):
        directory = tmp_path / backend
        _stopped(directory, 5, threads=2, backend=backend)
        outcomes.append(_resumed(directory, directory / "journal.npz",
                                 threads=2, backend=backend))
    assert outcomes[0] == outcomes[1]


def test_restore_after_restore_keeps_no_earlier_replay(tmp_path,
                                                       uninterrupted):
    _stopped(tmp_path, 6)
    loop = _loop(tmp_path, seed=99)
    assert loop.restore(tmp_path / "journal.npz") == (2, 2)
    assert loop.restore(tmp_path / "epoch-0001.npz") == (2, 0)
    history = loop.run(EPOCHS)
    _close(loop)
    assert _outcome(loop, history) == uninterrupted


def test_resume_latest_skips_a_truncated_journal(tmp_path, uninterrupted):
    _stopped(tmp_path, 6)
    journal = tmp_path / "journal.npz"
    truncated = journal.read_bytes()[: journal.stat().st_size // 2]
    journal.write_bytes(truncated)
    assert state_position(journal) is None
    loop = _loop(tmp_path, seed=99)
    assert loop.resume_latest() == (2, 0)  # epoch-0001.npz
    assert journal.read_bytes() == truncated
    history = loop.run(EPOCHS)
    _close(loop)
    assert _outcome(loop, history) == uninterrupted


def test_restore_returns_the_file_position(tmp_path):
    _stopped(tmp_path, 3)
    loop = _loop(tmp_path, seed=99)
    assert loop.restore(tmp_path / "journal.npz") == (1, 3)
    assert loop.position == (1, 3)


def test_resume_latest_of_another_network_raises_and_keeps_every_file(
        tmp_path):
    _stopped(tmp_path, 6)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other = TrainingLoop(
        cifar10_net(scale=0.25, rng=np.random.default_rng(0)),
        mnist_like(SAMPLES, seed=0), batch_size=BATCH,
        checkpoint_dir=tmp_path, preflight=False,
    )
    with pytest.raises(ReproError, match="structure"):
        other.resume_latest()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
