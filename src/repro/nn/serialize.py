"""Training-state checkpointing: save and restore a run in progress.

Two formats share one ``.npz`` container:

* **Training checkpoints** (:func:`save_checkpoint` /
  :func:`load_checkpoint`) -- everything a killed run needs to resume
  *bit-identically*: the parameters, keyed by the network's qualified
  parameter names (``<index>.<layer>.<param>``), the optimizer's
  momentum buffers (``__velocity__.<param>`` keys), the completed-epoch
  count and the epoch metric history (``__meta__``, JSON), and the
  shuffle RNG's bit-generator state (``__rng__``, JSON) so the resumed
  run draws the exact permutations the uninterrupted run would have.
  Written atomically, like the journals below: a kill mid-write leaves
  the previous ``epoch-*.npz`` (or none), never a torn one.
* **Batch journals** (:func:`save_journal` / :func:`load_journal`) -- a
  *mid-epoch* snapshot for crash-consistent recovery: the training
  checkpoint's payload plus the epoch's shuffled index order
  (``__order__``), the completed-batch index and the partial epoch
  metrics.  Journals are written atomically (tmp file + ``fsync`` +
  ``rename`` + directory ``fsync``, :func:`_write_npz_atomic`) so a kill
  at any instant leaves either the previous journal or the new one,
  never a torn file.

Both formats carry a structural fingerprint and the same mismatch
guarantee: loading into a structurally different network raises
:class:`~repro.errors.ReproError` instead of corrupting it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.nn.network import Network

_FINGERPRINT_KEY = "__structure__"
_META_KEY = "__meta__"
_RNG_KEY = "__rng__"
_VELOCITY_PREFIX = "__velocity__."
_ORDER_KEY = "__order__"

#: Bumped when the training-checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT = 1

#: Bumped when the batch-journal layout changes incompatibly.
JOURNAL_FORMAT = 1


def structure_fingerprint(network: Network) -> str:
    """A JSON description of the network's parameter structure."""
    structure = {
        "input_shape": list(network.input_shape),
        "params": {
            name: list(param.shape)
            for name, param, _ in network.parameters()
        },
    }
    return json.dumps(structure, sort_keys=True)


def _verify_fingerprint(archive, network: Network, path) -> None:
    if _FINGERPRINT_KEY not in archive:
        raise ReproError(f"{path} is not a repro checkpoint")
    stored = bytes(archive[_FINGERPRINT_KEY]).decode("utf-8")
    expected = structure_fingerprint(network)
    if stored != expected:
        raise ReproError(
            "checkpoint structure does not match the network:\n"
            f"  checkpoint: {stored}\n  network:    {expected}"
        )


def _json_array(value: Any) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8)


def _array_json(array: np.ndarray) -> Any:
    return json.loads(bytes(array).decode("utf-8"))


def _write_npz_atomic(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez`` to ``path`` so that no reader ever sees a torn file.

    The archive is written and fsync'd under a temp name in the same
    directory, renamed over ``path``, and the directory entry fsync'd.
    A failure (or kill) at any point leaves the previous ``path``
    intact; a failure this process survives also removes the temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@dataclass
class CheckpointState:
    """Everything a training checkpoint restores besides the parameters."""

    epoch: int
    history: list[dict[str, Any]] = field(default_factory=list)
    has_velocity: bool = False
    has_rng: bool = False


def save_checkpoint(
    network: Network,
    path: str | Path,
    *,
    epoch: int = 0,
    trainer=None,
    rng: np.random.Generator | None = None,
    history: list[dict[str, Any]] | None = None,
) -> Path:
    """Write a resumable training checkpoint to ``path`` (.npz).

    ``trainer`` (an :class:`~repro.nn.sgd.SGDTrainer`) contributes its
    momentum buffers; ``rng`` its bit-generator state; ``history`` a list
    of JSON-friendly epoch records.  All three are optional -- a
    checkpoint without them restores weights only.
    """
    if epoch < 0:
        raise ReproError(f"epoch must be non-negative, got {epoch}")
    path = Path(path)
    arrays = {name: param for name, param, _ in network.parameters()}
    reserved = (_FINGERPRINT_KEY, _META_KEY, _RNG_KEY)
    for name in arrays:
        if name in reserved or name.startswith(_VELOCITY_PREFIX):
            raise ReproError(f"parameter name collides with {name!r}")
    arrays[_FINGERPRINT_KEY] = np.frombuffer(
        structure_fingerprint(network).encode("utf-8"), dtype=np.uint8
    )
    meta = {
        "format": CHECKPOINT_FORMAT,
        "epoch": int(epoch),
        "history": list(history or []),
    }
    arrays[_META_KEY] = _json_array(meta)
    if rng is not None:
        arrays[_RNG_KEY] = _json_array(rng.bit_generator.state)
    if trainer is not None:
        for name, velocity in trainer.velocity_state().items():
            arrays[_VELOCITY_PREFIX + name] = velocity
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    _write_npz_atomic(path, arrays)
    return path


def load_checkpoint(
    network: Network,
    path: str | Path,
    *,
    trainer=None,
    rng: np.random.Generator | None = None,
) -> CheckpointState:
    """Restore a training checkpoint into ``network`` (and co) in place.

    The checkpoint's structural fingerprint must match the network's.
    When ``trainer`` / ``rng`` are given, their momentum buffers and
    bit-generator state are restored too; a checkpoint saved without
    that state leaves them untouched.  Returns the bookkeeping the
    caller needs to continue the run.
    """
    with np.load(Path(path)) as archive:
        _verify_fingerprint(archive, network, path)
        if _META_KEY not in archive:
            raise ReproError(
                f"{path} is not a training checkpoint (no {_META_KEY})"
            )
        meta = _array_json(archive[_META_KEY])
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ReproError(
                f"unsupported checkpoint format {meta.get('format')!r}; "
                f"this build reads format {CHECKPOINT_FORMAT}"
            )
        for name, param, _ in network.parameters():
            param[...] = archive[name]
        velocity = {
            key[len(_VELOCITY_PREFIX):]: archive[key]
            for key in archive.files if key.startswith(_VELOCITY_PREFIX)
        }
        if trainer is not None and velocity:
            trainer.load_velocity_state(velocity)
        has_rng = _RNG_KEY in archive
        if rng is not None and has_rng:
            rng.bit_generator.state = _array_json(archive[_RNG_KEY])
    return CheckpointState(
        epoch=int(meta["epoch"]),
        history=list(meta.get("history", [])),
        has_velocity=bool(velocity),
        has_rng=has_rng,
    )


# -- batch journals (mid-epoch crash recovery) -------------------------------


@dataclass
class JournalState:
    """Everything a batch journal restores besides the parameters.

    ``epoch`` is the *in-progress* epoch (1-based), ``batches_done`` how
    many of its batches had completed when the journal was written, and
    ``order`` the epoch's full shuffled index permutation -- together
    they pin exactly which batches remain.  ``partial`` carries the
    per-batch metric lists accumulated so far, so the resumed epoch's
    record is identical to the uninterrupted one.
    """

    epoch: int
    batches_done: int
    order: np.ndarray
    history: list[dict[str, Any]] = field(default_factory=list)
    partial: dict[str, Any] = field(default_factory=dict)


def save_journal(
    network: Network,
    path: str | Path,
    *,
    epoch: int,
    batches_done: int,
    order: np.ndarray,
    trainer=None,
    rng: np.random.Generator | None = None,
    history: list[dict[str, Any]] | None = None,
    partial: dict[str, Any] | None = None,
) -> Path:
    """Write a crash-consistent mid-epoch journal to ``path`` (.npz).

    The RNG state saved here is the state *after* this epoch's
    permutation draw, and the permutation itself travels in the file --
    a resumed run never re-draws it, so the remaining batches replay
    bit-identically.  The write is atomic and durable: the bytes are
    fsync'd in a temp file, renamed over ``path``, and the directory
    entry fsync'd, so a kill mid-write can never leave a torn journal.
    """
    if epoch <= 0:
        raise ReproError(f"journal epoch must be positive, got {epoch}")
    if batches_done < 0:
        raise ReproError(
            f"batches_done must be non-negative, got {batches_done}"
        )
    path = Path(path)
    arrays = {name: param for name, param, _ in network.parameters()}
    reserved = (_FINGERPRINT_KEY, _META_KEY, _RNG_KEY, _ORDER_KEY)
    for name in arrays:
        if name in reserved or name.startswith(_VELOCITY_PREFIX):
            raise ReproError(f"parameter name collides with {name!r}")
    arrays[_FINGERPRINT_KEY] = np.frombuffer(
        structure_fingerprint(network).encode("utf-8"), dtype=np.uint8
    )
    meta = {
        "format": CHECKPOINT_FORMAT,
        "journal_format": JOURNAL_FORMAT,
        "epoch": int(epoch),
        "batches_done": int(batches_done),
        "history": list(history or []),
        "partial": dict(partial or {}),
    }
    arrays[_META_KEY] = _json_array(meta)
    arrays[_ORDER_KEY] = np.asarray(order, dtype=np.int64)
    if rng is not None:
        arrays[_RNG_KEY] = _json_array(rng.bit_generator.state)
    if trainer is not None:
        for name, velocity in trainer.velocity_state().items():
            arrays[_VELOCITY_PREFIX + name] = velocity
    _write_npz_atomic(path, arrays)
    return path


def journal_position(path: str | Path) -> tuple[int, int] | None:
    """``(epoch, batches_done)`` of a journal, or None if unreadable.

    Reads only the metadata -- no network is needed -- so a watcher
    (e.g. the kill-chaos harness deciding when to strike) can poll a
    journal another process is writing.
    """
    try:
        with np.load(Path(path)) as archive:
            meta = _array_json(archive[_META_KEY])
        if meta.get("journal_format") != JOURNAL_FORMAT:
            return None
        return int(meta["epoch"]), int(meta["batches_done"])
    except Exception:
        return None


def load_journal(
    network: Network,
    path: str | Path,
    *,
    trainer=None,
    rng: np.random.Generator | None = None,
) -> JournalState:
    """Restore a batch journal into ``network`` (and co) in place.

    Mirrors :func:`load_checkpoint`, additionally returning the epoch's
    permutation and completed-batch cursor so the caller can replay
    exactly the remaining batches.
    """
    with np.load(Path(path)) as archive:
        _verify_fingerprint(archive, network, path)
        if _META_KEY not in archive or _ORDER_KEY not in archive:
            raise ReproError(f"{path} is not a repro batch journal")
        meta = _array_json(archive[_META_KEY])
        if meta.get("journal_format") != JOURNAL_FORMAT:
            raise ReproError(
                f"unsupported journal format {meta.get('journal_format')!r}; "
                f"this build reads format {JOURNAL_FORMAT}"
            )
        for name, param, _ in network.parameters():
            param[...] = archive[name]
        velocity = {
            key[len(_VELOCITY_PREFIX):]: archive[key]
            for key in archive.files if key.startswith(_VELOCITY_PREFIX)
        }
        if trainer is not None and velocity:
            trainer.load_velocity_state(velocity)
        if rng is not None and _RNG_KEY in archive:
            rng.bit_generator.state = _array_json(archive[_RNG_KEY])
        order = np.array(archive[_ORDER_KEY], dtype=np.int64)
    return JournalState(
        epoch=int(meta["epoch"]),
        batches_done=int(meta["batches_done"]),
        order=order,
        history=list(meta.get("history", [])),
        partial=dict(meta.get("partial", {})),
    )
