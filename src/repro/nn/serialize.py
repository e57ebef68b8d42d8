"""Training state: save and restore a run in progress.

One :class:`TrainingState` -- the 1-based epoch a run resumes into, the
batches of that epoch already applied, the epoch's shuffled order, the
epoch history and the epoch's partial metrics -- travels through one
writer (:func:`save_state`) and one reader (:func:`load_state`) over an
``.npz`` container.  Every file carries the parameters, keyed by the
network's qualified parameter names (``<index>.<layer>.<param>``), the
optimizer's momentum buffers (``__velocity__.<param>`` keys), the
shuffle RNG's bit-generator state (``__rng__``, JSON) and a structural
fingerprint (``__structure__``).  The metadata (``__meta__``, JSON) has
one of two layouts:

* **Epoch boundary** (``order is None``; the training loop's
  ``epoch-NNNN.npz``): ``format``, ``epoch`` -- the number of
  *completed* epochs -- and ``history``.  The reader maps ``epoch = E``
  to position ``(E + 1, 0)``: the RNG state is the one the next
  permutation is drawn from.
* **Mid-epoch** (the loop's ``journal.npz``): additionally
  ``journal_format``, ``batches_done`` and ``partial``, with ``epoch``
  the *in-progress* epoch, plus the epoch's permutation (``__order__``).
  The RNG state is the one *after* that permutation's draw; a resumed
  run replays the stored order and never re-draws it.

Writes are atomic and durable (tmp file + ``fsync`` + ``rename`` +
directory ``fsync``, :func:`_write_npz_atomic`): a kill at any instant
leaves the previous file or the new one, never a torn one.  The writer
writes exactly the path it is given and the reader reads exactly that
path.  Loading into a structurally different network raises
:class:`~repro.errors.ReproError` before anything is written into it;
:func:`state_position` reads a file's position without a network.
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

#: Bumped when the container layout changes incompatibly.
STATE_FORMAT = 1

#: Bumped when the mid-epoch metadata changes incompatibly.
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
class TrainingState:
    """Everything a state file restores besides the parameters.

    ``epoch`` is the 1-based epoch the file resumes into and
    ``batches_done`` how many of its batches are already applied.
    ``order`` is that epoch's permutation when the file is mid-epoch,
    and None at an epoch boundary (``batches_done == 0``), where the
    next permutation has not been drawn.  ``partial`` carries the
    mid-epoch metric lists, so the resumed epoch's record is identical
    to the uninterrupted one.
    """

    epoch: int = 1
    batches_done: int = 0
    order: np.ndarray | None = None
    history: list[dict[str, Any]] = field(default_factory=list)
    partial: dict[str, Any] = field(default_factory=dict)


def save_state(
    network: Network,
    path: str | Path,
    state: TrainingState,
    *,
    trainer=None,
    rng: np.random.Generator | None = None,
) -> Path:
    """Write ``state`` and the network's parameters to ``path``.

    ``trainer`` (an :class:`~repro.nn.sgd.SGDTrainer`) contributes its
    momentum buffers and ``rng`` its bit-generator state; a file without
    them restores weights only.
    """
    if state.epoch <= 0:
        raise ReproError(f"epoch must be positive, got {state.epoch}")
    if state.batches_done < 0:
        raise ReproError(
            f"batches_done must be non-negative, got {state.batches_done}"
        )
    if (state.order is None) != (state.batches_done == 0):
        raise ReproError(
            "a state has an order exactly when batches_done > 0, got "
            f"batches_done={state.batches_done} and "
            f"{'no' if state.order is None else 'an'} order"
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
    history = list(state.history)
    if state.order is None:
        meta = {"format": STATE_FORMAT, "epoch": state.epoch - 1,
                "history": history}
    else:
        meta = {"format": STATE_FORMAT, "journal_format": JOURNAL_FORMAT,
                "epoch": state.epoch, "batches_done": state.batches_done,
                "history": history, "partial": dict(state.partial)}
        arrays[_ORDER_KEY] = np.asarray(state.order, dtype=np.int64)
    arrays[_META_KEY] = _json_array(meta)
    if rng is not None:
        arrays[_RNG_KEY] = _json_array(rng.bit_generator.state)
    if trainer is not None:
        for name, velocity in trainer.velocity_state().items():
            arrays[_VELOCITY_PREFIX + name] = velocity
    _write_npz_atomic(path, arrays)
    return path


def _read_state(archive, path, *, with_order: bool = True) -> TrainingState:
    """The state of an open archive, in either layout; reads no array
    but the mid-epoch order, and that only ``with_order``."""
    if _META_KEY not in archive:
        raise ReproError(
            f"{path} is not a training checkpoint (no {_META_KEY})"
        )
    meta = _array_json(archive[_META_KEY])
    if meta.get("format") != STATE_FORMAT:
        raise ReproError(
            f"unsupported checkpoint format {meta.get('format')!r}; "
            f"this build reads format {STATE_FORMAT}"
        )
    history = list(meta.get("history", []))
    if "journal_format" not in meta:
        return TrainingState(epoch=int(meta["epoch"]) + 1, history=history)
    if meta["journal_format"] != JOURNAL_FORMAT:
        raise ReproError(
            f"unsupported journal format {meta['journal_format']!r}; "
            f"this build reads format {JOURNAL_FORMAT}"
        )
    if _ORDER_KEY not in archive:
        raise ReproError(f"{path} is a mid-epoch state without {_ORDER_KEY}")
    return TrainingState(
        epoch=int(meta["epoch"]),
        batches_done=int(meta["batches_done"]),
        order=(np.array(archive[_ORDER_KEY], dtype=np.int64)
               if with_order else None),
        history=history,
        partial=dict(meta.get("partial", {})),
    )


def state_position(path: str | Path) -> tuple[int, int] | None:
    """``(epoch, batches_done)`` of a state file, or None if unreadable.

    Reads only the metadata -- no network is needed -- so a watcher
    (e.g. the kill-chaos harness deciding when to strike) can poll a
    file another process is writing.
    """
    try:
        with np.load(Path(path)) as archive:
            if _FINGERPRINT_KEY not in archive:
                return None
            state = _read_state(archive, path, with_order=False)
        return state.epoch, state.batches_done
    except Exception:
        return None


def load_state(
    network: Network,
    path: str | Path,
    *,
    trainer=None,
    rng: np.random.Generator | None = None,
) -> TrainingState:
    """Restore a state file into ``network`` (and co) in place.

    The file's structural fingerprint must match the network's, and its
    metadata and momentum shapes must check out, before any parameter is
    written.  When ``trainer`` / ``rng`` are given, their momentum
    buffers and bit-generator state are restored too; a file saved
    without that state leaves them untouched.
    """
    with np.load(Path(path)) as archive:
        _verify_fingerprint(archive, network, path)
        state = _read_state(archive, path)
        velocity = {
            key[len(_VELOCITY_PREFIX):]: archive[key]
            for key in archive.files if key.startswith(_VELOCITY_PREFIX)
        }
        if trainer is not None and velocity:
            # Shape-checked before any parameter is overwritten.
            trainer.load_velocity_state(velocity)
        for name, param, _ in network.parameters():
            param[...] = archive[name]
        if rng is not None and _RNG_KEY in archive:
            rng.bit_generator.state = _array_json(archive[_RNG_KEY])
    return state
