"""Named shared-memory ndarray segments with explicit lifecycle.

The process execution backend (:mod:`repro.runtime.backends`) moves
batch slices between the parent and its persistent worker processes
through POSIX shared memory: the parent *creates* a named segment and
copies a tensor in once, every worker *attaches* to the same name and
maps the identical pages, and results are written straight into a
shared output segment -- no pickling of array payloads, no per-call
copies across the process boundary.

:class:`SharedArray` wraps one ``multiprocessing.shared_memory``
segment as an ndarray with an explicit, leak-checked lifecycle:

* ``SharedArray.create(shape, dtype)`` -- allocate a named segment (the
  *owner* side).  Owners must eventually call :meth:`unlink`.
* ``SharedArray.attach(descriptor)`` -- map an existing segment by its
  :class:`ShmDescriptor` (the *worker* side).  Attachers only
  :meth:`close`; they never unlink.
* both sides are context managers: ``with`` closes (and unlinks, for
  owners) even when the body raises.

Every owned segment is recorded in a process-local registry until it is
unlinked, so tests (and the CI leak check) can assert that no segment
outlives its run: :func:`owned_segments` must be empty after a clean
shutdown.  Segment names all carry the :data:`SEGMENT_PREFIX` so a
``/dev/shm`` scan can tell our segments from anything else on the host.

:class:`ShmArena` groups several owned segments under one lifetime --
the :class:`~repro.runtime.parallel.ParallelExecutor` keeps one arena
per executor and reuses segments across calls when shapes match
(workspace reuse), releasing everything in one ``release()`` (or, as a
fault net, from a ``weakref.finalize`` when the owner is collected).

Python 3.11's ``SharedMemory`` registers *attached* segments with the
``multiprocessing`` resource tracker, which then unlinks them when the
tracker retires -- destroying a segment the parent still owns (fixed
only in 3.13 via ``track=False``).  Worse, spawn children share the
parent's tracker daemon, so the classic attach-then-unregister
workaround strips the *creator's* registration out of the shared cache.
:meth:`SharedArray.attach` therefore suppresses the registration
entirely (:func:`_attach_untracked`): lifetime is owned explicitly
here, not by the tracker.

**Crash reaping.**  The process-local ``owned_segments()`` registry dies
with the process, so a SIGKILL'd owner orphans its segments in
``/dev/shm`` with nobody left who knows to unlink them.  Every segment
name embeds its creator's pid, so the host namespace alone says who
owns what: :func:`segments_on_host` attributes each of our segments to
its owner, and :func:`reap_orphans` -- the janitor -- unlinks every
segment whose owner is dead.  The janitor runs at process-backend
start, after kill-chaos runs, and from the ``repro shm`` CLI.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.errors import ReproError

#: Prefix of every segment name this module creates; the CI leak check
#: greps ``/dev/shm`` for it after the test run.  The hex field after
#: the prefix is the *creator's pid*, which lets the janitor attribute
#: every segment to its (possibly dead) owner.
SEGMENT_PREFIX = "repro-shm-"


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}"


def _segment_owner_pid(name: str) -> "int | None":
    """The creator pid embedded in a segment name, if parseable."""
    if not name.startswith(SEGMENT_PREFIX):
        return None
    head = name[len(SEGMENT_PREFIX):].partition("-")[0]
    try:
        return int(head, 16)
    except ValueError:
        return None


# -- untracked attach -------------------------------------------------------

_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering it with the resource tracker.

    Python 3.11's ``SharedMemory`` registers attached segments; spawn
    children *share the parent's tracker daemon*, so the historical
    attach-then-``unregister`` workaround removes the creator's own
    registration from the shared cache -- the owner's later ``unlink``
    then double-unregisters and the tracker prints a ``KeyError`` at
    every worker exit.  Suppressing the registration instead leaves
    exactly one entry (the creator's) for the segment's whole life.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# -- leak registry ----------------------------------------------------------

_OWNED: set[str] = set()
_OWNED_LOCK = threading.Lock()


def _register_owned(name: str) -> None:
    with _OWNED_LOCK:
        _OWNED.add(name)


def _unregister_owned(name: str) -> None:
    with _OWNED_LOCK:
        _OWNED.discard(name)


def owned_segments() -> tuple[str, ...]:
    """Names of segments this process created and has not yet unlinked.

    A non-empty result after all pools/executors are closed is a leak.
    """
    with _OWNED_LOCK:
        return tuple(sorted(_OWNED))


# -- crash janitor ----------------------------------------------------------


@dataclass(frozen=True)
class HostSegment:
    """One of our segments in ``/dev/shm``, with the owner its name embeds."""

    name: str
    pid: int
    #: True when the owning process is still running.
    owner_alive: bool

    @property
    def orphaned(self) -> bool:
        """A reapable leak: the segment outlived its dead owner."""
        return not self.owner_alive


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user pid
        return True
    return True


def host_segments() -> tuple[str, ...]:
    """Our segment names currently present in the host shm namespace."""
    shm_root = Path("/dev/shm")
    if not shm_root.is_dir():  # pragma: no cover - non-Linux host
        return ()
    return tuple(sorted(
        p.name for p in shm_root.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
    ))


def segments_on_host() -> tuple[HostSegment, ...]:
    """Each of our on-host segments, attributed to the pid in its name."""
    segments: list[HostSegment] = []
    for name in host_segments():
        pid = _segment_owner_pid(name)
        if pid is None:  # pragma: no cover - foreign name under our prefix
            continue
        segments.append(HostSegment(name, pid, _pid_alive(pid)))
    return tuple(segments)


def reap_orphans() -> tuple[str, ...]:
    """Unlink every segment whose owning process died.

    Returns the names of segments actually reclaimed.  Segments with a
    live owner are left strictly alone -- the janitor is safe to run
    concurrently with active pools in other processes.
    """
    reaped: list[str] = []
    for segment in segments_on_host():
        if not segment.orphaned:
            continue
        try:
            seg = shared_memory.SharedMemory(name=segment.name)
        except FileNotFoundError:  # pragma: no cover - concurrent reap
            continue
        # Attaching registered the name with our resource tracker;
        # unlink() unregisters it again, so the pair stays balanced (no
        # explicit unregister here).
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - reap race
            pass
        seg.close()
        reaped.append(segment.name)
        telemetry.add("shm.reaped_segments", 1)
        telemetry.event("shm.reap", segment=segment.name, owner=segment.pid)
    return tuple(reaped)


@dataclass(frozen=True)
class ShmDescriptor:
    """A picklable handle naming a segment and its ndarray geometry.

    ``role`` is the arena-unique slot the segment fills (set for
    arena-owned segments, ``None`` for standalone ones).  A worker's
    attach cache keys on it: when the parent reallocates a role after a
    geometry change, the new descriptor carries the same role with a new
    segment name, telling the worker to drop its mapping of the old --
    already unlinked -- segment instead of pinning its pages until the
    name ages out of the cache.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    role: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("shm descriptor needs a segment name")


class SharedArray:
    """One ndarray backed by a named shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory,
                 shape: tuple[int, ...], dtype: np.dtype,
                 owner: bool) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.owner = owner
        #: Arena-unique role shipped in the descriptor (None standalone).
        self.role: str | None = None
        self._ndarray: np.ndarray | None = np.ndarray(
            self.shape, dtype=self.dtype, buffer=shm.buf
        )

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, shape: tuple[int, ...],
               dtype: np.dtype | str = np.float32,
               role: str | None = None) -> "SharedArray":
        """Allocate a fresh owned segment sized for ``shape``/``dtype``."""
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        shm = shared_memory.SharedMemory(
            create=True, size=nbytes, name=_new_segment_name()
        )
        _register_owned(shm.name)
        seg = cls(shm, tuple(shape), dtype, owner=True)
        seg.role = role
        return seg

    @classmethod
    def from_array(cls, array: np.ndarray) -> "SharedArray":
        """Allocate an owned segment holding a copy of ``array``."""
        seg = cls.create(array.shape, array.dtype)
        seg.ndarray[...] = array
        return seg

    @classmethod
    def attach(cls, descriptor: ShmDescriptor) -> "SharedArray":
        """Map an existing segment by descriptor (never unlinks it)."""
        shm = _attach_untracked(descriptor.name)
        return cls(shm, descriptor.shape, np.dtype(descriptor.dtype),
                   owner=False)

    # -- access -----------------------------------------------------------

    @property
    def name(self) -> str:
        if self._shm is None:
            raise ReproError("shared array is closed")
        return self._shm.name

    @property
    def ndarray(self) -> np.ndarray:
        """The live ndarray view onto the segment."""
        if self._ndarray is None:
            raise ReproError("shared array is closed")
        return self._ndarray

    @property
    def descriptor(self) -> ShmDescriptor:
        """The picklable handle workers attach with."""
        return ShmDescriptor(name=self.name, shape=self.shape,
                             dtype=self.dtype.str, role=self.role)

    def matches(self, shape: tuple[int, ...], dtype: np.dtype | str) -> bool:
        """True when this segment can hold ``shape``/``dtype`` as-is."""
        return (self._shm is not None and self.shape == tuple(shape)
                and self.dtype == np.dtype(dtype))

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._shm is None:
            return
        # The ndarray view must be released before the buffer can be
        # unmapped, or SharedMemory.close() raises BufferError.
        self._ndarray = None
        self._shm.close()
        self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner side; closes too; idempotent)."""
        if self._shm is None:
            return
        if not self.owner:
            raise ReproError(
                f"segment {self._shm.name} was attached, not created; "
                f"only the owner unlinks"
            )
        shm = self._shm
        name = shm.name
        # Unlink through the handle we already hold -- re-attaching by
        # name would open (and leak until GC) a second fd + mapping.
        # The ndarray view must be released before the buffer can be
        # unmapped, or SharedMemory.close() raises BufferError.
        self._ndarray = None
        self._shm = None
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass
        try:
            # Raises BufferError while a caller still holds a view; the
            # name is gone either way, so the books must say so.
            shm.close()
        finally:
            _unregister_owned(name)

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.owner:
            self.unlink()
        else:
            self.close()


class ShmArena:
    """A set of owned segments reused across calls, freed together.

    ``ensure(role, shape, dtype)`` returns the arena's segment for
    ``role``, reallocating only when the requested geometry changed --
    the shared-memory counterpart of the engines' scratch
    :class:`~repro.ops.workspace.Workspace`.  ``release()`` unlinks
    everything; a ``weakref.finalize`` releases leftover segments when
    the arena is garbage-collected, so a dropped arena can never leak
    past the owning process's lifetime.
    """

    def __init__(self) -> None:
        self._segments: dict[str, SharedArray] = {}
        # Distinguishes this arena's roles from another arena's in a
        # worker's attach cache when two executors share one pool.
        self._tag = secrets.token_hex(4)
        self._finalizer = weakref.finalize(
            self, ShmArena._release_segments, self._segments
        )

    @staticmethod
    def _release_segments(segments: dict[str, SharedArray]) -> None:
        for seg in segments.values():
            try:
                seg.unlink()
            except Exception:  # pragma: no cover - best-effort fault net
                pass
        segments.clear()

    def ensure(self, role: str, shape: tuple[int, ...],
               dtype: np.dtype | str) -> SharedArray:
        """The segment for ``role``, reallocated only on geometry change."""
        seg = self._segments.get(role)
        if seg is not None and seg.matches(shape, dtype):
            return seg
        if seg is not None:
            seg.unlink()
        seg = SharedArray.create(tuple(shape), dtype,
                                 role=f"{self._tag}:{role}")
        self._segments[role] = seg
        return seg

    def release(self) -> None:
        """Unlink every segment now (idempotent)."""
        ShmArena._release_segments(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
