"""Cross-process telemetry: per-worker shared-memory rings + merge.

The process backend (:mod:`repro.runtime.backends`) runs the hot FP/BP
kernels inside persistent spawned worker processes.  The parent-side
collector (:mod:`repro.telemetry.collector`) cannot see into them: a
collector object pickled into a spawned worker is a dead copy, and the
goodput attribution the paper's Sec. 5 argues from -- where *worker*
time actually goes -- needs exactly those in-worker measurements.

This module is the bridge:

* :class:`TelemetryRing` -- one lock-free single-producer /
  single-consumer ring of fixed-size records over a flat byte buffer.
  The worker (producer) publishes each record by writing its body, then
  its ``seq`` validation field, then bumping ``head`` -- in that order
  -- so the parent (consumer) never observes a half-written record and
  a SIGKILL mid-write leaves the ring drainable (the torn final record
  is simply never published).  A full ring **drops** the record and
  bumps the ``dropped`` counter; the hot path never blocks.
* :class:`RingBoard` -- ``num_workers`` rings packed into one
  :class:`repro.runtime.shm.SharedArray` segment, created by the parent
  and attached by every worker (each worker only writes its own slot).
* one clock -- workers stamp records with ``time.perf_counter``, the
  clock the parent's collector times its own spans with.  On Linux it
  is ``CLOCK_MONOTONIC``, one system-wide clock shared by every
  process, so worker stamps land on the parent's timeline as they are:
  a span a worker times inside a dispatch nests inside the parent's
  reads around that dispatch.
* :func:`merge_records` -- drained records land in the ordinary
  parent-side :class:`~repro.telemetry.collector.TelemetryCollector`\\ s
  as spans/counters/gauges/events carrying ``process_pid`` /
  ``worker_slot`` / ``job`` attributes, which is what gives Chrome
  traces real per-worker-process tracks and flow-event linkage.

Worker-side code emits through the ordinary ``telemetry.span`` /
``add`` / ``gauge`` / ``event`` helpers: with no active collector and
:data:`WORKER`'s ring installed and enabled they record into the ring
(see :mod:`repro.telemetry.collector`), so the same instrumented code
reports from the parent and from a spawned worker.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.shm import SharedArray, ShmDescriptor
    from repro.telemetry.collector import TelemetryCollector

#: Record kinds (the ``kind`` field of every ring record).
KIND_SPAN = 1
KIND_COUNTER = 2
KIND_EVENT = 3
KIND_GAUGE = 4

#: Fixed byte budgets for the two string fields of a record.
NAME_BYTES = 56
META_BYTES = 112

#: Per-ring header: producer/consumer cursors, loss counters, the
#: parent-set ``enabled`` gate, and the producer's pid.
HEADER_DTYPE = np.dtype([
    ("head", np.int64),          # records published (worker writes)
    ("tail", np.int64),          # records consumed (parent writes)
    ("dropped", np.int64),       # records lost to a full ring (worker)
    ("torn", np.int64),          # seq-mismatched records skipped (parent)
    ("enabled", np.int64),       # parent-set gate the worker polls
    ("pid", np.int64),           # producer's os.getpid() (worker writes)
])

#: One telemetry record.  ``seq`` is written *last* (publication);
#: ``start``/``end`` are producer-side ``time.perf_counter`` stamps.
RECORD_DTYPE = np.dtype([
    ("seq", np.int64),
    ("kind", np.int32),
    ("slot", np.int32),
    ("job", np.int64),
    ("start", np.float64),
    ("end", np.float64),
    ("value", np.float64),
    ("name", f"S{NAME_BYTES}"),
    ("meta", f"S{META_BYTES}"),
])

#: Records per worker ring.  At one span per dispatched job this covers
#: thousands of jobs between drains; the parent drains after every
#: awaited job, so overflow means telemetry loss (counted), never a
#: stall.
DEFAULT_CAPACITY = 2048


def ring_bytes(capacity: int) -> int:
    """Byte size of one ring region holding ``capacity`` records."""
    if capacity <= 0:
        raise ReproError(f"ring capacity must be positive, got {capacity}")
    return HEADER_DTYPE.itemsize + capacity * RECORD_DTYPE.itemsize


def encode_attrs(attrs: dict[str, Any]) -> bytes:
    """Pack attrs as ``k=v;k=v`` bytes, truncated to the meta budget.

    Separator characters inside values are replaced; a pair that would
    not fit whole is dropped (records are fixed-size on purpose).
    """
    out = b""
    for key, value in attrs.items():
        text = str(value).replace(";", ",").replace("=", ":")
        pair = f"{key}={text}".encode("utf-8", "replace")
        grown = pair if not out else out + b";" + pair
        if len(grown) > META_BYTES:
            continue
        out = grown
    return out


def decode_attrs(meta: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_attrs`; values parse as int/float/str."""
    attrs: dict[str, Any] = {}
    if not meta:
        return attrs
    for pair in meta.decode("utf-8", "replace").split(";"):
        key, sep, text = pair.partition("=")
        if not sep:
            continue
        value: Any = text
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                pass
        attrs[key] = value
    return attrs


@dataclass(frozen=True)
class RemoteRecord:
    """One record drained from a worker ring."""

    kind: int
    slot: int
    job: int
    start: float
    end: float
    value: float
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)


class TelemetryRing:
    """SPSC ring of :data:`RECORD_DTYPE` records over a flat uint8 buffer.

    The producer (worker) owns ``head``/``dropped``/``pid``; the consumer
    (parent) owns ``tail``/``torn``/``enabled``, and zeroes ``pid`` only
    while the slot has no producer.  No field is written by both sides
    at once, so no lock exists to die holding.  Publication relies on
    store ordering (body, then ``seq``, then ``head``) -- x86's TSO keeps
    plain stores ordered, and the GIL serializes each side's own stores
    anyway.
    """

    __slots__ = ("capacity", "_hdr", "_records")

    def __init__(self, region: np.ndarray) -> None:
        if region.dtype != np.uint8 or region.ndim != 1:
            raise ReproError("telemetry ring region must be a flat uint8 array")
        header_bytes = HEADER_DTYPE.itemsize
        capacity = (region.size - header_bytes) // RECORD_DTYPE.itemsize
        if capacity <= 0:
            raise ReproError(
                f"ring region of {region.size} bytes holds no records"
            )
        self.capacity = int(capacity)
        self._hdr = region[:header_bytes].view(HEADER_DTYPE)
        body = region[header_bytes:header_bytes
                      + self.capacity * RECORD_DTYPE.itemsize]
        self._records = body.view(RECORD_DTYPE)

    @classmethod
    def local(cls, capacity: int = DEFAULT_CAPACITY) -> "TelemetryRing":
        """A private in-process ring (tests, no shared memory)."""
        return cls(np.zeros(ring_bytes(capacity), dtype=np.uint8))

    # -- header access -----------------------------------------------------

    def _geti(self, name: str) -> int:
        return int(self._hdr[name][0])

    @property
    def written(self) -> int:
        return self._geti("head")

    @property
    def pending(self) -> int:
        return self._geti("head") - self._geti("tail")

    @property
    def dropped(self) -> int:
        return self._geti("dropped")

    @property
    def torn(self) -> int:
        return self._geti("torn")

    @property
    def pid(self) -> int:
        return self._geti("pid")

    @property
    def enabled(self) -> bool:
        return bool(self._geti("enabled"))

    def set_enabled(self, enabled: bool) -> None:
        """Parent-side gate: workers skip all writes while disabled."""
        self._hdr["enabled"][0] = 1 if enabled else 0

    def set_pid(self, pid: int) -> None:
        """The slot's producer: the worker writes its own at install; the
        parent zeroes it before spawning the slot's next occupant."""
        self._hdr["pid"][0] = pid

    # -- producer ----------------------------------------------------------

    def try_record(self, kind: int, name: str, *, start: float = 0.0,
                   end: float = 0.0, value: float = 0.0, job: int = 0,
                   slot: int = 0,
                   attrs: dict[str, Any] | None = None) -> bool:
        """Publish one record; False (and ``dropped`` bumped) when full.

        Never blocks and never raises for a full ring -- this runs on
        the worker's kernel hot path.
        """
        hdr = self._hdr
        head = int(hdr["head"][0])
        if head - int(hdr["tail"][0]) >= self.capacity:
            hdr["dropped"][0] += 1
            return False
        rec = self._records[head % self.capacity]
        rec["seq"] = 0
        rec["kind"] = kind
        rec["slot"] = slot
        rec["job"] = job
        rec["start"] = start
        rec["end"] = end
        rec["value"] = value
        rec["name"] = name.encode("utf-8", "replace")[:NAME_BYTES]
        rec["meta"] = encode_attrs(attrs) if attrs else b""
        # Publication order: body above, seq validates, head publishes.
        rec["seq"] = head + 1
        hdr["head"][0] = head + 1
        return True

    # -- consumer ----------------------------------------------------------

    def drain(self) -> list[RemoteRecord]:
        """Consume every published record (parent side).

        ``head`` is snapshotted first, so a record the worker is writing
        *right now* is never read.  A record below the snapshot whose
        ``seq`` does not validate (a torn write from a killed producer)
        is skipped and counted in ``torn`` -- the ring stays drainable
        past it.
        """
        hdr = self._hdr
        head = int(hdr["head"][0])
        tail = int(hdr["tail"][0])
        out: list[RemoteRecord] = []
        for i in range(tail, head):
            rec = self._records[i % self.capacity]
            if int(rec["seq"]) != i + 1:
                hdr["torn"][0] += 1
                continue
            out.append(RemoteRecord(
                kind=int(rec["kind"]),
                slot=int(rec["slot"]),
                job=int(rec["job"]),
                start=float(rec["start"]),
                end=float(rec["end"]),
                value=float(rec["value"]),
                name=bytes(rec["name"]).decode("utf-8", "replace"),
                attrs=decode_attrs(bytes(rec["meta"])),
            ))
        hdr["tail"][0] = head
        return out


class RingBoard:
    """All workers' rings packed into one shared-memory segment.

    The parent creates the board (owner side) and drains every slot; a
    worker attaches and writes only its own slot's ring.  Slot regions
    are rows of a 2-D uint8 array, so they never share cache lines
    beyond the row boundary and never alias.
    """

    def __init__(self, segment: "SharedArray") -> None:
        shape = segment.ndarray.shape
        if len(shape) != 2:
            raise ReproError("ring board segment must be 2-D (slots, bytes)")
        self._segment = segment
        self.slots = int(shape[0])
        self._rings: dict[int, TelemetryRing] = {}

    @classmethod
    def create(cls, slots: int,
               capacity: int = DEFAULT_CAPACITY) -> "RingBoard":
        """Allocate the owner-side board (parent, at backend start)."""
        from repro.runtime.shm import SharedArray

        if slots <= 0:
            raise ReproError(f"ring board needs >= 1 slot, got {slots}")
        segment = SharedArray.create((slots, ring_bytes(capacity)),
                                     dtype=np.uint8, role="telemetry-rings")
        segment.ndarray[...] = 0
        return cls(segment)

    @classmethod
    def attach(cls, descriptor: "ShmDescriptor") -> "RingBoard":
        """Map an existing board (worker side; never unlinks)."""
        from repro.runtime.shm import SharedArray

        return cls(SharedArray.attach(descriptor))

    @property
    def descriptor(self) -> "ShmDescriptor":
        return self._segment.descriptor

    def ring(self, slot: int) -> TelemetryRing:
        if not 0 <= slot < self.slots:
            raise ReproError(
                f"ring slot {slot} out of range [0, {self.slots})"
            )
        ring = self._rings.get(slot)
        if ring is None:
            ring = self._rings[slot] = TelemetryRing(
                self._segment.ndarray[slot]
            )
        return ring

    def set_enabled(self, enabled: bool) -> None:
        for slot in range(self.slots):
            self.ring(slot).set_enabled(enabled)

    def close(self) -> None:
        self._rings.clear()
        self._segment.close()

    def unlink(self) -> None:
        self._rings.clear()
        self._segment.unlink()


# -- the worker-side writer -------------------------------------------------
#
# One process-global writer per worker process, installed by the worker
# entry point.  Worker processes run their task loop single-threaded,
# so no thread-local machinery is needed.


class _WorkerState:
    __slots__ = ("board", "ring", "slot", "job")

    def __init__(self) -> None:
        self.board: RingBoard | None = None
        self.ring: TelemetryRing | None = None
        self.slot = 0
        self.job = 0

    def record(self, kind: int, name: str, *, start: float | None = None,
               value: float = 0.0,
               attrs: dict[str, Any] | None = None) -> None:
        """Write one record tagged with the current job, ending now (and
        starting now, unless ``start`` says when); a no-op unless the
        ring is installed and enabled."""
        ring = self.ring
        if ring is None or not ring.enabled:
            return
        end = time.perf_counter()
        ring.try_record(kind, name, start=end if start is None else start,
                        end=end, value=value, job=self.job, slot=self.slot,
                        attrs=attrs)


#: This process's writer; the ``telemetry.*`` helpers record through it
#: when no collector is active.
WORKER = _WorkerState()


def install_worker_ring(descriptor: "ShmDescriptor", slot: int) -> None:
    """Attach the board and adopt ``slot`` (worker side, at startup)."""
    board = RingBoard.attach(descriptor)
    ring = board.ring(slot)
    ring.set_pid(os.getpid())
    WORKER.board = board
    WORKER.ring = ring
    WORKER.slot = slot
    WORKER.job = 0


def set_current_job(job_id: int) -> None:
    """Tag subsequent records with the dispatched job's id."""
    WORKER.job = job_id


def worker_ring_stats() -> dict[str, int]:
    """Producer-side ring counters (shipped back by diagnostics)."""
    ring = WORKER.ring
    if ring is None:
        return {"installed": 0, "written": 0, "dropped": 0}
    return {"installed": 1, "written": ring.written, "dropped": ring.dropped}


# -- parent-side merge -------------------------------------------------------


def merge_records(records: list[RemoteRecord],
                  collectors: "tuple[TelemetryCollector, ...]",
                  *, pid: int,
                  orphans: "list[tuple[RemoteRecord, list[Any]]] | None" = None,
                  ) -> int:
    """Fold drained records into the active collectors; returns count.

    Span/gauge/event timestamps are already on the parent's
    ``perf_counter`` timeline (see the module docstring).  Spans land with
    ``thread_id = pid`` plus ``process_pid`` / ``worker_slot`` (and
    ``job``, when tagged) attributes -- the keys the Chrome-trace
    exporter uses to build per-worker-process tracks and flow events.
    A job's nested spans are linked: a worker writes a span on exit, so
    inner spans precede the one enclosing them, which adopts them
    (``parent_id``) when it arrives.  ``orphans`` carries the spans still
    waiting for theirs (each with its per-collector copies); a caller
    that drains a ring mid-job passes the same list to the next merge.
    """
    merged = 0
    if orphans is None:
        orphans = []
    for record in records:
        if record.kind == KIND_SPAN:
            attrs = dict(record.attrs)
            attrs["process_pid"] = pid
            attrs["worker_slot"] = record.slot
            if record.job:
                attrs.setdefault("job", record.job)
            spans = [collector.record_span(record.name, record.start,
                                           record.end, thread_id=pid,
                                           attrs=attrs)
                     for collector in collectors]
            waiting = []
            for inner, copies in orphans:
                if inner.job != record.job or not record.job:
                    continue  # another job's: its parent will not come
                if record.start <= inner.start and inner.end <= record.end:
                    for child, parent in zip(copies, spans):
                        child.parent_id = parent.span_id
                else:
                    waiting.append((inner, copies))
            orphans[:] = waiting + [(record, spans)]
        elif record.kind == KIND_COUNTER:
            for collector in collectors:
                collector.add(record.name, record.value)
        elif record.kind == KIND_GAUGE:
            for collector in collectors:
                collector.gauge_at(record.name, record.value, record.start)
        elif record.kind == KIND_EVENT:
            attrs = dict(record.attrs)
            attrs["process_pid"] = pid
            attrs["worker_slot"] = record.slot
            for collector in collectors:
                collector.record_event_at(record.name, record.start,
                                          attrs=attrs)
        else:
            continue  # unknown kind from a future format: skip, not raise
        merged += 1
    return merged
