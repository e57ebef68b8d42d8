"""Cross-process telemetry: worker records ride home with the job result.

The process backend (:mod:`repro.runtime.backends`) runs the hot FP/BP
kernels inside persistent spawned worker processes.  The parent-side
collector (:mod:`repro.telemetry.collector`) cannot see into them: a
collector object pickled into a spawned worker is a dead copy, and the
goodput attribution the paper's Sec. 5 argues from -- where *worker*
time actually goes -- needs exactly those in-worker measurements.

This module is the bridge:

* :data:`WORKER` -- the worker's recorder.  While the parent has asked
  for telemetry with a job, the worker entry point gives it a fresh
  list, and the ordinary ``telemetry.span`` / ``add`` / ``gauge`` /
  ``event`` helpers append one :data:`Record` per call to it (see
  :mod:`repro.telemetry.collector`), so the same instrumented code
  reports from the parent and from a spawned worker.  The list travels
  back in the job's result message, on the worker's private pipe, for
  a result and for an error alike.
* one clock -- workers stamp records with ``time.perf_counter``, the
  clock the parent's collector times its own spans with.  On Linux it
  is ``CLOCK_MONOTONIC``, one system-wide clock shared by every
  process, so worker stamps land on the parent's timeline as they are:
  a span a worker times inside a dispatch nests inside the parent's
  reads around that dispatch.
* :func:`merge_records` -- a job's records land in the ordinary
  parent-side :class:`~repro.telemetry.collector.TelemetryCollector`\\ s
  as spans/counters/gauges/events carrying ``process_pid`` /
  ``worker_slot`` / ``job`` attributes, which is what gives Chrome
  traces real per-worker-process tracks and flow-event linkage.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.collector import TelemetryCollector

#: Record kinds (the first field of every record).
KIND_SPAN = 1
KIND_COUNTER = 2
KIND_EVENT = 3
KIND_GAUGE = 4

#: One worker record: ``(kind, name, start, end, value, attrs)``, with
#: ``start``/``end`` raw ``time.perf_counter`` stamps.
Record = tuple[int, str, float, float, float, dict[str, Any]]


class _WorkerState:
    """This process's recorder; worker processes run their task loop
    single-threaded, so no thread-local machinery is needed."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        #: The running job's records; ``None`` while nobody listens.
        self.records: list[Record] | None = None

    def record(self, kind: int, name: str, *, start: float | None = None,
               value: float = 0.0,
               attrs: dict[str, Any] | None = None) -> None:
        """Append one record ending now (and starting now, unless
        ``start`` says when); a no-op while ``records`` is ``None``."""
        records = self.records
        if records is None:
            return
        end = time.perf_counter()
        records.append((kind, name, end if start is None else start, end,
                        value, attrs or {}))


#: This process's recorder; the ``telemetry.*`` helpers record through
#: it when no collector is active.
WORKER = _WorkerState()


def merge_records(records: list[Record],
                  collectors: "tuple[TelemetryCollector, ...]",
                  *, pid: int, slot: int, job: int) -> int:
    """Fold one job's records into the active collectors; returns count.

    Span/gauge/event timestamps are already on the parent's
    ``perf_counter`` timeline (see the module docstring).  Spans land with
    ``thread_id = pid``; spans and events carry ``process_pid`` /
    ``worker_slot`` / ``job`` attributes -- the keys the Chrome-trace
    exporter uses to build per-worker-process tracks and flow events.
    A job's nested spans are linked in one pass: a worker records a span
    on exit, so inner spans precede the one enclosing them, which adopts
    them (``parent_id``) when it arrives.
    """
    merged = 0
    # (start, end, per-collector copies) of the spans no merged span has
    # enclosed yet, in arrival order.
    waiting: list[tuple[float, float, list[Any]]] = []
    for kind, name, start, end, value, attrs in records:
        tagged = {"job": job, **attrs, "process_pid": pid,
                  "worker_slot": slot}
        if kind == KIND_SPAN:
            spans = [collector.record_span(name, start, end, thread_id=pid,
                                           attrs=tagged)
                     for collector in collectors]
            # Spans arrive in exit order, so the ones this span encloses
            # are the latest still waiting.
            while (waiting and start <= waiting[-1][0]
                   and waiting[-1][1] <= end):
                for child, parent in zip(waiting.pop()[2], spans):
                    child.parent_id = parent.span_id
            waiting.append((start, end, spans))
        elif kind == KIND_COUNTER:
            for collector in collectors:
                collector.add(name, value)
        elif kind == KIND_GAUGE:
            for collector in collectors:
                collector.gauge_at(name, value, start)
        elif kind == KIND_EVENT:
            for collector in collectors:
                collector.record_event_at(name, start, attrs=tagged)
        else:
            continue  # unknown kind from a future format: skip, not raise
        merged += 1
    return merged
