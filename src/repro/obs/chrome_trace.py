"""Chrome trace-event export: one collected run as a Perfetto timeline.

Converts a :class:`~repro.telemetry.collector.TelemetryCollector`
snapshot into the Chrome trace-event JSON format (the ``traceEvents``
array understood by Perfetto and ``chrome://tracing``):

* every finished span becomes a complete duration event (``ph: "X"``)
  with microsecond timestamps relative to the earliest record and a
  small stable ``tid`` per OS thread;
* spans merged from worker processes (they carry a ``process_pid``
  attribute, see :mod:`repro.telemetry.remote`) land on their own
  ``pid`` track, labelled by a ``process_name`` metadata event, so a
  process-backend run renders one real track per worker process;
* every dispatched job is stitched across the process boundary with
  flow events (``ph: "s"/"t"/"f"``): the parent's ``pool/dispatch``
  span starts the arrow, the worker-side execution span receives it,
  and the dispatch span's end (result collection) terminates it --
  all keyed by the shared ``job`` id;
* every gauge write becomes a counter event (``ph: "C"``) -- the goodput
  and throughput gauges render as per-layer counter tracks;
* every point event (retune, quarantine, fault injection, supervisor
  kill/respawn, checkpoint) becomes a global instant event (``ph: "i"``);
* ``thread_name`` / ``process_name`` metadata events (``ph: "M"``)
  label each track.

All attribute values are sanitised to JSON scalars, so the output always
round-trips through ``json.loads``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.telemetry.collector import Span, TelemetryCollector

#: The parent process's trace pid.  Worker-process spans use their real
#: OS pid (always > 1 in practice; a worker claiming pid 1 would simply
#: merge into the parent track rather than corrupt the trace).
PID = 1


def _json_scalar(value: Any) -> Any:
    """Coerce an attribute value to something JSON-serialisable."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    try:  # numpy scalars expose item()
        return _json_scalar(value.item())
    except AttributeError:
        return str(value)


def _args(attrs: dict[str, Any]) -> dict[str, Any]:
    return {key: _json_scalar(value) for key, value in attrs.items()}


def _span_pid(span: Span) -> int:
    """The trace pid a span renders under (worker pid or parent)."""
    pid = span.attrs.get("process_pid")
    if isinstance(pid, int) and pid > 0:
        return pid
    return PID


def _track_ids(collector: TelemetryCollector) -> dict[tuple[int, int], int]:
    """Map ``(pid, os_thread_id)`` to small stable tids (record order).

    Tids restart from 1 within each pid: Perfetto namespaces threads by
    process, and merged worker records stamp one logical writer per
    process.
    """
    tids: dict[tuple[int, int], int] = {}
    per_pid: dict[int, int] = {}
    for span in collector.spans:
        key = (_span_pid(span), span.thread_id)
        if key not in tids:
            per_pid[key[0]] = per_pid.get(key[0], 0) + 1
            tids[key] = per_pid[key[0]]
    return tids


def _origin(collector: TelemetryCollector) -> float:
    """The trace's zero point: the earliest timestamp recorded."""
    candidates = [s.start for s in collector.spans]
    candidates += [e.time for e in collector.events]
    candidates += [t for points in collector.gauge_series.values()
                   for t, _ in points]
    return min(candidates, default=0.0)


def _flow_events(collector: TelemetryCollector, origin: float,
                 tids: dict[tuple[int, int], int]) -> list[dict[str, Any]]:
    """Dispatch -> execution -> collection arrows, one chain per job id.

    A chain is emitted only when both sides recorded the job: the
    parent's ``pool/dispatch`` span and at least one worker-process span
    carrying the same ``job`` attribute.  The flow starts when dispatch
    begins, touches each worker execution span as it starts, and
    finishes at the dispatch span's end -- which is when the parent
    collected the result.
    """
    dispatches: dict[int, Span] = {}
    executions: dict[int, list[Span]] = {}
    for span in collector.spans:
        if span.end is None:
            continue
        job = span.attrs.get("job")
        if not isinstance(job, int):
            continue
        if span.name == "pool/dispatch":
            dispatches.setdefault(job, span)
        elif "process_pid" in span.attrs:
            executions.setdefault(job, []).append(span)
    out: list[dict[str, Any]] = []
    for job, dispatch in sorted(dispatches.items()):
        workers = executions.get(job)
        if not workers:
            continue
        base = {"name": "job", "cat": "flow", "id": job}
        assert dispatch.end is not None
        out.append({
            **base, "ph": "s",
            "ts": (dispatch.start - origin) * 1e6,
            "pid": PID, "tid": tids[(PID, dispatch.thread_id)],
        })
        for execution in sorted(workers, key=lambda s: s.start):
            out.append({
                **base, "ph": "t",
                "ts": (execution.start - origin) * 1e6,
                "pid": _span_pid(execution),
                "tid": tids[(_span_pid(execution), execution.thread_id)],
            })
        out.append({
            **base, "ph": "f", "bp": "e",
            "ts": (dispatch.end - origin) * 1e6,
            "pid": PID, "tid": tids[(PID, dispatch.thread_id)],
        })
    return out


def chrome_trace_events(collector: TelemetryCollector) -> list[dict[str, Any]]:
    """The ``traceEvents`` array for one collected run.

    Every emitted event carries ``name``, ``ph``, ``ts``, ``pid`` and
    ``tid``.  Unfinished spans are skipped -- they have no duration and
    Perfetto rejects ``X`` events without ``dur``.
    """
    origin = _origin(collector)
    tids = _track_ids(collector)
    out: list[dict[str, Any]] = []
    slots: dict[int, Any] = {}
    for span in collector.spans:
        slot = span.attrs.get("worker_slot")
        if slot is not None:
            slots.setdefault(_span_pid(span), slot)
    for pid in sorted({pid for pid, _ in tids}):
        name = ("parent" if pid == PID
                else f"worker-{slots.get(pid, '?')} (pid {pid})")
        out.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
            "tid": 0, "args": {"name": name},
        })
    for (pid, os_tid), tid in tids.items():
        out.append({
            "name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
            "tid": tid, "args": {"name": f"thread-{tid} (os {os_tid})"},
        })
    for span in collector.spans:
        if span.end is None:
            continue
        pid = _span_pid(span)
        out.append({
            "name": span.name,
            "cat": str(span.attrs.get("phase", "span")),
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": tids[(pid, span.thread_id)],
            "args": _args(span.attrs),
        })
    out.extend(_flow_events(collector, origin, tids))
    for name, points in sorted(collector.gauge_series.items()):
        for when, value in points:
            out.append({
                "name": name,
                "ph": "C",
                "ts": (when - origin) * 1e6,
                "pid": PID,
                "tid": 0,
                "args": {"value": _json_scalar(value)},
            })
    for recorded in collector.events:
        out.append({
            "name": recorded.name,
            "cat": "event",
            "ph": "i",
            "s": "g",
            "ts": (recorded.time - origin) * 1e6,
            "pid": PID,
            "tid": 0,
            "args": _args(recorded.attrs),
        })
    return out


def chrome_trace_dict(collector: TelemetryCollector) -> dict[str, Any]:
    """The full JSON-object trace format (Perfetto-loadable)."""
    return {
        "traceEvents": chrome_trace_events(collector),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(collector: TelemetryCollector,
                       path: str | Path) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace_dict(collector)) + "\n")
    return path
