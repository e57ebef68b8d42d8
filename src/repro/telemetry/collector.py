"""The in-memory telemetry collector: spans, counters, gauges, events.

The paper's framework is measurement-driven -- the autotuner selects
techniques from observed costs and re-checks its BP choice as sparsity
drifts (Sec. 4.4) -- so the runtime needs a uniform way to record what it
actually did.  This module provides that substrate:

* :class:`Span` -- one timed region (a layer's FP pass, a worker's image
  range) with wall-clock bounds, thread id and parent linkage;
* :class:`Event` -- a point-in-time occurrence (a retune decision);
* :class:`TelemetryCollector` -- a thread-safe sink accumulating spans,
  monotonic counters, gauges and events.

Instrumented code never talks to a collector directly: it calls the
module-level :func:`span` / :func:`add` / :func:`gauge` / :func:`event`
helpers -- the one telemetry API, in every process.  In the parent they
fan out to every *active* collector (see :func:`collect`).  In a spawned
worker, whose collector stack is always empty, they append to the
running job's record list while the parent listens
(:mod:`repro.telemetry.remote`); the list rides home with the job's
result and the parent merges it into its own collectors.  With neither
a collector nor a record list the helpers are no-ops, so the
instrumented hot paths cost one tuple lookup and one attribute check
when nobody is measuring.

Collectors may be nested (``collect`` inside ``collect``): emission goes
to all of them, so a monitor and a caller's own collector can watch the
same run without corrupting each other.  A span's duration is stored
once, in the span; a report that needs a distribution computes it from
the spans.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ReproError
from repro.telemetry.remote import (
    KIND_COUNTER,
    KIND_EVENT,
    KIND_GAUGE,
    KIND_SPAN,
    WORKER,
)


@dataclass
class Span:
    """One timed region of execution."""

    name: str
    span_id: int
    thread_id: int
    start: float
    end: float | None = None
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Wall-clock duration; raises if the span was never finished."""
        if self.end is None:
            raise ReproError(f"span {self.name!r} (id {self.span_id}) not finished")
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start": self.start,
            "end": self.end,
            "seconds": self.end - self.start if self.end is not None else None,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class Event:
    """A point-in-time occurrence (e.g. one retune decision)."""

    name: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "time": self.time, "attrs": dict(self.attrs)}


class TelemetryCollector:
    """Thread-safe in-memory sink for spans, counters, gauges and events.

    Finished spans, counters, gauges and events are appended under a lock;
    the per-thread span stack used for parent linkage lives in
    thread-local storage, so concurrent worker threads nest independently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: Full history of every gauge: ``name -> [(time, value), ...]``.
        #: ``gauges`` keeps only the latest value; the series feeds the
        #: Chrome-trace counter tracks (see :mod:`repro.obs.chrome_trace`).
        self.gauge_series: dict[str, list[tuple[float, float]]] = {}
        self._local = threading.local()

    # -- span lifecycle ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start_span(self, name: str, attrs: dict[str, Any] | None = None) -> Span:
        """Open a span; its parent is the innermost open span on this thread."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = next(self._ids)
        opened = Span(
            name=name,
            span_id=span_id,
            thread_id=threading.get_ident(),
            start=time.perf_counter(),
            parent_id=parent_id,
            attrs=dict(attrs or {}),
        )
        stack.append(opened)
        return opened

    def finish_span(self, opened: Span) -> Span:
        """Close a span returned by :meth:`start_span` and record it."""
        opened.end = time.perf_counter()
        stack = self._stack()
        if opened in stack:
            # Tolerate mismatched closes: drop the span and everything
            # opened after it on this thread.
            del stack[stack.index(opened):]
        with self._lock:
            self.spans.append(opened)
        return opened

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context manager recording one span into this collector."""
        opened = self.start_span(name, attrs)
        try:
            yield opened
        finally:
            self.finish_span(opened)

    # -- counters / gauges / events ---------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment a monotonic counter (negative increments are rejected)."""
        if value < 0:
            raise ReproError(
                f"counter {name!r} is monotonic; cannot add {value}"
            )
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest observed value (history retained)."""
        value = float(value)
        with self._lock:
            self.gauges[name] = value
            self.gauge_series.setdefault(name, []).append(
                (time.perf_counter(), value)
            )

    def event(self, name: str, **attrs: Any) -> Event:
        """Record a point-in-time event."""
        recorded = Event(name=name, time=time.perf_counter(), attrs=dict(attrs))
        with self._lock:
            self.events.append(recorded)
        return recorded

    # -- merge API (externally measured records) ---------------------------
    #
    # The remote-telemetry merge (:mod:`repro.telemetry.remote`) folds
    # worker-process measurements into the parent's collectors.  Those
    # records arrive already timed -- on the ``perf_counter`` timeline
    # every process shares -- so they bypass the span stack
    # and the collector's own clock reads.

    def record_span(self, name: str, start: float, end: float, *,
                    thread_id: int | None = None,
                    parent_id: int | None = None,
                    attrs: dict[str, Any] | None = None) -> Span:
        """Record an already-measured span (the remote-merge path).

        ``start``/``end`` must be on this collector's ``perf_counter``
        timeline.  The span never touches the per-thread stack, so it
        cannot corrupt live parent-linkage of open spans.
        """
        if end < start:
            raise ReproError(
                f"span {name!r}: end {end} precedes start {start}"
            )
        with self._lock:
            span_id = next(self._ids)
        recorded = Span(
            name=name,
            span_id=span_id,
            thread_id=(thread_id if thread_id is not None
                       else threading.get_ident()),
            start=start,
            end=end,
            parent_id=parent_id,
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self.spans.append(recorded)
        return recorded

    def record_event_at(self, name: str, when: float,
                        attrs: dict[str, Any] | None = None) -> Event:
        """Record a point event with an externally supplied timestamp."""
        recorded = Event(name=name, time=when, attrs=dict(attrs or {}))
        with self._lock:
            self.events.append(recorded)
        return recorded

    def gauge_at(self, name: str, value: float, when: float) -> None:
        """Set a gauge with an externally supplied series timestamp."""
        value = float(value)
        with self._lock:
            self.gauges[name] = value
            self.gauge_series.setdefault(name, []).append((when, value))

    # -- queries ----------------------------------------------------------

    def find_spans(
        self,
        name: str | None = None,
        predicate: Callable[[Span], bool] | None = None,
        **attr_filters: Any,
    ) -> list[Span]:
        """Finished spans matching a name, attribute values and predicate."""
        with self._lock:
            spans = list(self.spans)
        out = []
        for s in spans:
            if name is not None and s.name != name:
                continue
            if any(s.attrs.get(k) != v for k, v in attr_filters.items()):
                continue
            if predicate is not None and not predicate(s):
                continue
            out.append(s)
        return out


# -- the active-collector stack -------------------------------------------
#
# The stack is global (not thread-local) on purpose: spans emitted from
# worker-pool threads must land in the collector the main thread activated.

_ACTIVE: list[TelemetryCollector] = []
_ACTIVE_LOCK = threading.Lock()


def active_collectors() -> tuple[TelemetryCollector, ...]:
    """The currently active collectors, outermost first.

    The unlocked emptiness probe keeps disabled instrumentation cheap:
    the helpers below run on every batch, layer pass and pool task, and
    reading the list's truthiness is atomic under the GIL.  A caller
    racing an activation may miss the very first records -- the same
    outcome as calling a moment earlier -- never a torn read.
    """
    if not _ACTIVE:
        return ()
    with _ACTIVE_LOCK:
        return tuple(_ACTIVE)


@contextmanager
def collect(
    collector: TelemetryCollector | None = None,
) -> Iterator[TelemetryCollector]:
    """Activate a collector for the duration of the ``with`` block.

    Every :func:`span` / :func:`add` / :func:`gauge` / :func:`event` call
    made while the block runs -- from any thread -- is recorded into it
    (and into any other active collector).
    """
    collector = collector or TelemetryCollector()
    with _ACTIVE_LOCK:
        _ACTIVE.append(collector)
    try:
        yield collector
    finally:
        with _ACTIVE_LOCK:
            # Remove the topmost occurrence (collectors may repeat).
            for i in range(len(_ACTIVE) - 1, -1, -1):
                if _ACTIVE[i] is collector:
                    del _ACTIVE[i]
                    break


class _MultiSpan:
    """Context manager opening one span per active collector."""

    __slots__ = ("_entries",)

    def __init__(self, name: str, attrs: dict[str, Any],
                 collectors: tuple[TelemetryCollector, ...]):
        self._entries = [(c, c.start_span(name, attrs)) for c in collectors]

    def __enter__(self) -> "_MultiSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        for collector, opened in reversed(self._entries):
            collector.finish_span(opened)

    def annotate(self, **attrs: Any) -> None:
        """Add attributes only known once the spanned work has run."""
        for _, opened in self._entries:
            opened.attrs.update(attrs)


class _NullSpan:
    """No-op stand-in when nothing records."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _WorkerSpan:
    """A worker's span: timed on ``time.perf_counter``, recorded on exit --
    before the worker posts the job's result, which carries it home."""

    __slots__ = ("_name", "_attrs", "_start")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self._name = name
        self._attrs = attrs
        self._start = time.perf_counter()

    def __enter__(self) -> "_WorkerSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        WORKER.record(KIND_SPAN, self._name, start=self._start,
                      attrs=self._attrs)

    def annotate(self, **attrs: Any) -> None:
        self._attrs.update(attrs)


def span(name: str, **attrs: Any):
    """Record a span into every active collector, else into this
    worker's job records (no-op when neither records)."""
    collectors = active_collectors()
    if collectors:
        return _MultiSpan(name, attrs, collectors)
    if WORKER.records is None:
        return _NULL_SPAN
    return _WorkerSpan(name, attrs)


def add(name: str, value: float = 1.0) -> None:
    """Increment a counter in every active collector, else in this
    worker's job records (no-op when neither records)."""
    collectors = active_collectors()
    if collectors:
        for collector in collectors:
            collector.add(name, value)
    elif WORKER.records is not None:
        WORKER.record(KIND_COUNTER, name, value=value)


def gauge(name: str, value: float) -> None:
    """Set a gauge in every active collector, else in this worker's job
    records (no-op when neither records)."""
    collectors = active_collectors()
    if collectors:
        for collector in collectors:
            collector.gauge(name, value)
    elif WORKER.records is not None:
        WORKER.record(KIND_GAUGE, name, value=value)


def event(name: str, **attrs: Any) -> None:
    """Record an event in every active collector, else in this worker's
    job records (no-op when neither records)."""
    collectors = active_collectors()
    if collectors:
        for collector in collectors:
            collector.event(name, **attrs)
    elif WORKER.records is not None:
        WORKER.record(KIND_EVENT, name, attrs=attrs)
