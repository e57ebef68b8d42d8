"""Exporters for collected telemetry: JSON traces and ASCII tables.

The JSON trace is the durable artifact (written next to ``results/`` by
the CLI ``trace`` command); the tables are the human-readable summary the
same command prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.analysis.reporting import format_table
from repro.telemetry.collector import TelemetryCollector


def collector_to_dict(collector: TelemetryCollector) -> dict[str, Any]:
    """JSON-friendly snapshot of everything the collector recorded."""
    spans = list(collector.spans)
    return {
        "spans": [s.to_dict() for s in spans],
        "counters": dict(collector.counters),
        "gauges": dict(collector.gauges),
        "gauge_series": {
            name: [[t, v] for t, v in points]
            for name, points in collector.gauge_series.items()
        },
        "histograms": {
            name: histogram.to_dict()
            for name, histogram in sorted(collector.histograms.items())
        },
        "events": [e.to_dict() for e in collector.events],
        "meta": {
            "num_spans": len(spans),
            "num_events": len(collector.events),
            "threads": len({s.thread_id for s in spans}),
        },
    }


def write_json(collector: TelemetryCollector, path: str | Path) -> Path:
    """Write the collector's snapshot as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(collector_to_dict(collector), indent=2) + "\n")
    return path


def aggregate_spans(collector: TelemetryCollector) -> dict[str, tuple[int, float]]:
    """Per span name: ``(count, total_seconds)`` over finished spans.

    Spans merged from a worker process's ring are kept apart per worker,
    under ``"<name> @w<slot>"``.
    """
    totals: dict[str, tuple[int, float]] = {}
    for s in collector.spans:
        if s.end is None:
            continue
        name = s.name
        if "worker_slot" in s.attrs:
            name = f"{name} @w{s.attrs['worker_slot']}"
        count, seconds = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, seconds + s.seconds)
    return totals


def spans_table(collector: TelemetryCollector, title: str = "spans") -> str:
    """Aggregated span table, hottest span name first; what ran in a
    worker process gets one row per worker."""
    totals = aggregate_spans(collector)
    rows = [
        [name, count, f"{seconds * 1e3:.2f}", f"{seconds / count * 1e3:.3f}"]
        for name, (count, seconds) in sorted(
            totals.items(), key=lambda kv: kv[1][1], reverse=True
        )
    ]
    return format_table(
        ["span", "count", "total (ms)", "mean (ms)"], rows, title=title
    )


def histograms_table(
    collector: TelemetryCollector, title: str = "histograms"
) -> str:
    """Distribution summary per histogram name, hottest total first.

    Span-duration histograms (auto-fed on span finish) and explicit
    ``observe`` metrics share this table; values render in milliseconds
    because durations dominate in practice.
    """
    entries = sorted(
        collector.histograms.items(),
        key=lambda kv: kv[1].total,
        reverse=True,
    )
    rows = []
    for name, histogram in entries:
        if histogram.count == 0:
            continue
        rows.append([
            name,
            histogram.count,
            f"{histogram.mean * 1e3:.3f}",
            f"{histogram.p50 * 1e3:.3f}",
            f"{histogram.p95 * 1e3:.3f}",
            f"{histogram.p99 * 1e3:.3f}",
            f"{histogram.max * 1e3:.3f}",
        ])
    return format_table(
        ["histogram", "count", "mean (ms)", "p50 (ms)", "p95 (ms)",
         "p99 (ms)", "max (ms)"],
        rows, title=title,
    )


def counters_table(collector: TelemetryCollector, title: str = "counters") -> str:
    """Counters and gauges in one table (gauges marked as such)."""
    rows = [
        [name, "counter", value] for name, value in sorted(collector.counters.items())
    ] + [
        [name, "gauge", value] for name, value in sorted(collector.gauges.items())
    ]
    return format_table(["metric", "kind", "value"], rows, title=title)


def events_table(collector: TelemetryCollector, title: str = "events") -> str:
    """One row per recorded event, in record order."""
    rows = [
        [e.name, ", ".join(f"{k}={v}" for k, v in sorted(e.attrs.items()))]
        for e in collector.events
    ]
    return format_table(["event", "attributes"], rows, title=title)
