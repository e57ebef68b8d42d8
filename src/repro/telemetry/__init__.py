"""``repro.telemetry``: unified tracing, counters and goodput metrics.

Usage, from measuring code::

    from repro import telemetry

    with telemetry.collect() as tel:
        run_training()                      # instrumented code records here
    print(telemetry.spans_table(tel))
    print(telemetry.histograms_table(tel))
    telemetry.write_json(tel, "results/trace.json")

and from instrumented code -- the one telemetry API, in every process
(no-ops unless a collector is active or, in a spawned worker, the
parent has enabled the worker's ring; see :mod:`repro.telemetry.remote`)::

    with telemetry.span("conv1/fp", engine="stencil", batch=16):
        ...
    telemetry.add("images.processed", 16)
    telemetry.gauge("goodput.conv1", flops_per_second)
    telemetry.observe("batch.load_seconds", elapsed)
    telemetry.event("retune", layer="conv1", old="gemm", new="sparse")

Span durations are additionally auto-fed into a streaming histogram per
span name, so p50/p95/p99 latencies come for free with every trace.
``observe`` is parent-only: the worker ring has no histogram record.
"""

from repro.telemetry.collector import (
    Event,
    Span,
    TelemetryCollector,
    active_collectors,
    add,
    collect,
    event,
    gauge,
    observe,
    span,
)
from repro.telemetry.export import (
    aggregate_spans,
    collector_to_dict,
    counters_table,
    events_table,
    histograms_table,
    spans_table,
    write_json,
)
from repro.telemetry.histogram import StreamingHistogram

__all__ = [
    "Event",
    "Span",
    "StreamingHistogram",
    "TelemetryCollector",
    "active_collectors",
    "add",
    "aggregate_spans",
    "collect",
    "collector_to_dict",
    "counters_table",
    "event",
    "events_table",
    "gauge",
    "histograms_table",
    "observe",
    "span",
    "spans_table",
    "write_json",
]
