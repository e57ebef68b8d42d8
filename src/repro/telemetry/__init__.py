"""``repro.telemetry``: unified tracing, counters and goodput metrics.

Usage, from measuring code::

    from repro import telemetry
    from repro.obs.chrome_trace import write_chrome_trace

    with telemetry.collect() as tel:
        run_training()                      # instrumented code records here
    write_chrome_trace(tel, "results/trace.json")

and from instrumented code -- the one telemetry API, in every process
(no-ops unless a collector is active or, in a spawned worker, the
parent has enabled the worker's ring; see :mod:`repro.telemetry.remote`)::

    with telemetry.span("conv1/fp", engine="stencil", batch=16):
        ...
    telemetry.add("images.processed", 16)
    telemetry.gauge("goodput.conv1", flops_per_second)
    telemetry.event("retune", layer="conv1", old="gemm", new="sparse")

A span's duration is stored once, in the span; the reports that need a
distribution (:meth:`repro.obs.monitor.TrainingMonitor.layer_stats`'s
BP p95) compute it from the spans.  A training run's tables are
``repro train``'s run report (:mod:`repro.obs.monitor`), and its
timeline the Chrome trace (:mod:`repro.obs.chrome_trace`).
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
    span,
)

__all__ = [
    "Event",
    "Span",
    "TelemetryCollector",
    "active_collectors",
    "add",
    "collect",
    "event",
    "gauge",
    "span",
]
