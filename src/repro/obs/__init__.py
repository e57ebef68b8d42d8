"""``repro.obs``: the observability layer on top of ``repro.telemetry``.

The telemetry collector is the raw substrate (spans, counters, gauges,
events); this package turns one collected run into its reports:

* :mod:`repro.obs.chrome_trace` -- Chrome trace-event JSON, loadable in
  Perfetto / ``chrome://tracing``, with per-worker-process tracks and
  dispatch->execution flow events under the process backend;
* :mod:`repro.obs.monitor` -- :class:`TrainingMonitor`, a live view of a
  training run (per-layer FP/BP time, goodput, sparsity drift, retunes,
  resilience activity) plus a final markdown/JSON run report -- the one
  report of ``repro train``;
* :mod:`repro.obs.idle` -- worker idle-time derivation from span data
  (the barrier-vs-DAG comparison metric), including the worker-process
  mode fed by merged worker telemetry;
* :mod:`repro.obs.critical` -- DAG critical-path analysis and goodput
  attribution over ``scheduler="dag"`` steps.
"""

from repro.obs.chrome_trace import (
    chrome_trace_dict,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.critical import (
    CriticalPathReport,
    critical_path_report,
)
from repro.obs.idle import (
    total_worker_idle,
    total_worker_process_idle,
    worker_idle_times,
    worker_process_idle,
)
from repro.obs.monitor import RunReport, TrainingMonitor

__all__ = [
    "CriticalPathReport",
    "RunReport",
    "TrainingMonitor",
    "chrome_trace_dict",
    "chrome_trace_events",
    "critical_path_report",
    "total_worker_idle",
    "total_worker_process_idle",
    "worker_idle_times",
    "worker_process_idle",
    "write_chrome_trace",
]
