"""``repro.resilience``: fault injection, retry policy and quarantine.

The paper positions spg-CNN as the per-worker engine inside long-running
distributed platforms (Sec. 6), where a single worker exception, NaN
batch or process death must not lose the run.  This package provides the
three fault-handling substrates the rest of the stack builds on:

* :mod:`repro.resilience.faults` -- a deterministic, seeded fault
  injector.  Instrumented sites (worker-pool tasks, gradients, engine
  calls) consult the active :class:`FaultPlan` and raise, hang or
  corrupt on cue; no-ops when no plan is active.
* :mod:`repro.resilience.policy` -- the resilient execution policy:
  :class:`RetryPolicy` (bounded retries with exponential backoff,
  per-attempt timeouts, straggler reassignment) and the supervised
  executor loop :func:`run_supervised` the worker pool delegates to.
* :mod:`repro.resilience.quarantine` -- the engine quarantine registry:
  a generated kernel that raises or fails a numeric guard is benched for
  that layer/phase, and both the conv layer and the autotuner route
  around it.

The chaos harness (:mod:`repro.resilience.chaos`, ``python -m repro
chaos``) is imported lazily by the CLI to keep this package free of
heavyweight nn imports.
"""

from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active_injector,
    corrupt_array,
    get_plan,
    inject,
    perturb,
    plan_names,
)
from repro.resilience.policy import (
    RetryPolicy,
    active_policy,
    apply_policy,
    run_supervised,
)
from repro.resilience.quarantine import (
    QuarantineRecord,
    QuarantineRegistry,
    default_registry,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "QuarantineRecord",
    "QuarantineRegistry",
    "RetryPolicy",
    "active_injector",
    "active_policy",
    "apply_policy",
    "corrupt_array",
    "default_registry",
    "get_plan",
    "inject",
    "perturb",
    "plan_names",
    "run_supervised",
]
