"""``repro.resilience``: fault injection, retry policy and quarantine.

The paper positions spg-CNN as the per-worker engine inside long-running
distributed platforms (Sec. 6), where a single worker exception, NaN
batch or process death must not lose the run.  This package provides the
three fault-handling substrates the rest of the stack builds on:

* :mod:`repro.resilience.faults` -- a deterministic, seeded fault
  injector.  Instrumented sites (worker-pool tasks, gradients, engine
  calls) consult the active :class:`FaultPlan` and raise or corrupt on
  cue; no-ops when no plan is active.
* :mod:`repro.resilience.policy` -- the retry policy:
  :class:`RetryPolicy` (bounded retries with exponential backoff, the
  process backend's redispatch budget) and :func:`run_with_retries`,
  the one loop the worker pool runs every task through.  Hangs are the
  process backend's to judge, by its measured deadline.
* :mod:`repro.resilience.quarantine` -- the engine quarantine registry:
  a generated kernel that raises or fails a numeric guard is benched for
  that layer/phase, and both the conv layer and the autotuner route
  around it.

The chaos harness (:mod:`repro.resilience.chaos`, ``python -m repro
chaos``) is the fourth module.  Like every package ``__init__`` here,
this one imports nothing.
"""
