"""``repro.check``: static verification of generated kernels, graphs
and the parallel runtime.

Four analyzers prove correctness properties *before* anything runs on
training data, so codegen drift and runtime races surface at check time
instead of as silent numerical corruption mid-training:

* :mod:`repro.check.gen_source` -- every emitted C unit against the
  scheduled nest it was printed from (literals, tap order and tables,
  scratch sections, blocks written exactly once), without a compiler;
* :mod:`repro.check.graph` -- shape/dtype propagation over networks,
  wired into :class:`TrainingLoop` as a fail-fast
  pre-flight;
* :mod:`repro.check.effects` -- effect-typed happens-before verifier
  over compiled task graphs: every node declares the buffer regions it
  reads/writes, an AST pass cross-checks the declarations against the
  node body, and a reachability pass proves no unordered pair of nodes
  conflicts (wired into :class:`TrainingLoop` when ``scheduler="dag"``);
* :mod:`repro.check.concurrency` -- lint for shared mutable state
  under the worker pool, telemetry misuse, and shm handles or engine
  scratch captured by submitted callables.

Like every package ``__init__`` here, this one imports nothing: the
training pre-flight loads :mod:`repro.check.graph` alone.

Usage::

    from repro.check.runner import run_all

    report = run_all()              # or: python -m repro check
    if not report.ok:
        report.raise_if_errors()    # CheckError naming every violation
"""
