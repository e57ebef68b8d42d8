"""``repro.check``: static verification of generated kernels, graphs
and the parallel runtime.

Five analyzers prove correctness properties *before* anything runs on
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
* :mod:`repro.check.concurrency` -- lint for mutable defaults, shared
  mutable state under the worker pool, and telemetry misuse;
* :mod:`repro.check.lifecycle` -- shared-memory buffer lifecycle
  analyzer over the shm-owning runtime modules (use-after-release,
  orphaned owners, unlink-by-attacher, registry evictions that leak).

Usage::

    from repro import check

    report = check.run_all()        # or: python -m repro check
    if not report.ok:
        report.raise_if_errors()    # CheckError naming every violation
"""

from typing import Any

from repro.check.findings import SEVERITIES, CheckReport, Finding


def run_all(**kwargs: Any) -> CheckReport:
    """Run every analyzer over the default corpus; see ``runner.run_all``.

    Imported lazily so ``repro.check`` stays cheap to import from the
    training path's pre-flight hook.
    """
    from repro.check.runner import run_all as _run_all

    return _run_all(**kwargs)


__all__ = ["CheckReport", "Finding", "SEVERITIES", "run_all"]
