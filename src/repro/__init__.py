"""spg-CNN: optimizing CNN training on multicores (ASPLOS'17 reproduction).

Public API highlights:

* :class:`repro.ConvSpec` -- convolution shape algebra and AIT formulas.
* :func:`repro.characterize` -- place a convolution in the Fig. 1
  design space.
* :func:`repro.make_engine` -- instantiate any of the execution engines
  (``parallel-gemm``, ``gemm-in-parallel``, ``stencil``, ``sparse``).
* :class:`repro.SpgCNN` -- the optimization framework: plans, deploys and
  re-tunes the fastest engine per layer and phase of a network.
* :mod:`repro.machine` -- the analytical model of the paper's machine
  (``repro.machine.spec.xeon_e5_2650``,
  ``repro.machine.cost_backend.ModelCostBackend``), which the paper book
  prices with; :mod:`repro.analysis.figures` regenerates every
  table/figure.  Training never imports it.

``import repro`` imports nothing else: each top-level name loads its
defining module on first access (:data:`_EXPORTS`), so ``import
repro.cli`` or a spawned worker pays only for the modules its run
executes.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Each top-level name and the module that defines it.
_EXPORTS = {
    "CheckReport": "repro.check.findings",
    "Finding": "repro.check.findings",
    "ConvSpec": "repro.core.convspec",
    "square_conv": "repro.core.convspec",
    "Region": "repro.core.characterization",
    "characterize": "repro.core.characterization",
    "classify": "repro.core.characterization",
    "GoodputReport": "repro.core.goodput",
    "dense_goodput_bound": "repro.core.goodput",
    "measure_sparsity": "repro.core.goodput",
    "ConvEngine": "repro.ops.engine",
    "engine_names": "repro.ops.engine",
    "make_engine": "repro.ops.engine",
    "Autotuner": "repro.core.autotuner",
    "MeasuredCostBackend": "repro.core.autotuner",
    "ExecutionPlan": "repro.core.plan",
    "LayerPlan": "repro.core.plan",
    "SpgCNN": "repro.core.framework",
    "Network": "repro.nn.network",
    "build_network": "repro.nn.netdef",
    "network_from_text": "repro.nn.netdef",
    "SGDTrainer": "repro.nn.sgd",
    "TrainingLoop": "repro.nn.training_loop",
    "ParallelExecutor": "repro.runtime.parallel",
    "WorkerPool": "repro.runtime.pool",
    "TelemetryCollector": "repro.telemetry.collector",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
