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
  (``xeon_e5_2650``, ``ModelCostBackend``), which the paper book prices
  with; :mod:`repro.analysis.figures` regenerates every table/figure.
  Training never imports it.
"""

from repro.check import CheckReport, Finding
from repro.core.autotuner import Autotuner, MeasuredCostBackend
from repro.core.characterization import Region, characterize, classify
from repro.core.convspec import ConvSpec, square_conv
from repro.core.framework import SpgCNN
from repro.core.goodput import GoodputReport, dense_goodput_bound, measure_sparsity
from repro.core.plan import ExecutionPlan, LayerPlan
from repro.nn.netdef import build_network, network_from_text
from repro.nn.network import Network
from repro.nn.sgd import SGDTrainer
from repro.nn.training_loop import TrainingLoop
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool
from repro.ops.engine import ConvEngine, engine_names, make_engine
from repro.telemetry import TelemetryCollector

# Importing the engine modules registers them with make_engine.
import repro.nn.layers.conv  # noqa: F401

__version__ = "1.0.0"

__all__ = [
    "CheckReport",
    "Finding",
    "ConvSpec",
    "square_conv",
    "Region",
    "characterize",
    "classify",
    "GoodputReport",
    "dense_goodput_bound",
    "measure_sparsity",
    "ConvEngine",
    "engine_names",
    "make_engine",
    "Autotuner",
    "MeasuredCostBackend",
    "ExecutionPlan",
    "LayerPlan",
    "SpgCNN",
    "Network",
    "build_network",
    "network_from_text",
    "SGDTrainer",
    "TrainingLoop",
    "ParallelExecutor",
    "WorkerPool",
    "TelemetryCollector",
    "__version__",
]
