"""spg-CNN: optimizing CNN training on multicores (ASPLOS'17 reproduction).

Public API highlights:

* :class:`repro.ConvSpec` -- convolution shape algebra and AIT formulas.
* :func:`repro.characterize` -- place a convolution in the Fig. 1
  design space.
* :func:`repro.make_engine` -- instantiate any of the execution engines
  (``parallel-gemm``, ``gemm-in-parallel``, ``stencil``, ``sparse``).
* :class:`repro.SpgCNN` -- the optimization framework: plans, deploys and
  re-tunes the fastest engine per layer and phase of a network.
* :func:`repro.xeon_e5_2650` -- the paper's machine for the performance
  model; :mod:`repro.analysis.figures` regenerates every table/figure.
"""

from repro.check import CheckReport, Finding
from repro.core.autotuner import Autotuner, MeasuredCostBackend, ModelCostBackend
from repro.core.characterization import Region, characterize, classify
from repro.core.convspec import ConvSpec, square_conv
from repro.core.framework import SpgCNN
from repro.core.scheduler import WorkItem, schedule
from repro.core.workload import TrainingWorkload, estimate_training_time
from repro.core.goodput import GoodputReport, dense_goodput_bound, measure_sparsity
from repro.core.plan import ExecutionPlan, LayerPlan
from repro.machine.spec import MachineSpec, xeon_e5_2650
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
    "ModelCostBackend",
    "MeasuredCostBackend",
    "ExecutionPlan",
    "LayerPlan",
    "SpgCNN",
    "MachineSpec",
    "xeon_e5_2650",
    "Network",
    "build_network",
    "network_from_text",
    "SGDTrainer",
    "TrainingLoop",
    "WorkItem",
    "schedule",
    "TrainingWorkload",
    "estimate_training_time",
    "ParallelExecutor",
    "WorkerPool",
    "TelemetryCollector",
    "__version__",
]
