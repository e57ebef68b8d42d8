"""Analytical performance model of the paper's multicore CPU."""

from repro.machine.baselines import PlatformProfile, adam_profile, caffe_profile
from repro.machine.cost_backend import ModelCostBackend
from repro.machine.executor import fig9_configs, training_throughput
from repro.machine.gemm_model import GemmProfile
from repro.machine.roofline import Phase, phase_time
from repro.machine.spec import MachineSpec, laptop_4core, xeon_e5_2650

__all__ = [
    "MachineSpec",
    "ModelCostBackend",
    "xeon_e5_2650",
    "laptop_4core",
    "Phase",
    "phase_time",
    "GemmProfile",
    "PlatformProfile",
    "adam_profile",
    "caffe_profile",
    "fig9_configs",
    "training_throughput",
]
