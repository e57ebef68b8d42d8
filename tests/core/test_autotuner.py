"""Tests for the autotuner: selection logic over both cost backends."""

import pytest

from repro.core.autotuner import Autotuner, MeasuredCostBackend
from repro.core.convspec import ConvSpec, square_conv
from repro.data.tables import TABLE1_CONVS
from repro.errors import PlanError
from repro.machine.cost_backend import ModelCostBackend
from repro.machine.spec import xeon_e5_2650

MACHINE = xeon_e5_2650()


def model_tuner(cores=16, batch=16):
    return Autotuner(ModelCostBackend(MACHINE, cores=cores, batch=batch))


class TestModelBackendSelections:
    """The paper's Sec. 4.4 deployment rules must emerge from the model."""

    def test_small_conv_gets_stencil_fp(self):
        # ID0: 32 output features (< 128) -> Stencil-Kernel (FP).
        plan = model_tuner().plan_layer(TABLE1_CONVS[0])
        assert plan.fp_engine == "stencil"

    def test_large_conv_avoids_stencil_fp(self):
        # ID1: 1024 features -> a GEMM schedule wins FP.
        plan = model_tuner().plan_layer(TABLE1_CONVS[1])
        assert plan.fp_engine in ("gemm-in-parallel", "parallel-gemm")

    def test_dense_bp_uses_gemm(self):
        plan = model_tuner().plan_layer(TABLE1_CONVS[2], sparsity=0.0)
        assert plan.bp_engine in ("gemm-in-parallel", "parallel-gemm")

    def test_sparse_bp_wins_above_threshold(self):
        # Sec. 4.4: Sparse-Kernel (BP) is faster above ~75% sparsity.
        plan = model_tuner().plan_layer(TABLE1_CONVS[2], sparsity=0.85)
        assert plan.bp_engine == "sparse"

    def test_all_candidates_timed(self):
        plan = model_tuner().plan_layer(TABLE1_CONVS[0], sparsity=0.5)
        assert set(plan.fp_timings) == {"parallel-gemm", "gemm-in-parallel", "stencil"}
        assert set(plan.bp_timings) == {"parallel-gemm", "gemm-in-parallel", "sparse"}
        assert all(t > 0 for t in plan.fp_timings.values())

    def test_chosen_engine_is_fastest(self):
        plan = model_tuner().plan_layer(TABLE1_CONVS[3], sparsity=0.9)
        assert plan.fp_timings[plan.fp_engine] == min(plan.fp_timings.values())
        assert plan.bp_timings[plan.bp_engine] == min(plan.bp_timings.values())

    def test_single_core_prefers_nonparallel_schedules(self):
        # On one core Parallel-GEMM and GEMM-in-Parallel coincide modulo
        # overheads; the plan must still be valid.
        plan = model_tuner(cores=1, batch=1).plan_layer(TABLE1_CONVS[2])
        assert plan.fp_engine in ("gemm-in-parallel", "parallel-gemm", "stencil")


class TestFFTIsNotACandidate:
    """FFT convolution is a time model only (``machine.fft_model``)."""

    def test_fft_absent_from_plans(self):
        plan = model_tuner().plan_layer(TABLE1_CONVS[0])
        assert "fft" not in plan.fp_timings

    def test_fft_rejected_by_the_model_backend(self):
        backend = ModelCostBackend(MACHINE, cores=1, batch=1)
        with pytest.raises(PlanError):
            backend.time("fft", "fp", TABLE1_CONVS[0], 0.0)


class TestReplanBP:
    def test_replan_switches_to_sparse(self):
        tuner = model_tuner()
        plan = tuner.plan_layer(TABLE1_CONVS[2], sparsity=0.0)
        assert plan.bp_engine != "sparse"
        replanned = tuner.replan_bp(plan, sparsity=0.9)
        assert replanned.bp_engine == "sparse"
        assert replanned.fp_engine == plan.fp_engine  # FP untouched
        assert replanned.sparsity == 0.9

    def test_replan_switches_back_when_density_returns(self):
        tuner = model_tuner()
        plan = tuner.plan_layer(TABLE1_CONVS[2], sparsity=0.9)
        replanned = tuner.replan_bp(plan, sparsity=0.0)
        assert replanned.bp_engine != "sparse"


class TestModelBackendValidation:
    def test_rejects_bad_construction(self):
        with pytest.raises(PlanError):
            ModelCostBackend(MACHINE, cores=0, batch=1)
        with pytest.raises(PlanError):
            ModelCostBackend(MACHINE, cores=1, batch=0)

    def test_rejects_phase_mismatches(self):
        backend = ModelCostBackend(MACHINE, cores=1, batch=1)
        with pytest.raises(PlanError):
            backend.time("stencil", "bp", TABLE1_CONVS[0], 0.0)
        with pytest.raises(PlanError):
            backend.time("sparse", "fp", TABLE1_CONVS[0], 0.0)
        with pytest.raises(PlanError):
            backend.time("winograd", "fp", TABLE1_CONVS[0], 0.0)


class TestMeasuredBackend:
    def test_measures_real_engines(self):
        spec = ConvSpec(nc=2, ny=10, nx=10, nf=3, fy=3, fx=3)
        backend = MeasuredCostBackend(batch=1, repeats=1)
        t = backend.time("gemm-in-parallel", "fp", spec, 0.0)
        assert t > 0

    def test_produces_valid_plan(self):
        spec = ConvSpec(nc=2, ny=10, nx=10, nf=3, fy=3, fx=3)
        plan = Autotuner(MeasuredCostBackend(batch=1, repeats=1)).plan_layer(
            spec, sparsity=0.9
        )
        assert plan.fp_engine in ("parallel-gemm", "gemm-in-parallel", "stencil")
        assert plan.bp_engine in ("parallel-gemm", "gemm-in-parallel", "sparse")

    def test_phase_constraints_enforced(self):
        backend = MeasuredCostBackend(batch=1, repeats=1)
        spec = square_conv(8, 2, 2, 3)
        with pytest.raises(PlanError):
            backend.time("stencil", "bp", spec, 0.0)
        with pytest.raises(PlanError):
            backend.time("sparse", "fp", spec, 0.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(PlanError):
            MeasuredCostBackend(batch=0)
