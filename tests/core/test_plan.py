"""Tests for execution plans."""

import pytest

from repro.core.plan import BP_CANDIDATES, FP_CANDIDATES, ExecutionPlan, LayerPlan
from repro.data.tables import TABLE1_CONVS
from repro.errors import PlanError


def make_plan(name="conv0", fp="gemm-in-parallel", bp="sparse", **kwargs):
    return LayerPlan(
        layer_name=name, spec=TABLE1_CONVS[0], fp_engine=fp, bp_engine=bp, **kwargs
    )


class TestLayerPlan:
    def test_candidate_sets_follow_section_4_4(self):
        assert "stencil" in FP_CANDIDATES and "sparse" not in FP_CANDIDATES
        assert "sparse" in BP_CANDIDATES and "stencil" not in BP_CANDIDATES

    def test_rejects_sparse_for_fp(self):
        with pytest.raises(PlanError):
            make_plan(fp="sparse")

    def test_rejects_stencil_for_bp(self):
        with pytest.raises(PlanError):
            make_plan(bp="stencil")

    def test_speedup_over_baseline(self):
        plan = make_plan(
            fp_timings={"parallel-gemm": 4.0, "gemm-in-parallel": 1.0},
            bp_timings={"parallel-gemm": 6.0, "sparse": 2.0},
        )
        assert plan.fp_speedup_over_baseline == pytest.approx(4.0)
        assert plan.bp_speedup_over_baseline == pytest.approx(3.0)

    def test_speedup_defaults_to_one_without_timings(self):
        plan = make_plan()
        assert plan.fp_speedup_over_baseline == 1.0
        assert plan.bp_speedup_over_baseline == 1.0


class TestExecutionPlan:
    def test_duplicate_names_rejected(self):
        with pytest.raises(PlanError):
            ExecutionPlan(layers=(make_plan("a"), make_plan("a")))

    def test_describe_lists_engines(self):
        plan = ExecutionPlan(layers=(make_plan("a", fp="stencil"),))
        header, rule, row = plan.describe().splitlines()
        assert header.split() == ["layer", "FP", "engine", "BP", "engine",
                                  "sparsity"]
        assert set(rule) == {"-", " "}
        assert row.split() == ["a", "stencil", "sparse", "0.00"]


class TestEngineVocabulary:
    @pytest.mark.parametrize("engine", FP_CANDIDATES + ("reference",))
    def test_fp_accepts_each_candidate_and_the_fallback(self, engine):
        assert make_plan(fp=engine).fp_engine == engine

    @pytest.mark.parametrize("engine", BP_CANDIDATES + ("reference",))
    def test_bp_accepts_each_candidate_and_the_fallback(self, engine):
        assert make_plan(bp=engine).bp_engine == engine

    @pytest.mark.parametrize("engine", ["fft", "", "Parallel-GEMM"])
    def test_unknown_engine_names_rejected_in_both_phases(self, engine):
        with pytest.raises(PlanError, match="FP candidate"):
            make_plan(fp=engine)
        with pytest.raises(PlanError, match="BP candidate"):
            make_plan(bp=engine)

    def test_speedup_is_one_when_the_baseline_was_not_timed(self):
        plan = make_plan(fp_timings={"gemm-in-parallel": 1.0},
                         bp_timings={"sparse": 2.0})
        assert plan.fp_speedup_over_baseline == 1.0
        assert plan.bp_speedup_over_baseline == 1.0

    def test_slower_choice_reads_below_one(self):
        plan = make_plan(fp="stencil",
                         fp_timings={"parallel-gemm": 1.0, "stencil": 2.0})
        assert plan.fp_speedup_over_baseline == pytest.approx(0.5)


class TestExecutionPlanRows:
    def test_describe_keeps_layer_order_and_sparsity(self):
        plan = ExecutionPlan(layers=(
            make_plan("b", sparsity=0.875),
            make_plan("a", fp="parallel-gemm", bp="reference"),
        ))
        rows = plan.describe().splitlines()[2:]
        assert [r.split() for r in rows] == [
            ["b", "gemm-in-parallel", "sparse", "0.88"],
            ["a", "parallel-gemm", "reference", "0.00"],
        ]

    def test_empty_plan_describes_only_the_header(self):
        assert len(ExecutionPlan(layers=()).describe().splitlines()) == 2
