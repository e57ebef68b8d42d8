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
