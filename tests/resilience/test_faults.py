"""Tests for the seeded fault-injection layer."""

import numpy as np
import pytest

from repro.errors import InjectedFault, ReproError
from repro.resilience import faults
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    get_plan,
    inject,
    plan_names,
)


def fires(perturb, site="s"):
    """Visit a raise site once; True when the fault fired."""
    try:
        perturb(site)
    except InjectedFault:
        return True
    return False


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ReproError):
            FaultSpec(site="pool.task", kind="explode")
        with pytest.raises(ReproError):
            FaultSpec(site="pool.task", kind="drop")
        with pytest.raises(ReproError):  # hangs are the hang plan's
            FaultSpec(site="pool.task", kind="hang")

    def test_rejects_zero_based_indices(self):
        with pytest.raises(ReproError):
            FaultSpec(site="pool.task", kind="raise", at=(0,))

    def test_rejects_bad_rate_delay_fraction(self):
        with pytest.raises(ReproError):
            FaultSpec(site="s", kind="raise", rate=1.5)
        with pytest.raises(TypeError):  # no delay: nothing sleeps
            FaultSpec(site="s", kind="raise", delay=0.1)
        with pytest.raises(ReproError):
            FaultSpec(site="s", kind="corrupt", fraction=0.0)


class TestInjector:
    def test_raises_at_exact_invocations(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="s", kind="raise", at=(2, 4)),
        ))
        injector = FaultInjector(plan)
        hits = []
        for i in range(1, 6):
            try:
                injector.perturb("s")
                hits.append(i)
            except InjectedFault as fault:
                assert fault.site == "s"
                assert fault.invocation == i
        assert hits == [1, 3, 5]
        assert len(injector.fired("s", "raise")) == 2

    def test_rate_faults_are_seeded(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="s", kind="raise", rate=0.3),
        ), seed=7)

        def raises(injector):
            return [fires(injector.perturb) for _ in range(50)]

        assert raises(FaultInjector(plan)) == raises(FaultInjector(plan))
        reseeded = FaultInjector(plan.with_seed(8))
        assert raises(FaultInjector(plan)) != raises(reseeded)

    def test_corrupt_poisons_a_copy(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="g", kind="corrupt", at=(1,), fraction=0.25),
        ))
        injector = FaultInjector(plan)
        original = np.ones((4, 4), dtype=np.float32)
        poisoned = injector.corrupt_array("g", original)
        assert poisoned is not original
        assert np.isfinite(original).all()
        assert np.isnan(poisoned).sum() == 4  # 25% of 16 elements

    def test_corrupt_passes_non_arrays_through(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="g", kind="corrupt", at=(1,)),
        ))
        injector = FaultInjector(plan)
        assert injector.corrupt_array("g", (1, 2)) == (1, 2)

    def test_sites_count_independently(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="a", kind="raise", at=(2,)),
            FaultSpec(site="b", kind="raise", at=(2,)),
        ))
        injector = FaultInjector(plan)
        injector.perturb("a")
        injector.perturb("b")
        assert injector.invocations("a") == 1
        assert injector.invocations("b") == 1
        with pytest.raises(InjectedFault):
            injector.perturb("a")

    def test_unplanned_site_is_free(self):
        injector = FaultInjector(FaultPlan("empty"))
        injector.perturb("anything")
        assert injector.invocations("anything") == 0  # not even counted


class TestModuleHooks:
    def test_noop_without_active_injector(self):
        faults.perturb("s")
        array = np.ones(3)
        assert faults.corrupt_array("s", array) is array

    def test_inject_activates_and_deactivates(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="s", kind="raise", at=(1,)),
        ))
        with inject(plan) as injector:
            assert faults.active_injector() is injector
            with pytest.raises(InjectedFault):
                faults.perturb("s")
        assert faults.active_injector() is None
        faults.perturb("s")  # no-op again

    def test_inject_nests_innermost_wins(self):
        outer = FaultPlan("outer")
        inner = FaultPlan("inner", specs=(
            FaultSpec(site="s", kind="raise", at=(1,)),
        ))
        with inject(outer):
            with inject(inner):
                assert fires(faults.perturb) is True
            assert fires(faults.perturb) is False

    def test_counters_reset_per_activation(self):
        plan = FaultPlan("t", specs=(
            FaultSpec(site="s", kind="raise", at=(2,)),
        ))
        for _ in range(2):  # a resumed run starts counting from zero
            with inject(plan):
                faults.perturb("s")
                with pytest.raises(InjectedFault):
                    faults.perturb("s")


#: The instrumented sites of ``repro.resilience.faults`` and the fault
#: kinds each one acts on (its module docstring's site table).
SITE_KINDS = {
    "pool.task": {"raise"},
    "pool.result": {"corrupt"},
    "engine.fp": {"raise"},
    "engine.bp": {"raise"},
    "sgd.gradient": {"corrupt"},
}


class TestNamedPlans:
    @pytest.mark.parametrize("name", plan_names())
    def test_plan_targets_only_instrumented_sites(self, name):
        # A spec naming a site nothing visits (or a kind its site ignores)
        # would never fire, and the chaos run would pass vacuously.
        for spec in get_plan(name).specs:
            assert spec.site in SITE_KINDS, spec
            assert spec.kind in SITE_KINDS[spec.site], spec

    def test_all_names_build(self):
        for name in plan_names():
            plan = get_plan(name, seed=5)
            assert plan.name == name
            assert plan.seed == 5

    def test_unknown_plan_rejected(self):
        with pytest.raises(ReproError, match="unknown fault plan"):
            get_plan("nope")

    def test_smoke_plan_covers_crash_and_nan(self):
        plan = get_plan("smoke")
        kinds = {(s.site, s.kind) for s in plan.specs}
        assert ("pool.task", "raise") in kinds
        assert ("sgd.gradient", "corrupt") in kinds
