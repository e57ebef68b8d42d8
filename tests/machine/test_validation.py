"""Tests for the machine-model validation harness."""

import math

import pytest

from repro.core.convspec import ConvSpec
from repro.errors import ReproError
from repro.machine.validation import (
    check_sparsity_payoff,
    check_unfold_overhead,
    validate_model,
)

SPEC = ConvSpec(nc=16, ny=32, nx=32, nf=32, fy=3, fx=3)


class TestIndividualChecks:
    @pytest.mark.wallclock
    def test_unfold_overhead_exists_on_this_host(self):
        check = check_unfold_overhead(SPEC, repeats=3)
        assert check.passed, check.measured_ratio

    def test_sparsity_payoff_exists_on_this_host(self):
        check = check_sparsity_payoff(SPEC, repeats=3)
        assert check.passed, check.measured_ratio


class TestFullValidation:
    def test_report_structure(self):
        report = validate_model(SPEC, repeats=1)
        assert len(report.checks) == 3
        names = {c.name for c in report.checks}
        assert names == {"unfold-overhead", "sparsity-payoff", "thread-scaling"}

    def test_relative_claims_hold(self):
        # Tier-1 asserts what holds on every host: all three checks run
        # and measure something, and the one effect far outside timing
        # noise (> 3x) has the claimed sign.  The two near-1.0 ratios are
        # judged under ``-m wallclock`` below.
        report = validate_model(SPEC, repeats=2)
        ratios = {c.name: c.measured_ratio for c in report.checks}
        assert set(ratios) == {
            "unfold-overhead", "sparsity-payoff", "thread-scaling"
        }
        assert all(math.isfinite(r) and r > 0 for r in ratios.values()), ratios
        payoff = next(c for c in report.checks if c.name == "sparsity-payoff")
        assert payoff.passed, report.describe()

    @pytest.mark.wallclock
    def test_timing_claims_hold_on_this_host(self):
        report = validate_model(SPEC, repeats=2)
        assert report.all_passed, report.describe()

    def test_describe_lists_every_check(self):
        report = validate_model(SPEC, repeats=1)
        text = report.describe()
        for check in report.checks:
            assert check.name in text

    def test_rejects_bad_repeats(self):
        with pytest.raises(ReproError):
            validate_model(SPEC, repeats=0)
