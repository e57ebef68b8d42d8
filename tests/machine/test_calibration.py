"""Regression tests pinning the machine-model calibration to the paper."""

import pytest

from repro.errors import MachineModelError
from repro.machine.calibration import (
    CalibrationTarget,
    calibration_report,
    evaluate_calibration,
)


class TestCalibration:
    def test_all_targets_within_tolerance(self):
        targets = evaluate_calibration()
        failing = [t for t in targets if not t.within_tolerance]
        assert not failing, calibration_report()

    def test_headline_speedup_close_to_paper(self):
        targets = {t.name: t for t in evaluate_calibration()}
        speedup = targets["fig9.end_to_end_speedup_over_caffe"]
        assert speedup.relative_error < 0.25
        # And on the right side of "order of magnitude".
        assert speedup.model_value > 5.0

    def test_report_lists_all_targets(self):
        text = calibration_report()
        for target in evaluate_calibration():
            assert target.name in text


_TARGETS = {t.name: t for t in evaluate_calibration()}


class TestEachTarget:
    @pytest.mark.parametrize("name", sorted(_TARGETS))
    def test_target_is_well_formed_and_met(self, name):
        target = _TARGETS[name]
        assert target.paper_value > 0
        assert 0 < target.tolerance <= 1.0
        assert target.relative_error == pytest.approx(
            abs(target.model_value - target.paper_value) / target.paper_value)
        assert target.within_tolerance, calibration_report()

    def test_zero_paper_value_has_no_relative_error(self):
        target = CalibrationTarget("t", 0.0, 1.0, 0.1)
        with pytest.raises(MachineModelError, match="zero paper value"):
            target.relative_error

    @pytest.mark.parametrize("model,within", [
        (110.0, True), (90.0, True), (110.5, False), (80.0, False),
    ])
    def test_tolerance_bound_is_inclusive(self, model, within):
        assert CalibrationTarget("t", 100.0, model, 0.10).within_tolerance \
            is within

    def test_report_flags_only_targets_off_tolerance(self):
        lines = calibration_report().splitlines()[1:]
        assert len(lines) == len(_TARGETS)
        assert all(line.lstrip().startswith("[ok ]") for line in lines)
