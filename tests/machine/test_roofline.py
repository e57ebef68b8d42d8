"""Tests for the roofline primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineModelError
from repro.machine.roofline import Phase, copy_time, phase_time
from repro.machine.spec import xeon_e5_2650

MACHINE = xeon_e5_2650()


class TestPhase:
    def test_compute_bound_phase(self):
        phase = Phase(flops=41.6e9, efficiency=1.0)
        assert phase_time(phase, MACHINE, 1) == pytest.approx(1.0)
        assert phase_time(phase, MACHINE, 16) == pytest.approx(1 / 16)

    def test_dram_bound_phase_does_not_scale(self):
        phase = Phase(dram_bytes=51.2e9)
        assert phase_time(phase, MACHINE, 1) == pytest.approx(1.0)
        assert phase_time(phase, MACHINE, 16) == pytest.approx(1.0)

    def test_max_of_lanes(self):
        phase = Phase(flops=41.6e9, dram_bytes=2 * 51.2e9, efficiency=1.0)
        assert phase_time(phase, MACHINE, 1) == pytest.approx(2.0)

    def test_efficiency_scales_compute(self):
        fast = Phase(flops=1e9, efficiency=1.0)
        slow = Phase(flops=1e9, efficiency=0.5)
        assert phase_time(slow, MACHINE, 1) == pytest.approx(
            2 * phase_time(fast, MACHINE, 1)
        )

    def test_rejects_negative_work(self):
        with pytest.raises(MachineModelError):
            Phase(flops=-1.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(MachineModelError):
            Phase(flops=1.0, efficiency=0.0)
        with pytest.raises(MachineModelError):
            Phase(flops=1.0, efficiency=1.5)

    @given(st.integers(1, 32), st.floats(1e3, 1e12))
    @settings(max_examples=50, deadline=None)
    def test_more_cores_never_slower(self, cores, flops):
        phase = Phase(flops=flops, private_bytes=flops / 10, dram_bytes=flops / 100)
        t1 = phase_time(phase, MACHINE, cores)
        t2 = phase_time(phase, MACHINE, min(cores + 1, 32))
        assert t2 <= t1 + 1e-12


class TestCopyTime:
    def test_zero_bytes_is_free(self):
        assert copy_time(0, MACHINE, 4) == 0.0

    def test_short_runs_are_slower(self):
        long_runs = copy_time(1e9, MACHINE, 1, run_bytes=4096)
        short_runs = copy_time(1e9, MACHINE, 1, run_bytes=16)
        assert short_runs > long_runs

    def test_dram_ceiling_applies(self):
        # With many cores, the shared-DRAM lane bounds the copy.
        t = copy_time(51.2e9, MACHINE, 16)
        assert t >= 1.0 - 1e-9

    def test_rejects_negative_bytes(self):
        with pytest.raises(MachineModelError):
            copy_time(-1, MACHINE, 1)

    def test_rejects_bad_run_bytes(self):
        with pytest.raises(MachineModelError):
            copy_time(100, MACHINE, 1, run_bytes=0)

