"""Tests for the machine specification."""

from dataclasses import replace

import pytest

from repro.errors import MachineModelError
from repro.machine.spec import MachineSpec, laptop_4core, xeon_e5_2650


class TestXeonSpec:
    def test_paper_machine_parameters(self):
        m = xeon_e5_2650()
        assert m.physical_cores == 16
        assert m.logical_cores == 32
        assert m.peak_flops_per_core == pytest.approx(41.6e9)
        assert m.vector_width == 8  # AVX floats

    def test_laptop_spec_is_valid(self):
        m = laptop_4core()
        assert m.physical_cores == 4


class TestEffectiveCores:
    def test_physical_cores_are_full(self):
        m = xeon_e5_2650()
        for c in (1, 4, 16):
            assert m.effective_cores(c) == float(c)

    def test_hyperthreads_yield_partial(self):
        m = xeon_e5_2650()
        assert 16 < m.effective_cores(32) < 32

    def test_effective_cores_monotone(self):
        m = xeon_e5_2650()
        values = [m.effective_cores(c) for c in range(1, 33)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        m = xeon_e5_2650()
        with pytest.raises(MachineModelError):
            m.effective_cores(0)
        with pytest.raises(MachineModelError):
            m.effective_cores(33)


class TestSyncOverhead:
    def test_single_core_is_free(self):
        assert xeon_e5_2650().sync_overhead(1) == 0.0

    def test_grows_logarithmically(self):
        m = xeon_e5_2650()
        assert m.sync_overhead(2) < m.sync_overhead(16)
        # Tree barrier: 16 cores need 4 rounds, 4 cores need 2.
        assert m.sync_overhead(16) == pytest.approx(2 * m.sync_overhead(4))


class TestValidation:
    def test_rejects_bad_core_counts(self):
        with pytest.raises(MachineModelError):
            replace(xeon_e5_2650(), physical_cores=0, logical_cores=0)

    def test_rejects_negative_bandwidth(self):
        base = xeon_e5_2650()
        with pytest.raises(MachineModelError):
            MachineSpec(
                name="bad",
                physical_cores=1,
                logical_cores=1,
                peak_flops_per_core=-1.0,
                dram_bandwidth=base.dram_bandwidth,
                cache_bandwidth_per_core=base.cache_bandwidth_per_core,
                copy_bandwidth_per_core=base.copy_bandwidth_per_core,
                l2_bytes=base.l2_bytes,
                llc_bytes=base.llc_bytes,
                vector_width=8,
                num_vector_registers=16,
                tlb_entries=64,
                page_size=4096,
                sync_base_seconds=1e-6,
                smt_yield=0.2,
            )
