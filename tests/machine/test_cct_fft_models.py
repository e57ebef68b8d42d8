"""Tests for the CcT schedule model."""

import pytest

from repro.data.tables import TABLE1_CONVS
from repro.errors import MachineModelError
from repro.machine.gemm_model import (
    cct_conv_time,
    gemm_in_parallel_conv_time,
    parallel_gemm_conv_time,
)
from repro.machine.spec import xeon_e5_2650

MACHINE = xeon_e5_2650()


class TestCcTSchedule:
    def test_beats_gip_at_batch_one(self):
        # With one image, GiP uses one core; CcT partitions it across all.
        spec = TABLE1_CONVS[2]
        gip = gemm_in_parallel_conv_time(spec, "fp", 1, MACHINE, 16)
        cct = cct_conv_time(spec, "fp", 1, MACHINE, 16)
        assert cct < gip / 2

    def test_beats_parallel_gemm_in_region_2(self):
        # The paper's Sec. 6 claim about CcT.
        spec = TABLE1_CONVS[2]  # Region 2
        pg = parallel_gemm_conv_time(spec, "fp", 4, MACHINE, 16)
        cct = cct_conv_time(spec, "fp", 4, MACHINE, 16)
        assert cct < pg

    def test_converges_to_gip_at_full_batches(self):
        spec = TABLE1_CONVS[3]
        gip = gemm_in_parallel_conv_time(spec, "fp", 16, MACHINE, 16)
        cct = cct_conv_time(spec, "fp", 16, MACHINE, 16)
        assert cct == pytest.approx(gip, rel=0.3)

    def test_bp_supported(self):
        spec = TABLE1_CONVS[0]
        assert cct_conv_time(spec, "bp", 2, MACHINE, 8) > 0

    def test_validation(self):
        with pytest.raises(MachineModelError):
            cct_conv_time(TABLE1_CONVS[0], "fp", 0, MACHINE, 4)

