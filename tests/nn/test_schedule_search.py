"""The schedule-searching autotuner: bounded, deterministic, cached."""

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
from repro.nn.schedule import ScheduleSearch

SPEC = ConvSpec(nc=3, ny=14, nx=14, nf=4, fy=3, fx=3, name="search-t")
FAMILIES = ("fp", "bp_data", "bp_weights", "sparse_bp_weights")


class TestCandidateEnumeration:
    def test_at_least_eight_distinct_candidates_per_family(self):
        search = ScheduleSearch()
        for family in FAMILIES:
            cands = search.candidates(SPEC, family)
            assert len(cands) >= 8, family
            fingerprints = [c.fingerprint() for c in cands]
            assert len(set(fingerprints)) == len(cands), family
        fused = search.candidates(SPEC, "fused_fp", pool_kernel=2,
                                  pool_stride=2)
        assert len(fused) >= 8
        assert len({c.fingerprint() for c in fused}) == len(fused)

    def test_sparse_bp_data_has_exactly_its_one_legal_schedule(self):
        # The pointer-shifted scatter kernel admits no reordering at all:
        # its tap order carries the accumulation semantics.
        cands = ScheduleSearch().candidates(SPEC, "sparse_bp_data")
        assert len(cands) == 1
        assert cands[0].is_default

    def test_candidates_include_the_default(self):
        for family in FAMILIES:
            cands = ScheduleSearch().candidates(SPEC, family)
            assert any(c.is_default for c in cands), family


class TestSearch:
    def test_winner_is_cheapest_and_verified(self):
        search = ScheduleSearch()
        choice = search.search(SPEC, "fp")
        assert choice.num_candidates >= 8
        assert choice.verified
        assert choice.seconds == min(t for _, t in choice.timings)
        assert choice.speedup_over_default() >= 1.0

    def test_fused_search_wins_over_unfused_default(self):
        choice = ScheduleSearch().search(SPEC, "fused_fp", pool_kernel=2,
                                         pool_stride=2)
        assert choice.verified
        assert choice.pipeline.family == "fused_fp"

    def test_deterministic_under_fixed_seed(self):
        a = ScheduleSearch(seed=11).search(SPEC, "fp")
        b = ScheduleSearch(seed=11).search(SPEC, "fp")
        assert a == b
        assert a.pipeline.fingerprint() == b.pipeline.fingerprint()
        # And the whole layer-level result.
        la = ScheduleSearch(seed=11).search_layer(SPEC, pool_kernel=2)
        lb = ScheduleSearch(seed=11).search_layer(SPEC, pool_kernel=2)
        assert la == lb

    def test_repeat_search_is_served_from_cache(self):
        search = ScheduleSearch()
        first = search.search(SPEC, "bp_weights")
        again = search.search(SPEC, "bp_weights")
        assert again is first

    def test_search_layer_routes_pooled_layers_to_the_fused_family(self):
        search = ScheduleSearch()
        pooled = search.search_layer(SPEC, pool_kernel=2)
        assert pooled["fp"].family == "fused_fp"
        plain = search.search_layer(SPEC)
        assert plain["fp"].family == "fp"
        for result in (pooled, plain):
            assert set(result) == {"fp", "bp_data", "bp_weights"}

    def test_pricing_scales_with_cores(self):
        slow = ScheduleSearch(cores=1).search(SPEC, "fp")
        fast = ScheduleSearch(cores=16).search(SPEC, "fp")
        assert fast.seconds <= slow.seconds
