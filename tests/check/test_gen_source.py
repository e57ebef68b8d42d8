"""Tests for the generated-source verifier: emitted kernels pass, doctored
sources (the pointer-shifting faults the paper's transformation could
introduce) are caught without ever executing the kernel."""

import pytest

import dataclasses

from repro.check.gen_source import (
    _contracts,
    verify_generated_sources,
    verify_kernel_source,
    verify_native_unit,
)
from repro.core.convspec import ConvSpec
from repro.stencil.emit import emit_forward_kernel

TINY = ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3, name="tiny")


def _fp_source() -> str:
    return emit_forward_kernel(TINY).source


def _fp_contract():
    return _contracts(TINY)["stencil-fp"]


def _messages(findings):
    return " | ".join(f.message for f in findings)


class TestCleanSources:
    @pytest.mark.parametrize("spec", [
        TINY,
        ConvSpec(nc=3, ny=12, nx=10, nf=4, fy=5, fx=3, name="rect"),
        ConvSpec(nc=1, ny=16, nx=16, nf=2, fy=3, fx=3, sy=2, sx=2,
                 name="strided"),
        ConvSpec(nc=2, ny=9, nx=9, nf=2, fy=1, fx=1, name="pointwise"),
    ])
    def test_all_five_families_verify_clean(self, spec):
        assert verify_generated_sources([spec]) == []

    def test_emitted_fp_source_matches_contract(self):
        assert verify_kernel_source(_fp_source(), _fp_contract(), "fp") == []


class TestDoctoredSources:
    def test_out_of_range_pointer_shift_is_caught(self):
        # The acceptance-criteria fault: one pointer-shifted slice runs
        # past the input extent (classic off-by-one in the shift).
        source = _fp_source().replace("inputs[:, 2:8, 2:8]",
                                      "inputs[:, 2:9, 2:8]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("exceeds" in f.message and "extent 8" in f.message
                   for f in findings), _messages(findings)

    def test_wrong_selection_count_is_caught_even_in_bounds(self):
        # 1:7 -> 0:7 stays inside the 8-wide input but selects 7 elements
        # where the output geometry demands 6.
        source = _fp_source().replace("inputs[:, 1:7, 1:7]",
                                      "inputs[:, 0:7, 1:7]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("selects 7 elements, expected 6" in f.message
                   for f in findings), _messages(findings)

    def test_duplicated_tap_is_caught(self):
        source = _fp_source()
        line = next(ln for ln in source.splitlines() if "0, 0]" in ln)
        doctored = source.replace(line, line + "\n" + line)
        findings = verify_kernel_source(doctored, _fp_contract(), "fp")
        assert any("double accumulation" in f.message for f in findings), \
            _messages(findings)

    def test_dropped_tap_is_caught(self):
        source = "\n".join(
            ln for ln in _fp_source().splitlines() if "2, 2]" not in ln
        )
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("missing [(2, 2)]" in f.message for f in findings), \
            _messages(findings)

    def test_tap_outside_support_is_caught(self):
        source = _fp_source().replace("weights[:, :, 2, 2]",
                                      "weights[:, :, 2, 3]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("outside the kernel support" in f.message
                   for f in findings), _messages(findings)
        # The bogus tap also indexes past the Fx extent.
        assert any("out of range" in f.message for f in findings), \
            _messages(findings)

    def test_non_whitelisted_name_is_caught(self):
        source = _fp_source().replace(
            "    return out", "    out += leaked_global\n    return out"
        )
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("leaked_global" in f.message and "non-whitelisted"
                   in f.message for f in findings), _messages(findings)

    def test_non_literal_slice_bound_is_caught(self):
        source = _fp_source().replace("inputs[:, 2:8, 2:8]",
                                      "inputs[:, 2:n, 2:8]")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("not a literal int" in f.message for f in findings), \
            _messages(findings)

    def test_unparseable_source_is_one_finding(self):
        findings = verify_kernel_source("def broken(:", _fp_contract(), "fp")
        assert len(findings) == 1
        assert "does not parse" in findings[0].message

    def test_missing_parameter_is_caught(self):
        source = _fp_source().replace("(inputs, weights, out)",
                                      "(inputs, out)")
        findings = verify_kernel_source(source, _fp_contract(), "fp")
        assert any("missing tensor parameters" in f.message
                   for f in findings), _messages(findings)

    def test_emitter_crash_is_reported_not_raised(self, monkeypatch):
        from repro.stencil import emit as stencil_emit

        def broken_emitter(spec):
            raise RuntimeError("emitter exploded")

        monkeypatch.setattr(stencil_emit, "emit_forward_kernel",
                            broken_emitter)
        findings = verify_generated_sources([TINY])
        assert any("emitter failed: emitter exploded" in f.message
                   for f in findings), _messages(findings)


class TestFusedContract:
    """The extended per-spec contract for fused conv+ReLU+pool kernels."""

    def _source(self) -> str:
        from repro.stencil.emit import emit_fused_forward_kernel

        return emit_fused_forward_kernel(TINY, 2).source

    def _contract(self):
        from repro.check.gen_source import fused_contract

        return fused_contract(TINY, 2)

    def test_fused_emission_verifies_clean(self):
        assert verify_kernel_source(self._source(), self._contract(),
                                    "fused") == []

    def test_dropped_pool_row_block_is_caught(self):
        source = self._source().replace(
            "    out[:, 1:2, :] = np.take_along_axis(flat, "
            "idx[:, :, :, None], axis=3)[:, :, :, 0]\n", "")
        findings = verify_kernel_source(source, self._contract(), "fused")
        assert any("blocks cover" in f.message for f in findings), \
            _messages(findings)

    def test_overlapping_pool_row_blocks_are_caught(self):
        source = self._source().replace("out[:, 1:2, :]", "out[:, 0:1, :]")
        findings = verify_kernel_source(source, self._contract(), "fused")
        assert any("blocks overlap" in f.message
                   or "blocks cover" in f.message for f in findings), \
            _messages(findings)

    def test_unbalanced_repeated_tap_is_caught(self):
        # The fused emission repeats every tap once per pool-row block;
        # doctoring one occurrence breaks the equal-multiplicity rule.
        source = self._source().replace(
            "weights[:, :, 2, 2], inputs[:, 6:8, 2:8]",
            "weights[:, :, 2, 1], inputs[:, 6:8, 2:8]")
        findings = verify_kernel_source(source, self._contract(), "fused")
        assert findings, "doctored tap multiplicity must not verify clean"


class TestScheduledEmissionContracts:
    """Non-default pipelines verify under the relaxed (scheduled) contract."""

    def test_tiled_fp_emission_verifies_clean(self):
        from repro.check.gen_source import contract_for
        from repro.stencil.passes import tiled_pipeline

        pipeline = tiled_pipeline("fp", tile_y=3)
        kernel = emit_forward_kernel(TINY, pipeline)
        contract = contract_for(TINY, pipeline)
        assert verify_kernel_source(kernel.source, contract, "fp-tiled") == []

    def test_tile_coverage_gap_is_caught(self):
        from repro.check.gen_source import contract_for
        from repro.stencil.passes import tiled_pipeline

        pipeline = tiled_pipeline("fp", tile_y=3)
        source = emit_forward_kernel(TINY, pipeline).source.replace(
            "out[:, 3:6, 0:6] += np.tensordot(weights[:, :, 0, 0]",
            "out[:, 0:3, 0:6] += np.tensordot(weights[:, :, 0, 0]")
        contract = contract_for(TINY, pipeline)
        findings = verify_kernel_source(source, contract, "fp-tiled")
        assert any("overlap" in f.message or "cover" in f.message
                   for f in findings), _messages(findings)


class TestNativeUnit:
    """The sparse kernels' C unit: emitted literals == the nest's."""

    STRIDED = ConvSpec(nc=5, ny=11, nx=13, nf=4, fy=3, fx=2, sy=2, sx=3,
                       name="strided-c")

    @pytest.fixture
    def doctor(self, monkeypatch):
        """Make the printer return a unit edited by ``edit(unit)``."""
        from repro.sparse import codegen_c

        real = codegen_c.emit_sparse_c_unit

        def install(edit):
            monkeypatch.setattr(codegen_c, "emit_sparse_c_unit",
                                lambda spec: edit(real(spec)))
        return install

    @pytest.mark.parametrize("spec", [TINY, STRIDED])
    def test_emitted_unit_verifies_clean(self, spec):
        assert verify_native_unit(spec) == []

    def test_shifted_tap_offset_is_caught(self, doctor):
        def shift(unit):
            offsets = unit.source.split("BD_TAP_OFF[NT] = {")[1].split("}")[0]
            first = offsets.split(", ")[1]
            return dataclasses.replace(unit, source=unit.source.replace(
                f"BD_TAP_OFF[NT] = {{0, {first},",
                f"BD_TAP_OFF[NT] = {{0, {int(first) + 1},"))

        doctor(shift)
        findings = verify_native_unit(TINY)
        assert any("table BD_TAP_OFF" in f.message for f in findings), \
            _messages(findings)

    def test_dropped_and_reordered_taps_are_caught(self, doctor):
        doctor(lambda unit: dataclasses.replace(
            unit, bd_taps=unit.bd_taps[:-1]))
        assert any("not the kernel support exactly once" in f.message
                   for f in verify_native_unit(TINY))
        doctor(lambda unit: dataclasses.replace(
            unit, bd_taps=unit.bd_taps[::-1]))
        assert any("scheduled nest enumerates" in f.message
                   for f in verify_native_unit(TINY))

    def test_short_scratch_section_is_caught(self, doctor):
        def shrink(unit):
            literals = tuple((k, v - 1 if k == "HWC_FLOATS" else v)
                             for k, v in unit.literals)
            return dataclasses.replace(unit, literals=literals)

        doctor(shrink)
        messages = _messages(verify_native_unit(TINY))
        assert "scratch section HWC holds" in messages
        # ... and the text no longer says what the printer reports.
        assert "#define lines" in messages

    def test_every_spec_gets_its_unit_checked(self, monkeypatch):
        from repro.sparse import codegen_c

        def broken(spec):
            raise RuntimeError("printer exploded")

        monkeypatch.setattr(codegen_c, "emit_sparse_c_unit", broken)
        findings = verify_generated_sources([TINY])
        assert any("sparse-c" in f.location
                   and "emitter failed: printer exploded" in f.message
                   for f in findings), _messages(findings)
