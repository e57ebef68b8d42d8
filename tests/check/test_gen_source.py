"""Tests for the generated-source verifier: emitted kernels pass, doctored
sources (the pointer-shifting faults the paper's transformation could
introduce) are caught without ever executing the kernel."""

import pytest

import dataclasses

from repro.check.gen_source import (
    _contracts,
    verify_generated_sources,
    native_units,
    verify_kernel_source,
    verify_native_unit,
    verify_native_units,
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
    """The C units, sparse and stencil: emitted facts == the nest's,
    judged by one function."""

    STRIDED = ConvSpec(nc=5, ny=11, nx=13, nf=4, fy=3, fx=2, sy=2, sx=3,
                       name="strided-c")
    #: Tails in every blocked dim: 5 features, 11 rows, 13 = 8 + 4 + 1.
    RAGGED = ConvSpec(nc=2, ny=13, nx=15, nf=5, fy=3, fx=3, name="ragged")

    @pytest.fixture(params=[("repro.sparse.codegen_c", "emit_sparse_c_unit",
                             "bd"),
                            ("repro.stencil.emit_c", "emit_stencil_c_unit",
                             "fp")],
                    ids=["sparse", "stencil"])
    def doctor(self, request, monkeypatch):
        """``install(edit)`` makes one family's printer return units
        whose kernel ``symbol`` (and literals) went through ``edit``;
        yields ``(install, symbol)``."""
        import importlib

        module_name, attr, symbol = request.param
        module = importlib.import_module(module_name)
        real = getattr(module, attr)

        def install(edit_kernel=None, edit_unit=None):
            def doctored(*args):
                unit = real(*args)
                if edit_kernel is not None:
                    unit = dataclasses.replace(unit, kernels=tuple(
                        edit_kernel(k) if k.symbol == symbol else k
                        for k in unit.kernels))
                return edit_unit(unit) if edit_unit is not None else unit

            monkeypatch.setattr(module, attr, doctored)
        return install, symbol

    @pytest.mark.parametrize("spec", [TINY, STRIDED, RAGGED],
                             ids=lambda s: s.name)
    def test_emitted_units_verify_clean(self, spec):
        assert verify_native_units(spec) == []
        # The sparse pair always; stencil FP + fused for stride 1 only.
        assert len(native_units(spec)) == (1 if spec.sx > 1 else 3)

    def test_dropped_and_reordered_taps_are_caught(self, doctor):
        install, symbol = doctor
        install(lambda k: dataclasses.replace(k, taps=k.taps[:-1]))
        assert f"kernel {symbol}: taps" in _messages(
            verify_native_units(TINY))
        assert "not the kernel support exactly once" in _messages(
            verify_native_units(TINY))
        install(lambda k: dataclasses.replace(k, taps=k.taps[::-1]))
        assert "the expected order is" in _messages(
            verify_native_units(TINY))

    def test_shifted_tap_offset_is_caught(self, doctor):
        """A tap offset in the C text that disagrees with the nest --
        whether or not the printer's own report agrees with the text."""
        install, symbol = doctor
        table = f"{symbol.upper()}_TAP_OFF"

        def shift_text(unit):
            head, _, rest = unit.source.partition(f"{table}[NT] = {{0, ")
            first, _, rest = rest.partition(",")
            return dataclasses.replace(unit, source=(
                f"{head}{table}[NT] = {{0, {int(first) + 1},{rest}"))

        install(edit_unit=shift_text)
        messages = _messages(verify_native_units(TINY))
        assert f"table {table} emitted as" in messages
        assert f"table {table} reads" in messages       # report != text

        def shift_both(k):
            return dataclasses.replace(
                k, tap_off=(k.tap_off[0], k.tap_off[1] + 1) + k.tap_off[2:])

        install(shift_both, shift_text)
        messages = _messages(verify_native_units(TINY))
        assert f"table {table} emitted as" in messages
        assert f"table {table} reads" not in messages

    def test_tap_leaving_the_image_is_caught(self, doctor):
        install, symbol = doctor
        table = f"{symbol.upper()}_TAP_OFF"

        def push_out(unit):
            (facts,) = [k for k in unit.kernels if k.symbol == symbol]
            old = ", ".join(str(v) for v in facts.tap_off)
            top = max(facts.tap_off)
            new = ", ".join(str(v + (v == top)) for v in facts.tap_off)
            assert f"{table}[NT] = {{{old}}}" in unit.source
            return dataclasses.replace(unit, source=unit.source.replace(
                f"{table}[NT] = {{{old}}}", f"{table}[NT] = {{{new}}}"))

        install(edit_unit=push_out)
        assert f"table {table}: furthest access" in _messages(
            verify_native_units(TINY))

    def test_wrong_weight_index_is_caught(self, doctor):
        install, symbol = doctor
        install(lambda k: dataclasses.replace(k, tap_w=k.tap_w[::-1]))
        assert f"table {symbol.upper()}_TAP_W reads" in _messages(
            verify_native_units(TINY))

    def test_stencil_taps_walk_a_kernel_column_at_a_time(self):
        """The C printer's order is its own constant -- kx, then ky --
        not the nest's, and an explicit pipeline does not move it."""
        from repro.stencil.emit_c import emit_stencil_c_unit, host_pipeline
        from repro.stencil.passes import tiled_pipeline

        spec = ConvSpec(nc=1, ny=6, nx=7, nf=2, fy=2, fx=3, name="rect-k")
        for pipeline in (host_pipeline(None, "fp"),
                         tiled_pipeline("fp", tile_y=2)):
            facts = emit_stencil_c_unit(spec, pipeline).kernels[0]
            assert facts.taps == (
                (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))
            assert facts.tap_w == (0, 3, 1, 4, 2, 5)
            assert facts.tap_off == (0, 7, 1, 8, 2, 9)
        assert verify_native_units(spec) == []

    def test_dropped_and_doubled_blocks_are_caught(self, doctor):
        install, _ = doctor
        install(lambda k: dataclasses.replace(k, blocks=k.blocks[:-1]))
        assert "output elements never" in _messages(
            verify_native_units(self.RAGGED))
        install(lambda k: dataclasses.replace(
            k, blocks=k.blocks + k.blocks[:1]))
        assert "more than once" in _messages(verify_native_units(self.RAGGED))
        install(lambda k: dataclasses.replace(k, blocks=k.blocks[:-1] + (
            tuple((start + 1, extent) for start, extent in k.blocks[-1]),)))
        assert "leaves the output" in _messages(
            verify_native_units(self.RAGGED))

    @pytest.mark.parametrize("literal", ["OX", "NT"])
    def test_wrong_geometry_literal_is_caught(self, doctor, literal):
        install, _ = doctor

        def widen(unit):
            literals = tuple((k, v + 1 if k == literal else v)
                             for k, v in unit.literals)
            return dataclasses.replace(unit, literals=literals)

        install(edit_unit=widen)
        messages = _messages(verify_native_units(TINY))
        want = {"OX": 6, "NT": 9}[literal]
        assert f"{literal} emitted as {want + 1}, the nest gives {want}" \
            in messages
        # ... and the text no longer says what the printer reports.
        assert "#define lines" in messages

    def test_derived_literals_restate_the_spec(self, monkeypatch):
        """``P`` (sparse) and ``WF`` (stencil) are checked where emitted."""
        from repro.sparse import codegen_c
        from repro.stencil import emit_c

        for module, attr, literal in (
                (codegen_c, "emit_sparse_c_unit", "P"),
                (emit_c, "emit_stencil_c_unit", "WF")):
            real = getattr(module, attr)

            def doctored(*args, real=real, literal=literal):
                unit = real(*args)
                return dataclasses.replace(unit, literals=tuple(
                    (k, v + 1 if k == literal else v)
                    for k, v in unit.literals))

            monkeypatch.setattr(module, attr, doctored)
            assert f"{literal} emitted as" in _messages(
                verify_native_units(TINY))
            monkeypatch.setattr(module, attr, real)

    def test_broken_channel_tiling_is_caught(self, monkeypatch):
        from repro.sparse import codegen_c

        real = codegen_c.emit_sparse_c_unit

        def narrow(spec):
            unit = real(spec)
            return dataclasses.replace(unit, literals=tuple(
                (k, v - 1 if k == "NCP" else v) for k, v in unit.literals))

        monkeypatch.setattr(codegen_c, "emit_sparse_c_unit", narrow)
        assert "channel tiling NCP=" in _messages(verify_native_units(TINY))

    def test_short_scratch_section_is_caught(self, monkeypatch):
        from repro.sparse import codegen_c

        real = codegen_c.emit_sparse_c_unit

        def shrink(spec):
            unit = real(spec)
            return dataclasses.replace(unit, literals=tuple(
                (k, v - 1 if k == "HWC_FLOATS" else v)
                for k, v in unit.literals))

        monkeypatch.setattr(codegen_c, "emit_sparse_c_unit", shrink)
        assert "scratch section HWC holds" in _messages(
            verify_native_units(TINY))

    def test_overlapping_scratch_sections_are_caught(self, monkeypatch):
        from repro.sparse import codegen_c

        real = codegen_c.emit_sparse_c_unit

        def overlap(spec):
            unit = real(spec)
            return dataclasses.replace(unit, literals=tuple(
                (k, v - 16 if k in ("PTR_OFF", "SCRATCH_FLOATS") else v)
                for k, v in unit.literals))

        monkeypatch.setattr(codegen_c, "emit_sparse_c_unit", overlap)
        messages = _messages(verify_native_units(TINY))
        assert "scratch section PTR" in messages and "overlaps" in messages

    def test_fused_unit_act_tile_is_recomputed(self):
        from repro.stencil.emit_c import emit_stencil_c_unit, host_pipeline

        pipeline = host_pipeline(None, "fused_fp", 2, 2)
        unit = emit_stencil_c_unit(self.RAGGED, pipeline)
        nests = {"fused": pipeline.build_nest(self.RAGGED)}
        # 2 pooled rows' worth of conv rows x FB features x the row.
        assert unit.scratch_floats == unit.literal("ACT_FLOATS") \
            == unit.literal("FB") * 2 * self.RAGGED.out_nx

        def with_literals(**changed):
            literals = tuple((k, changed.get(k, v)) for k, v in unit.literals)
            source = unit.source
            for key, value in changed.items():
                source = source.replace(
                    f"#define {key} {unit.literal(key)}\n",
                    f"#define {key} {value}\n")
            return dataclasses.replace(unit, literals=literals, source=source)

        short = unit.scratch_floats - 1
        assert "scratch section ACT holds" in _messages(verify_native_unit(
            with_literals(ACT_FLOATS=short, SCRATCH_FLOATS=short),
            nests, "ragged"))
        # A wider feature block needs a larger tile than the text provides.
        assert "scratch section ACT holds" in _messages(verify_native_unit(
            with_literals(FB=unit.literal("FB") + 1), nests, "ragged"))

    @pytest.mark.parametrize("window", [(2, 2), (3, 2)], ids=["2/2", "3/2"])
    def test_fused_backward_writes_stay_inside_the_conv_error(self, window):
        """The unpool export: its literals restate the spec and the pool
        window, the last window's reach stays inside ``OY x OX``, and the
        scatter is the one whose writes that bound covers."""
        from repro.stencil.emit_c import emit_stencil_c_unit, host_pipeline

        pipeline = host_pipeline(None, "fused_fp", *window)
        unit = emit_stencil_c_unit(self.RAGGED, pipeline)
        nests = {"fused": pipeline.build_nest(self.RAGGED)}
        assert unit.helpers == ("unpool",)
        assert verify_native_unit(unit, nests, "ragged") == []

        def changed(source=unit.source, **literals):
            for key, value in literals.items():
                source = source.replace(f"#define {key} {unit.literal(key)}\n",
                                        f"#define {key} {value}\n")
            return dataclasses.replace(unit, source=source, literals=tuple(
                (k, literals.get(k, v)) for k, v in unit.literals))

        messages = _messages(verify_native_unit(
            changed(PY=unit.literal("PY") + 1), nests, "ragged"))
        assert "PY emitted as" in messages
        assert "unpool: " in messages and "outside OY=" in messages
        assert "outside OX=" in _messages(verify_native_unit(
            changed(PS=unit.literal("PS") + 1), nests, "ragged"))
        unguarded = changed(source=unit.source.replace(
            "t < 0 || t >= PK * PK", "t < 0"))
        assert "not the scatter the printer emits" in _messages(
            verify_native_unit(unguarded, nests, "ragged"))
        assert "helpers () are not the expected" in _messages(
            verify_native_unit(dataclasses.replace(unit, helpers=()),
                               nests, "ragged"))

    def test_every_unit_of_every_spec_gets_checked(self, doctor):
        install, _ = doctor

        def broken(unit):
            raise RuntimeError("printer exploded")

        install(edit_unit=broken)
        findings = verify_generated_sources([TINY])
        assert any(f.location.endswith("-c")
                   and "emitter failed: printer exploded" in f.message
                   for f in findings), _messages(findings)
