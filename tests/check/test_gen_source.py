"""Tests for the generated-source verifier: every emitted C unit passes,
doctored units (the pointer-shifting faults the paper's transformation
could introduce) are caught without a compiler."""

import dataclasses

import pytest

from repro.check.gen_source import (
    native_units,
    verify_native_unit,
    verify_native_units,
)
from repro.check.runner import default_specs
from repro.core.convspec import ConvSpec

TINY = ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3, name="tiny")


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
    def test_every_c_unit_verifies_clean(self, spec):
        assert verify_native_units(spec) == []

    @pytest.mark.parametrize("spec", default_specs(),
                             ids=lambda s: s.name or s.describe())
    def test_every_unit_repro_check_covers_verifies_clean(self, spec):
        """The zoo's and Table 2's specs: the sparse pair always, the
        stencil FP and fused units where the printer covers the stride."""
        assert verify_native_units(spec) == []
        stride_1 = (spec.sy, spec.sx) == (1, 1)
        assert [family for family, _ in native_units(spec)] == \
            ["sparse-c"] + ["stencil-fp-c", "stencil-fused-fp-c"] * stride_1


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
        findings = verify_native_units(TINY)
        assert any(f.location.endswith("-c")
                   and "emitter failed: printer exploded" in f.message
                   for f in findings), _messages(findings)
