"""Tests for the generated-source verifier: every emitted C unit passes,
doctored units (the pointer-shifting faults the paper's transformation
could introduce) are caught without a compiler."""

import dataclasses

import pytest

from repro.check.gen_source import (
    native_units,
    verify_epilogue_unit,
    verify_native_unit,
    verify_native_units,
    verify_sgd_update,
    verify_update_unit,
)
from repro.check.runner import default_specs
from repro.core.convspec import ConvSpec
from repro.nn import update_c
from repro.stencil.emit_c import emit_epilogue_c_unit, emit_stencil_c_unit
from repro.stencil.loopir import PoolWindow
from repro.stencil.passes import Fuse, SchedulePipeline, Vectorize

TINY = ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3, name="tiny")

#: Every ``(registers, floats per vector)`` a host can print for
#: (:func:`repro.native.vector_registers`).
REGISTER_FILES = [(32, 16), (16, 8), (16, 4)]

#: The convs ``repro check`` covers that the stencil printer lowers.
STRIDE_1 = [s for s in default_specs() if (s.sy, s.sx) == (1, 1)]


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
        stencil FP and fused units where the printer covers the stride,
        the GEMM epilogue everywhere (every such conv output holds a
        2x2 window)."""
        assert verify_native_units(spec) == []
        stride_1 = (spec.sy, spec.sx) == (1, 1)
        assert [family for family, _ in native_units(spec)] == \
            ["sparse-c"] + ["stencil-fp-c", "stencil-fused-fp-c"] * stride_1 \
            + ["gemm-epilogue-c"]


@pytest.mark.parametrize("spec", STRIDE_1,
                         ids=lambda s: s.name or s.describe())
class TestEveryRegisterFile:
    """``repro check`` verifies the units its host prints, vectorized
    for that host's register file; the units every other host prints
    for the same convs verify clean too."""

    @staticmethod
    def _findings(spec, symbol, pipeline):
        return verify_native_unit(
            emit_stencil_c_unit(spec, pipeline),
            {symbol: pipeline.build_nest(spec)},
            f"{spec.name or spec.describe()}/{pipeline.describe()}")

    def test_fp_units_verify_clean(self, spec):
        for registers in REGISTER_FILES:
            pipeline = SchedulePipeline("fp", (Vectorize(*registers),))
            findings = self._findings(spec, "fp", pipeline)
            assert findings == [], _messages(findings)

    def test_fused_units_verify_clean(self, spec):
        for registers in REGISTER_FILES:
            pipeline = SchedulePipeline(
                "fused_fp", (Fuse(), Vectorize(*registers)),
                pool_kernel=2, pool_stride=2)
            findings = self._findings(spec, "fused", pipeline)
            assert findings == [], _messages(findings)


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
        # The sparse pair always; stencil FP + fused for stride 1 only;
        # the GEMM epilogue wherever a 2x2 window fits the conv output.
        assert len(native_units(spec)) == (2 if spec.sx > 1 else 4)

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
        not the nest's, and another register file does not move it."""
        from repro.stencil.emit_c import emit_stencil_c_unit, host_pipeline
        from repro.stencil.passes import SchedulePipeline, Vectorize

        spec = ConvSpec(nc=1, ny=6, nx=7, nf=2, fy=2, fx=3, name="rect-k")
        for pipeline in (host_pipeline("fp"),
                         SchedulePipeline("fp", (Vectorize(8, 4),))):
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

        pipeline = host_pipeline("fused_fp", 2, 2)
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

        pipeline = host_pipeline("fused_fp", *window)
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
            "!isfinite(e[w]) || t >= PK * PK", "!isfinite(e[w])"))
        assert unguarded.source != unit.source
        assert "not the scatter the printer emits" in _messages(
            verify_native_unit(unguarded, nests, "ragged"))
        assert "helpers () are not the expected" in _messages(
            verify_native_unit(dataclasses.replace(unit, helpers=()),
                               nests, "ragged"))

    @pytest.mark.parametrize("window", [(2, 2), (3, 2)], ids=["2/2", "3/2"])
    @pytest.mark.parametrize("spec", [RAGGED, STRIDED],
                             ids=lambda s: s.name)
    def test_epilogue_literals_and_text_are_the_fused_units(self, spec,
                                                            window):
        """The GEMM epilogue: literals restate the conv output and the
        window, the text is the fused unit's store and scatter, and the
        last window stays inside the conv output."""
        pool = PoolWindow(*window)
        unit = emit_epilogue_c_unit(spec, pool)
        assert verify_epilogue_unit(unit, spec, pool, "epilogue") == []

        def changed(source=unit.source, **literals):
            for key, value in literals.items():
                source = source.replace(f"#define {key} {unit.literal(key)}\n",
                                        f"#define {key} {value}\n")
            return dataclasses.replace(unit, source=source, literals=tuple(
                (k, literals.get(k, v)) for k, v in unit.literals))

        def messages(doctored):
            return _messages(verify_epilogue_unit(doctored, spec, pool,
                                                  "epilogue"))

        wider = messages(changed(PY=unit.literal("PY") + 1))
        assert "PY emitted as" in wider and "outside OY=" in wider
        assert "OX emitted as" in messages(changed(OX=unit.literal("OX") - 1))
        assert "differ from the literals" in messages(dataclasses.replace(
            unit, literals=unit.literals + (("EXTRA", 1),)))
        assert "not the fused unit's pooled store" in messages(changed(
            source=unit.source.replace("v > best", "v >= best")))
        unguarded = unit.source.replace("!isfinite(e[w]) || t >= PK * PK",
                                        "!isfinite(e[w])")
        assert unguarded != unit.source
        assert "not the scatter the printer emits" in messages(changed(
            source=unguarded))
        assert "exports ('pool',) are not" in messages(
            dataclasses.replace(unit, helpers=("pool",)))

    def test_dw_loop_order_is_the_one_the_host_gives(self, monkeypatch):
        """A unit printed in the row order where the spec and the host
        give the tap order (and the reverse) is caught: literals, text,
        and the pitch of dW's tap table."""
        from repro.sparse import codegen_c

        spec = ConvSpec(nc=3, ny=12, nx=12, nf=4, fy=5, fx=5, name="narrow")
        (_, pipelines), *_ = native_units(spec)
        nests = {s: p.build_nest(spec) for s, p in pipelines.items()}
        rows = codegen_c.emit_sparse_c_unit(spec)
        assert rows.literal("DWP") == 3 and "RV" in dict(rows.literals)
        assert verify_native_unit(rows, nests, "narrow") == []
        monkeypatch.setattr(codegen_c, "dw_rows", lambda spec: None)
        messages = _messages(verify_native_unit(rows, nests, "narrow"))
        assert "dW's tap order: DWP emitted as 3" in messages
        assert "dW's loops are not the tap order" in messages
        assert "table DW_TAP_OFF emitted as" not in messages  # DWP's pitch
        codegen_c.emit_sparse_c_unit.cache_clear()
        try:
            taps = codegen_c.emit_sparse_c_unit(spec)
        finally:
            codegen_c.emit_sparse_c_unit.cache_clear()
        assert verify_native_unit(taps, nests, "narrow") == []
        monkeypatch.undo()
        assert "dW's loops are not the row order" in _messages(
            verify_native_unit(taps, nests, "narrow"))

    def test_pooled_export_is_checked(self):
        """The sparse unit's third export: the printer's routing, its
        routed row inside the scratch, and listed as a helper."""
        from repro.sparse.codegen_c import emit_sparse_c_unit

        unit = emit_sparse_c_unit(TINY)
        (_, pipelines), *_ = native_units(TINY)
        nests = {s: p.build_nest(TINY) for s, p in pipelines.items()}
        assert unit.helpers == ("pooled",)
        assert verify_native_unit(unit, nests, "tiny") == []
        unmasked = dataclasses.replace(unit, source=unit.source.replace(
            "ry[q] = wy | -(v == 0.0f);", "ry[q] = wy;"))
        assert "not the routing the printer emits" in _messages(
            verify_native_unit(unmasked, nests, "tiny"))
        short = unit.literal("ROW_FLOATS") - 1
        assert "scratch section ROW holds" in _messages(verify_native_unit(
            dataclasses.replace(unit, source=unit.source.replace(
                f"#define ROW_FLOATS {short + 1}\n",
                f"#define ROW_FLOATS {short}\n"), literals=tuple(
                (k, short if k == "ROW_FLOATS" else v)
                for k, v in unit.literals)), nests, "tiny"))
        assert "helpers () are not the expected ('pooled',)" in _messages(
            verify_native_unit(dataclasses.replace(unit, helpers=()),
                               nests, "tiny"))

    def test_every_unit_of_every_spec_gets_checked(self, doctor):
        install, _ = doctor

        def broken(unit):
            raise RuntimeError("printer exploded")

        install(edit_unit=broken)
        findings = verify_native_units(TINY)
        assert any(f.location.endswith("-c")
                   and "emitter failed: printer exploded" in f.message
                   for f in findings), _messages(findings)


class TestUpdateUnit:
    """The SGD update unit is held to numpy's chain by its text: the
    no-contraction pragma ahead of the code, the operations in the
    chain's order, nothing else in the loop."""

    def _doctored(self, old, new):
        unit = update_c.emit_update_c_unit()
        assert old in unit.source
        return verify_update_unit(dataclasses.replace(
            unit, source=unit.source.replace(old, new)), "sgd/update-c")

    def test_the_printed_unit_is_clean(self):
        assert verify_sgd_update() == []

    def test_a_missing_pragma_is_caught(self):
        assert "fp-contract=off" in _messages(
            self._doctored(update_c.NO_CONTRACTION, ""))

    def test_a_pragma_after_the_code_is_caught(self):
        unit = update_c.emit_update_c_unit()
        moved = unit.source.replace(update_c.NO_CONTRACTION + "\n", "") \
            + update_c.NO_CONTRACTION + "\n"
        assert "fp-contract=off" in _messages(verify_update_unit(
            dataclasses.replace(unit, source=moved), "sgd/update-c"))

    @pytest.mark.parametrize("old,new", [
        # The FMA-shaped rewrite: momentum applied after the subtraction.
        ("float v = vel[i] * momentum;\n        v = v - scaled;",
         "float v = vel[i] - scaled / momentum;\n        v = v * momentum;"),
        # Scaled without reading -0.0 as +0.0.
        ("(g[i] + 0.0f) * lr", "g[i] * lr"),
        # A statement more.
        ("vel[i] = v;", "vel[i] = v;\n        v = v * 1.0f;"),
    ], ids=["reordered", "unabsorbed", "extra"])
    def test_a_body_that_is_not_the_chain_is_caught(self, old, new):
        assert "is not numpy's chain in its order" in _messages(
            self._doctored(old, new))

    def test_an_emitter_failure_is_a_finding(self, monkeypatch):
        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(update_c, "emit_update_c_unit", broken)
        assert "emitter failed: boom" in _messages(verify_sgd_update())
