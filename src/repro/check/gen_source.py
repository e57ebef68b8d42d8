"""Analyzer 1: verification of the emitted C kernel units.

The stencil and sparse printers (:mod:`repro.stencil.emit_c`,
:mod:`repro.sparse.codegen_c`) write C from the scheduled loop nest
(paper Figs. 6-7).  This analyzer checks that the text says what the
nest says without a C parser and without a compiler: a printer returns
the facts it emitted alongside the text (:class:`repro.native.CUnit`:
the ``#define`` table and, per kernel, tap order, tap tables and blocks
written), and :func:`verify_native_unit` -- one function for every
family -- recomputes each from the nest the kernel was printed from and
reads the ``#define`` and tap-table lines back out of the text.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.check.findings import Finding
from repro.core.convspec import ConvSpec
from repro.native import CUnit
from repro.sparse import codegen_c as sparse_codegen_c
from repro.stencil import emit_c as stencil_emit_c
from repro.stencil.loopir import LoopNest
from repro.stencil.passes import default_pipeline

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.stencil.passes import SchedulePipeline

ANALYZER = "gen-source"


def _finding(severity: str, location: str, message: str) -> Finding:
    return Finding(severity=severity, analyzer=ANALYZER, location=location,
                   message=message)


def _emitted_table(source: str, name: str) -> tuple[int, ...] | None:
    """The literal initialiser of ``static const int <name>[NT]``."""
    match = re.search(
        rf"^static const int {name}\[NT\] = \{{([-0-9, ]*)\}};$",
        source, re.MULTILINE)
    if match is None:
        return None
    return tuple(int(v) for v in match.group(1).split(",") if v.strip())


def _scratch_needs(nest: LoopNest, lit: dict[str, int]) -> dict[str, int]:
    """Floats ``nest``'s kernels index in each scratch section: the
    sparse kernels' panel, HWC image and CSR arrays, the fused kernel's
    ``act`` tile -- from the spec, not from what the printer reports."""
    spec, ncp = nest.spec, lit.get("NCP", 0)
    positions = spec.out_ny * spec.out_nx
    if nest.pool is not None:
        rows = nest.stage("maxpool").loop("py").tile or 1
        rows = nest.pool.rows_needed(
            min(rows, nest.pool.out_extent(spec.out_ny)))
        return {"ACT": lit.get("FB", spec.nf) * rows * spec.out_nx}
    return {"PANEL": spec.fy * spec.fx * spec.nf * ncp,
            "HWC": spec.ny * spec.nx * ncp,
            "VAL": positions * spec.nf, "IDX": positions * spec.nf,
            "PTR": max(positions, spec.nf) + 1}


def verify_native_unit(unit: CUnit, nests: dict[str, LoopNest],
                       location: str) -> list[Finding]:
    """Verify one C unit against the nests its kernels were printed from
    (``nests``: exported kernel symbol -> scheduled nest).

    Everything is recomputed here from the nests and compared with what
    the printer says it emitted *and* with the ``#define`` / tap-table
    lines of the text itself: geometry literals restate the spec,
    channel padding is whole vectors, scratch sections hold what the
    kernels index, are disjoint and inside the capacity the caller is
    told to provide, taps are the support exactly once in the expected
    order, each tap's weight index and shifted offset are the nest's and
    stay inside the image, and the blocks written tile the output
    exactly once.
    """
    findings: list[Finding] = []

    def error(message: str) -> None:
        findings.append(_finding("error", location, message))

    lit = dict(unit.literals)
    emitted = {m.group(1): int(m.group(2)) for m in re.finditer(
        r"^#define (\w+) (-?\d+)$", unit.source, re.MULTILINE)}
    if emitted != lit:
        error(f"#define lines {sorted(emitted.items())} differ from the "
              f"literals the printer reported {sorted(lit.items())}")
    if set(nests) != {k.symbol for k in unit.kernels}:
        error(f"kernels {[k.symbol for k in unit.kernels]} are not the "
              f"expected {sorted(nests)}")
        return findings
    pooled = any(nest.pool is not None for nest in nests.values())
    if unit.helpers != (("unpool",) if pooled else ()):
        error(f"helpers {unit.helpers} are not the expected "
              f"{('unpool',) if pooled else ()}")
    elif pooled:
        _verify_unpool(unit, lit, error)
    # Channel-fastest images pad every position to NCP floats; planar
    # ones (no NCP) have a pitch of one.
    pitch = lit.get("NCP", 1)
    if "NCP" in lit:
        vw, cv = lit.get("VW", 0), lit.get("CV", 0)
        if vw <= 0 or cv <= 0 or pitch < lit.get("NC", 0) \
                or pitch % max(vw * cv, 1):
            error(f"channel tiling NCP={pitch} VW={vw} CV={cv} does not "
                  f"cover {lit.get('NC')} channels in whole chunks")
            return findings

    needs: dict[str, int] = {}
    for nest in nests.values():
        needs.update(_scratch_needs(nest, lit))
    end = 0
    for name in (n[:-4] for n in lit if n.endswith("_OFF")):
        size, offset = lit.get(f"{name}_FLOATS", -1), lit[f"{name}_OFF"]
        if size < needs.get(name, size + 1):
            error(f"scratch section {name} holds {size} floats, the "
                  f"kernels index {needs.get(name, 'no such section')}")
        if offset < end:
            error(f"scratch section {name} at {offset} overlaps the "
                  f"section before it (ends {end})")
        end = max(end, offset + max(size, needs.get(name, 0)))
    if lit.get("SCRATCH_FLOATS", -1) < end:
        error(f"SCRATCH_FLOATS {lit.get('SCRATCH_FLOATS')} is short of "
              f"the sections' end {end}")

    for facts in unit.kernels:
        nest = nests[facts.symbol]
        spec, where = nest.spec, f"kernel {facts.symbol}"
        oy, ox = spec.out_ny, spec.out_nx
        geometry = {"NC": spec.nc, "NF": spec.nf, "NY": spec.ny,
                    "NX": spec.nx, "OY": oy, "OX": ox, "SY": spec.sy,
                    "SX": spec.sx, "FY": spec.fy, "FX": spec.fx,
                    "NT": spec.fy * spec.fx}
        if nest.pool is not None:
            geometry.update(PK=nest.pool.kernel, PS=nest.pool.stride,
                            PY=nest.pool.out_extent(oy),
                            PX=nest.pool.out_extent(ox))
        # Derived extents restate the spec wherever a unit emits them.
        geometry.update({name: want for name, want in (
            ("P", oy * ox), ("WF", spec.nc * spec.fy * spec.fx))
            if name in lit})
        for name, want in geometry.items():
            if lit.get(name) != want:
                error(f"{name} emitted as {lit.get(name)}, the nest "
                      f"gives {want}")

        # Taps: the support exactly once, in the nest's loop order for
        # the sparse kernels and in the stencil C printer's own constant
        # one (kx, then ky, whatever the pipeline) for the vectorized
        # nests it prints; the tables the kernel indexes with say the
        # same, in the text too, and no tap leaves the image.
        expected = list(stencil_emit_c.column_taps(spec)) \
            if nest.vectorized else sparse_codegen_c._taps(nest)
        if sorted(facts.taps) != sorted(expected):
            error(f"{where}: taps {sorted(facts.taps)} are not the kernel "
                  f"support exactly once")
        elif list(facts.taps) != expected:
            error(f"{where}: taps are emitted in {list(facts.taps)}, the "
                  f"expected order is {expected}")
        for suffix, reported, want in (
                ("TAP_W", facts.tap_w,
                 tuple(ky * spec.fx + kx for ky, kx in expected)),
                ("TAP_OFF", facts.tap_off,
                 tuple((ky * spec.nx + kx) * pitch for ky, kx in expected))):
            name = f"{facts.symbol.upper()}_{suffix}"
            got = _emitted_table(unit.source, name)
            if got != tuple(reported):
                error(f"table {name} reads {got} in the text, the printer "
                      f"reported {tuple(reported)}")
            if got != want:
                error(f"table {name} emitted as {got}, the nest gives "
                      f"{want}")
            if suffix == "TAP_OFF" and got:
                # One past the last float the last position's tap reads.
                reach = max(got) + ((oy - 1) * spec.sy * spec.nx
                                    + (ox - 1) * spec.sx + 1) * pitch
                if min(got) < 0 or reach > spec.ny * spec.nx * pitch:
                    error(f"table {name}: furthest access {reach} is "
                          f"outside the {spec.ny}x{spec.nx} image")

        domain = nest.buffer(nest.stages[-1].stmt.out.buffer).shape
        written = np.zeros(domain, dtype=np.int64)
        for block in facts.blocks:
            if len(block) != len(domain) or any(
                    start < 0 or extent <= 0 or start + extent > full
                    for (start, extent), full in zip(block, domain)):
                error(f"{where}: block {block} leaves the output {domain}")
                continue
            written[tuple(slice(start, start + extent)
                          for start, extent in block)] += 1
        if (written != 1).any():
            error(f"{where}: blocks write {int((written == 0).sum())} "
                  f"output elements never and "
                  f"{int((written > 1).sum())} more than once")
    return findings


def _verify_unpool(unit: CUnit, lit: dict[str, int],
                   error: Callable[[str], None]) -> None:
    """The fused unit's backward writes only inside the conv-shaped error
    it is handed: its text is the scatter whose two writes are the
    ``OY * OX`` zeroing of each plane and the add at window ``(p, q)``'s
    argmax ``t`` (checked to lie in ``[0, PK * PK)``), and from the
    literals -- which the fused kernel's check holds to the spec and the
    pool window -- the last window's reach stays inside ``OY x OX``."""
    if stencil_emit_c.UNPOOL.format(name=unit.name) not in unit.source:
        error("the unpool export is not the scatter the printer emits")
    for pooled, extent in (("PY", "OY"), ("PX", "OX")):
        reach = (lit.get(pooled, 0) - 1) * lit.get("PS", 0) + lit.get("PK", 0)
        if lit.get(pooled, 0) < 1 or reach > lit.get(extent, 0):
            error(f"unpool: {lit.get(pooled)} windows reach {reach}, "
                  f"outside {extent}={lit.get(extent)}")


def native_units(spec: ConvSpec) -> list[tuple[
        str, dict[str, "SchedulePipeline"]]]:
    """``(family, {kernel symbol: pipeline})`` of every C unit ``spec``
    has: the sparse BP pair always; the stencil FP kernel and (where a
    2x2 pool fits) the fused kernel for the stride-1 specs the stencil
    printer covers."""
    units = [("sparse-c", {"bd": default_pipeline("sparse_bp_data"),
                           "dw": default_pipeline("sparse_bp_weights")})]
    if (spec.sy, spec.sx) == (1, 1):
        host = stencil_emit_c.host_pipeline
        units.append(("stencil-fp-c", {"fp": host(None, "fp")}))
        if spec.out_ny >= 2 and spec.out_nx >= 2:
            units.append(("stencil-fused-fp-c",
                          {"fused": host(None, "fused_fp", 2, 2)}))
    return units


def verify_native_units(spec: ConvSpec) -> list[Finding]:
    """Emit (printers resolved late, so tests can seed faults) and verify
    every C unit of ``spec``."""
    findings: list[Finding] = []
    for family, pipelines in native_units(spec):
        location = f"{spec.name or spec.describe()}/{family}"
        try:
            unit = sparse_codegen_c.emit_sparse_c_unit(spec) \
                if family == "sparse-c" else \
                stencil_emit_c.emit_stencil_c_unit(spec, *pipelines.values())
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            findings.append(_finding("error", location,
                                     f"emitter failed: {exc}"))
            continue
        findings.extend(verify_native_unit(
            unit, {symbol: pipeline.build_nest(spec)
                   for symbol, pipeline in pipelines.items()}, location))
    return findings
