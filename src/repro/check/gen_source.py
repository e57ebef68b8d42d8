"""Analyzer 1: verification of the emitted C kernel units.

The stencil and sparse printers (:mod:`repro.stencil.emit_c`,
:mod:`repro.sparse.codegen_c`) write C from the scheduled loop nest
(paper Figs. 6-7).  This analyzer checks that the text says what the
nest says without a C parser and without a compiler: a printer returns
the facts it emitted alongside the text (:class:`repro.native.CUnit`:
the ``#define`` table and, per kernel, tap order, tap tables and blocks
written), and :func:`verify_native_unit` -- one function for every
family -- recomputes each from the nest the kernel was printed from and
reads the ``#define`` and tap-table lines back out of the text.  The
GEMM epilogue walks no nest: :func:`verify_epilogue_unit` holds its
literals to the conv output and the window, and its text to the fused
unit's pooled store and scatter.
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
from repro.stencil.loopir import LoopNest, PoolWindow
from repro.stencil.passes import default_pipeline

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.stencil.passes import SchedulePipeline

ANALYZER = "gen-source"

#: The pool window the fused and epilogue units are printed for here.
CHECKED_WINDOW = PoolWindow(2, 2)


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
    sparse kernels' panel, HWC image (in dW's row order up to the last
    patch row's last vector), CSR arrays and the pooled export's routed
    row, the fused kernel's ``act`` tile -- from the spec and the
    host, not from what the printer reports."""
    spec, ncp = nest.spec, lit.get("NCP", 0)
    positions = spec.out_ny * spec.out_nx
    if nest.pool is not None:
        rows = nest.stage("maxpool").loop("py").tile or 1
        rows = nest.pool.rows_needed(
            min(rows, nest.pool.out_extent(spec.out_ny)))
        return {"ACT": lit.get("FB", spec.nf) * rows * spec.out_nx}
    panel = spec.fy * spec.fx * spec.nf * ncp
    hwc = spec.ny * spec.nx * ncp
    order = sparse_codegen_c.dw_rows(spec)
    if order is not None:
        row = order[0] * order[1]
        panel = max(panel, spec.nf * spec.fy * row)
        hwc = max(hwc, ((spec.out_ny - 1) * spec.sy * spec.nx
                        + (spec.out_nx - 1) * spec.sx
                        + (spec.fy - 1) * spec.nx) * spec.nc + row)
    return {"PANEL": panel, "HWC": hwc,
            "VAL": positions * spec.nf, "IDX": positions * spec.nf,
            "PTR": max(positions, spec.nf) + 1,
            "ROW": 3 * spec.out_nx}


def _emitted_literals(unit: CUnit,
                      error: Callable[[str], None]) -> dict[str, int]:
    """The literals the printer reported, once the text's ``#define``
    lines are checked to say the same."""
    lit = dict(unit.literals)
    emitted = {m.group(1): int(m.group(2)) for m in re.finditer(
        r"^#define (\w+) (-?\d+)$", unit.source, re.MULTILINE)}
    if emitted != lit:
        error(f"#define lines {sorted(emitted.items())} differ from the "
              f"literals the printer reported {sorted(lit.items())}")
    return lit


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

    lit = _emitted_literals(unit, error)
    if set(nests) != {k.symbol for k in unit.kernels}:
        error(f"kernels {[k.symbol for k in unit.kernels]} are not the "
              f"expected {sorted(nests)}")
        return findings
    pooled = any(nest.pool is not None for nest in nests.values())
    helpers = ("unpool",) if pooled else ("pooled",) if "dw" in nests \
        else ()
    if unit.helpers != helpers:
        error(f"helpers {unit.helpers} are not the expected {helpers}")
    elif pooled:
        _verify_unpool(unit, lit, error)
    elif helpers:
        _verify_dw_order(unit, lit, nests["dw"].spec, error)
        if sparse_codegen_c.POOLED.format(name=unit.name) not in unit.source:
            error("the pooled export is not the routing the printer emits")
    # Channel-fastest images pad every position to NCP floats (dW's row
    # order packs them to NC: DWP); planar ones (no NCP) have a pitch of
    # one.
    pitches = {"dw": lit.get("DWP", 1)}
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
        pitch = pitches.get(facts.symbol, lit.get("NCP", 1))
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
        # one (kx, then ky, whatever the register file) for the
        # vectorized nests it prints; the tables the kernel indexes with
        # say the same, in the text too, and no tap leaves the image.
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


def _verify_dw_order(unit: CUnit, lit: dict[str, int], spec: ConvSpec,
                     error: Callable[[str], None]) -> None:
    """dW runs in the loop order the spec and this host's vector
    registers give (:func:`repro.sparse.codegen_c.dw_rows`), with its
    text and literals: the tap order over a channel-padded image, or the
    row order over a packed one whose ``RV`` vectors of ``RVW`` floats
    cover a tap row's ``FX * NC``."""
    order = sparse_codegen_c.dw_rows(spec)
    if order is None:
        name, text = "tap", sparse_codegen_c.DW_TAPS
        want = {"DWP": lit.get("NCP"), "RVW": None, "RV": None, "RW": None}
    else:
        name, text = "row", sparse_codegen_c.DW_ROWS
        want = {"DWP": spec.nc, "RVW": order[0], "RV": order[1],
                "RW": order[0] * order[1]}
        if lit.get("RW", 0) < spec.fx * spec.nc:
            error(f"dW's row order: RW={lit.get('RW')} floats do not hold "
                  f"a tap row's {spec.fx * spec.nc}")
    for key, value in want.items():
        if lit.get(key) != value:
            error(f"dW's {name} order: {key} emitted as {lit.get(key)}, "
                  f"the spec and the host's vector registers give {value}")
    if text not in unit.source:
        error(f"dW's loops are not the {name} order the printer emits")


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
    has: the sparse BP pair (and its pooled export) always; the stencil
    FP kernel and (where a :data:`CHECKED_WINDOW` pool fits) the fused
    kernel for the stride-1 specs the stencil printer covers; and where
    that pool fits, the GEMM epilogue of the conv output (no kernels)."""
    units = [("sparse-c", {"bd": default_pipeline("sparse_bp_data"),
                           "dw": default_pipeline("sparse_bp_weights")})]
    pools = min(spec.out_ny, spec.out_nx) >= CHECKED_WINDOW.kernel
    if (spec.sy, spec.sx) == (1, 1):
        host = stencil_emit_c.host_pipeline
        units.append(("stencil-fp-c", {"fp": host("fp")}))
        if pools:
            units.append(("stencil-fused-fp-c", {"fused": host(
                "fused_fp", CHECKED_WINDOW.kernel, CHECKED_WINDOW.stride)}))
    if pools:
        units.append(("gemm-epilogue-c", {}))
    return units


def verify_epilogue_unit(unit: CUnit, spec: ConvSpec, pool: PoolWindow,
                         location: str) -> list[Finding]:
    """The GEMM epilogue of ``spec``'s conv output for ``pool``: its
    ``#define`` lines are the literals reported, which restate the conv
    output and the window; it exports exactly the pooled store and the
    scatter, whose text is the fused unit's; and the last window stays
    inside the conv output (:func:`_verify_unpool`)."""
    findings: list[Finding] = []

    def error(message: str) -> None:
        findings.append(_finding("error", location, message))

    lit = _emitted_literals(unit, error)
    if unit.kernels or unit.helpers != ("pool", "unpool"):
        error(f"exports {unit.exports} are not the expected "
              f"('pool', 'unpool')")
    nf, oy, ox = spec.output_shape
    want = {"NF": nf, "OY": oy, "OX": ox, "PK": pool.kernel,
            "PS": pool.stride, "PY": (oy - pool.kernel) // pool.stride + 1,
            "PX": (ox - pool.kernel) // pool.stride + 1, "OUT_F": oy * ox,
            "SCRATCH_FLOATS": 0}
    for name, value in want.items():
        if lit.get(name) != value:
            error(f"{name} emitted as {lit.get(name)}, the conv output and "
                  f"window give {value}")
    if stencil_emit_c._POOL_STORE not in unit.source:
        error("the pool export is not the fused unit's pooled store")
    _verify_unpool(unit, lit, error)
    return findings


def verify_native_units(spec: ConvSpec) -> list[Finding]:
    """Emit (printers resolved late, so tests can seed faults) and verify
    every C unit of ``spec``."""
    findings: list[Finding] = []
    for family, pipelines in native_units(spec):
        location = f"{spec.name or spec.describe()}/{family}"
        try:
            if family == "sparse-c":
                unit = sparse_codegen_c.emit_sparse_c_unit(spec)
            elif family == "gemm-epilogue-c":
                unit = stencil_emit_c.emit_epilogue_c_unit(spec,
                                                           CHECKED_WINDOW)
            else:
                unit = stencil_emit_c.emit_stencil_c_unit(
                    spec, *pipelines.values())
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            findings.append(_finding("error", location,
                                     f"emitter failed: {exc}"))
            continue
        if family == "gemm-epilogue-c":
            findings.extend(verify_epilogue_unit(unit, spec, CHECKED_WINDOW,
                                                 location))
            continue
        findings.extend(verify_native_unit(
            unit, {symbol: pipeline.build_nest(spec)
                   for symbol, pipeline in pipelines.items()}, location))
    return findings
