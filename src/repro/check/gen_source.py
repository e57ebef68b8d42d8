"""Analyzer 2: ``ast`` verification of emitted kernel source.

The stencil and sparse generators emit Python with every kernel tap
unrolled and every pointer-shifted slice a literal (paper Figs. 6-7).
This analyzer parses the emitted source -- never executes it -- and
proves, per generated kernel:

* every literal slice/index on a tensor parameter is in-range for that
  tensor's extents under the :class:`ConvSpec`, and strided slices
  select exactly the expected number of elements (an in-bounds but
  off-by-one slice is still caught);
* the union of unrolled taps covers the ``Fy x Fx`` kernel support
  exactly once -- no dropped taps, no double-accumulated taps.  For
  *scheduled* emissions (a non-default pass pipeline) taps legally
  repeat once per tile, so the check demands instead that every tap
  appears the same number of times and, per tap, that the destination
  slices tile the output domain exactly once;
* the generated function touches only whitelisted names: ``np``, its
  own parameters and names the function itself assigns (the fused
  kernel's ``act``/``win``/``flat``/``idx`` scratch);
* slice bounds are literals, as the pointer-shifting transformation
  requires (a non-constant bound means the specializer regressed);
* fused conv+ReLU+pool kernels additionally carry the pool geometry
  contract: a ``bias`` parameter, and the pool-row blocks written to
  ``out``/``argmax`` must partition the pooled rows exactly once.

The C lowerings (:mod:`repro.sparse.codegen_c`,
:mod:`repro.stencil.emit_c`) get the same "emitted == nest" treatment
without a C parser: a printer returns the facts it emitted alongside
the text (:class:`repro.native.CUnit`: the ``#define`` table and, per
kernel, tap order, tap tables and blocks written), and
:func:`verify_native_unit` -- one function for every family --
recomputes each from the scheduled nest the kernel was printed from and
reads the ``#define`` and tap-table lines back out of the text.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.check.findings import Finding
from repro.core.convspec import ConvSpec
from repro.native import CUnit
from repro.sparse import codegen as sparse_codegen
from repro.sparse import codegen_c as sparse_codegen_c
from repro.stencil import emit as stencil_emit
from repro.stencil import emit_c as stencil_emit_c
from repro.stencil.loopir import LoopNest, PoolWindow
from repro.stencil.passes import default_pipeline

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.stencil.passes import SchedulePipeline

ANALYZER = "gen-source"


def _finding(severity: str, location: str, message: str) -> Finding:
    return Finding(severity=severity, analyzer=ANALYZER, location=location,
                   message=message)


@dataclass(frozen=True)
class KernelContract:
    """What the emitted source of one kernel family must satisfy.

    ``arrays`` maps tensor parameter names to per-dimension extents
    (``None`` leaves a dimension unchecked); ``counts`` optionally pins
    the number of elements a slice along a dimension must select;
    ``tap_param``/``tap_dims`` name the tensor and index positions whose
    literal integer pairs enumerate the kernel taps.

    The scheduled-emission extensions: ``allow_repeated_taps`` accepts
    taps appearing once per tile (all with the same multiplicity);
    ``dest_param``/``dest_dims``/``dest_positions``/``dest_shift``
    drive the per-tap destination-coverage check (the accumulation
    target's spatial slices must tile the per-tap index set exactly
    once); ``block_params``/``block_dim``/``block_extent`` require the
    fused kernel's pool-row blocks to partition the pooled rows.
    """

    arrays: dict[str, tuple[int | None, ...]]
    tap_param: str
    tap_dims: tuple[int, int]
    support: frozenset[tuple[int, int]]
    counts: dict[str, tuple[int | None, ...]]
    allow_repeated_taps: bool = False
    dest_param: str = ""
    dest_dims: tuple[int, int] = (1, 2)
    dest_positions: tuple[int, int] = (0, 0)
    dest_shift: tuple[int, int] | None = None
    block_params: tuple[str, ...] = ()
    block_dim: int = 1
    block_extent: int = 0


def _contracts(spec: ConvSpec) -> dict[str, KernelContract]:
    """The five generated-kernel contracts for one (pre-padded) spec."""
    support = frozenset(
        (ky, kx) for ky in range(spec.fy) for kx in range(spec.fx)
    )
    oy, ox = spec.out_ny, spec.out_nx
    stencil_weights = {"weights": (spec.nf, spec.nc, spec.fy, spec.fx)}
    layout = (spec.fy, spec.fx, spec.nf, spec.nc)
    return {
        "stencil-fp": KernelContract(
            arrays={"inputs": spec.input_shape, "out": spec.output_shape,
                    **stencil_weights},
            tap_param="weights", tap_dims=(2, 3), support=support,
            counts={"inputs": (None, oy, ox)},
            dest_param="out", dest_positions=(oy, ox),
        ),
        "stencil-bp-data": KernelContract(
            arrays={"out_error": spec.output_shape,
                    "in_error": spec.input_shape, **stencil_weights},
            tap_param="weights", tap_dims=(2, 3), support=support,
            counts={"in_error": (None, oy, ox)},
            dest_param="in_error", dest_positions=(oy, ox),
            dest_shift=(spec.sy, spec.sx),
        ),
        "stencil-bp-weights": KernelContract(
            arrays={"out_error": spec.output_shape,
                    "inputs": spec.input_shape,
                    "dw": (spec.nf, spec.nc, spec.fy, spec.fx)},
            tap_param="dw", tap_dims=(2, 3), support=support,
            counts={"inputs": (None, oy, ox)},
        ),
        "sparse-bp-data": KernelContract(
            arrays={"eo": (oy * ox, spec.nf), "w_layout": layout,
                    "in_error_hwc": (spec.ny, spec.nx, spec.nc)},
            tap_param="w_layout", tap_dims=(0, 1), support=support,
            counts={"in_error_hwc": (oy, ox, None)},
        ),
        "sparse-bp-weights": KernelContract(
            arrays={"eo": (oy * ox, spec.nf), "dw_layout": layout,
                    "inputs_hwc": (spec.ny, spec.nx, spec.nc)},
            tap_param="dw_layout", tap_dims=(0, 1), support=support,
            counts={"inputs_hwc": (oy, ox, None)},
        ),
    }


def fused_contract(spec: ConvSpec, pool_kernel: int,
                   pool_stride: int | None = None) -> KernelContract:
    """The extended contract of the fused conv+ReLU+pool kernel.

    Beyond the stencil-fp checks it requires the ``bias`` parameter, the
    pooled ``out``/``argmax`` extents, and that the emitted pool-row
    blocks partition the pooled rows exactly once.  Taps legally repeat
    once per pool-row block, all with equal multiplicity.
    """
    pool = PoolWindow(pool_kernel, pool_stride or pool_kernel)
    py = pool.out_extent(spec.out_ny)
    px = pool.out_extent(spec.out_nx)
    support = frozenset(
        (ky, kx) for ky in range(spec.fy) for kx in range(spec.fx)
    )
    return KernelContract(
        arrays={
            "inputs": spec.input_shape,
            "weights": (spec.nf, spec.nc, spec.fy, spec.fx),
            "bias": (spec.nf,),
            "out": (spec.nf, py, px),
            "argmax": (spec.nf, py, px),
        },
        tap_param="weights", tap_dims=(2, 3), support=support,
        counts={},
        allow_repeated_taps=True,
        block_params=("out", "argmax"),
        block_dim=1,
        block_extent=py,
    )


#: ``SchedulePipeline.family`` -> contract key in :func:`_contracts`.
_FAMILY_CONTRACTS = {
    "fp": "stencil-fp",
    "bp_data": "stencil-bp-data",
    "bp_weights": "stencil-bp-weights",
    "sparse_bp_data": "sparse-bp-data",
    "sparse_bp_weights": "sparse-bp-weights",
}


def contract_for(spec: ConvSpec,
                 pipeline: "SchedulePipeline") -> KernelContract:
    """The source contract for one spec under one schedule pipeline.

    Non-default pipelines relax the exactly-once tap rule to the
    equal-multiplicity rule (taps repeat once per tile) and drop the
    slice-count pins, which assume the untiled full-plane emission; the
    per-tap destination-coverage check remains exact either way.
    """
    if pipeline.family == "fused_fp":
        return fused_contract(spec, pipeline.pool_kernel,
                              pipeline.pool_stride or None)
    contract = _contracts(spec)[_FAMILY_CONTRACTS[pipeline.family]]
    if not pipeline.is_default:
        contract = replace(contract, counts={}, allow_repeated_taps=True)
    return contract


#: Emitter attribute per kernel family; resolved late so tests can
#: monkeypatch the emitter modules to seed faults.
_EMITTERS = {
    "stencil-fp": (stencil_emit, "emit_forward_kernel"),
    "stencil-bp-data": (stencil_emit, "emit_backward_data_kernel"),
    "stencil-bp-weights": (stencil_emit, "emit_backward_weights_kernel"),
    "sparse-bp-data": (sparse_codegen, "emit_sparse_backward_data"),
    "sparse-bp-weights": (sparse_codegen, "emit_sparse_backward_weights"),
}


def _index_elements(node: ast.Subscript) -> list[ast.expr]:
    """Subscript elements that consume a dimension (newaxis dropped)."""
    index = node.slice
    elements = list(index.elts) if isinstance(index, ast.Tuple) else [index]
    return [e for e in elements
            if not (isinstance(e, ast.Constant) and e.value is None)]


def _literal_int(node: ast.expr | None) -> int | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)):
        return -node.operand.value
    return None


def _check_dim(
    element: ast.expr, extent: int | None, expected_count: int | None,
    location: str, param: str, dim: int,
) -> list[Finding]:
    """Verify one subscript element against one dimension's extent."""
    if isinstance(element, ast.Slice):
        if element.lower is None and element.upper is None \
                and element.step is None:
            return []  # full-dimension slice
        start = _literal_int(element.lower)
        stop = _literal_int(element.upper)
        step = _literal_int(element.step) if element.step is not None else 1
        if start is None or stop is None or step is None:
            return [_finding(
                "error", location,
                f"{param}[dim {dim}] slice bound is not a literal int "
                f"(pointer-shifting requires literal bounds)",
            )]
        if step < 1 or start < 0 or stop <= start:
            return [_finding(
                "error", location,
                f"{param}[dim {dim}] degenerate slice {start}:{stop}:{step}",
            )]
        out = []
        if extent is not None and stop > extent:
            out.append(_finding(
                "error", location,
                f"{param}[dim {dim}] slice {start}:{stop}:{step} exceeds "
                f"extent {extent}",
            ))
        if expected_count is not None:
            selected = len(range(start, stop, step))
            if selected != expected_count:
                out.append(_finding(
                    "error", location,
                    f"{param}[dim {dim}] slice {start}:{stop}:{step} selects "
                    f"{selected} elements, expected {expected_count}",
                ))
        return out
    index = _literal_int(element)
    if index is None:
        return [_finding(
            "error", location,
            f"{param}[dim {dim}] index is not a literal int",
        )]
    if extent is not None and not 0 <= index < extent:
        return [_finding(
            "error", location,
            f"{param}[dim {dim}] index {index} out of range for "
            f"extent {extent}",
        )]
    return []


def _index_set(element: ast.expr, extent: int | None) -> set[int] | None:
    """The literal index set one subscript element selects, if literal."""
    if isinstance(element, ast.Slice):
        if element.lower is None and element.upper is None \
                and element.step is None:
            return set(range(extent)) if extent is not None else None
        start = _literal_int(element.lower)
        stop = _literal_int(element.upper)
        step = _literal_int(element.step) if element.step is not None else 1
        if start is None or stop is None or step is None:
            return None
        return set(range(start, stop, step))
    index = _literal_int(element)
    return None if index is None else {index}


def _statement_tap(value: ast.expr,
                   contract: KernelContract) -> tuple[int, int] | None:
    """The kernel tap a statement's RHS references, if any."""
    for node in ast.walk(value):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == contract.tap_param):
            elements = _index_elements(node)
            pair = tuple(
                _literal_int(elements[d]) if d < len(elements) else None
                for d in contract.tap_dims
            )
            if None not in pair:
                return pair  # type: ignore[return-value]
    return None


def _check_dest_coverage(
    func: ast.FunctionDef, contract: KernelContract, location: str
) -> list[Finding]:
    """Per tap, the accumulation destination must tile its index set.

    This is what makes tiled emissions verifiable: the union of a tap's
    destination slices (one per tile) must equal the tap's expected
    spatial positions -- no overlap (double accumulation), no hole
    (dropped tile), regardless of the tile shapes the schedule chose.
    """
    if not contract.dest_param:
        return []
    dy, dx = contract.dest_dims
    ny, nx = contract.dest_positions
    extents = contract.arrays.get(contract.dest_param)
    per_tap: dict[tuple[int, int], list[tuple[set[int], set[int]]]] = {}
    for stmt in ast.walk(func):
        if not isinstance(stmt, ast.AugAssign):
            continue
        tap = _statement_tap(stmt.value, contract)
        if tap is None:
            continue
        target = stmt.target
        if isinstance(target, ast.Name) and target.id == contract.dest_param:
            if extents is None or extents[dy] is None or extents[dx] is None:
                continue
            yset = set(range(extents[dy]))
            xset = set(range(extents[dx]))
        elif (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == contract.dest_param):
            elements = _index_elements(target)
            if max(dy, dx) >= len(elements):
                continue
            yset_opt = _index_set(
                elements[dy], extents[dy] if extents else None
            )
            xset_opt = _index_set(
                elements[dx], extents[dx] if extents else None
            )
            if yset_opt is None or xset_opt is None:
                continue  # non-literal bounds are flagged by _check_dim
            yset, xset = yset_opt, xset_opt
        else:
            continue
        per_tap.setdefault(tap, []).append((yset, xset))

    findings: list[Finding] = []
    for tap in sorted(per_tap):
        ky, kx = tap
        if contract.dest_shift is None:
            expected = {(y, x) for y in range(ny) for x in range(nx)}
        else:
            sy, sx = contract.dest_shift
            expected = {(ky + i * sy, kx + j * sx)
                        for i in range(ny) for j in range(nx)}
        covered: list[tuple[int, int]] = []
        for yset, xset in per_tap[tap]:
            covered.extend((y, x) for y in yset for x in xset)
        if len(covered) != len(set(covered)):
            findings.append(_finding(
                "error", location,
                f"tap {tap}: destination slices of "
                f"{contract.dest_param!r} overlap (double accumulation)",
            ))
        if set(covered) != expected:
            findings.append(_finding(
                "error", location,
                f"tap {tap}: destination slices of "
                f"{contract.dest_param!r} cover {len(set(covered))} "
                f"positions, expected {len(expected)}",
            ))
    return findings


def _check_block_coverage(
    func: ast.FunctionDef, contract: KernelContract, location: str
) -> list[Finding]:
    """Fused kernels: pool-row blocks must partition the pooled rows."""
    findings: list[Finding] = []
    for param in contract.block_params:
        rows: list[int] = []
        literal = True
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == param):
                    continue
                elements = _index_elements(target)
                if contract.block_dim >= len(elements):
                    continue
                selected = _index_set(
                    elements[contract.block_dim], contract.block_extent
                )
                if selected is None:
                    findings.append(_finding(
                        "error", location,
                        f"{param} pool-row block bound is not a literal int",
                    ))
                    literal = False
                    continue
                rows.extend(selected)
        if not literal:
            continue
        if len(rows) != len(set(rows)):
            findings.append(_finding(
                "error", location,
                f"{param} pool-row blocks overlap",
            ))
        if set(rows) != set(range(contract.block_extent)):
            findings.append(_finding(
                "error", location,
                f"{param} pool-row blocks cover {sorted(set(rows))} "
                f"instead of 0..{contract.block_extent - 1}",
            ))
    return findings


def verify_kernel_source(
    source: str, contract: KernelContract, location: str
) -> list[Finding]:
    """Statically verify one emitted kernel source against its contract."""
    findings: list[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_finding("error", location,
                         f"emitted source does not parse: {exc}")]
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(functions) != 1:
        return [_finding(
            "error", location,
            f"emitted module defines {len(functions)} functions, expected 1",
        )]
    func = functions[0]
    params = {a.arg for a in func.args.args}
    missing = set(contract.arrays) - params
    if missing:
        findings.append(_finding(
            "error", location,
            f"generated function is missing tensor parameters "
            f"{sorted(missing)}",
        ))

    # Names the function itself assigns (fused-kernel scratch like
    # ``act``/``win``/``flat``/``idx``) are as trusted as parameters;
    # anything else except ``np`` is still a stray global.
    assigned = {
        node.id for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    allowed = params | assigned | {"np"}

    taps: list[tuple[int, int]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in allowed:
                findings.append(_finding(
                    "error", f"{location}:{node.lineno}",
                    f"generated code references non-whitelisted name "
                    f"{node.id!r} (allowed: np + parameters)",
                ))
        if not isinstance(node, ast.Subscript):
            continue
        if not isinstance(node.value, ast.Name):
            continue
        param = node.value.id
        extents = contract.arrays.get(param)
        if extents is None:
            continue
        where = f"{location}:{node.lineno}"
        elements = _index_elements(node)
        if len(elements) > len(extents):
            findings.append(_finding(
                "error", where,
                f"{param} subscripted with {len(elements)} indices but has "
                f"{len(extents)} dimensions",
            ))
            continue
        counts = contract.counts.get(param, (None,) * len(extents))
        for dim, element in enumerate(elements):
            findings.extend(_check_dim(
                element, extents[dim], counts[dim], where, param, dim
            ))
        if param == contract.tap_param:
            pair = tuple(
                _literal_int(elements[d]) if d < len(elements) else None
                for d in contract.tap_dims
            )
            if None not in pair:
                taps.append(pair)  # type: ignore[arg-type]

    # Tap coverage: the unrolled taps must tile the support exactly once
    # -- or, for scheduled emissions, once per tile with equal
    # multiplicity (the destination-coverage check proves the tiles).
    multiplicity = {t: taps.count(t) for t in set(taps)}
    if contract.allow_repeated_taps:
        if len(set(multiplicity.values())) > 1:
            findings.append(_finding(
                "error", location,
                f"taps emitted with unequal multiplicity: {multiplicity}",
            ))
    else:
        duplicates = {t for t, n in multiplicity.items() if n > 1}
        if duplicates:
            findings.append(_finding(
                "error", location,
                f"taps emitted more than once (double accumulation): "
                f"{sorted(duplicates)}",
            ))
    uncovered = set(contract.support) - set(taps)
    if uncovered:
        findings.append(_finding(
            "error", location,
            f"kernel support not covered by the unrolled taps; missing "
            f"{sorted(uncovered)}",
        ))
    unexpected = set(taps) - set(contract.support)
    if unexpected:
        findings.append(_finding(
            "error", location,
            f"taps outside the kernel support: {sorted(unexpected)}",
        ))
    findings.extend(_check_dest_coverage(func, contract, location))
    findings.extend(_check_block_coverage(func, contract, location))
    return findings


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
            if nest.vectorized else sparse_codegen._taps(nest)
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


def _emitted(emit, location: str, findings: list[Finding]):
    """``emit()``, or ``None`` and a finding if the emitter raised."""
    try:
        return emit()
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        findings.append(_finding("error", location, f"emitter failed: {exc}"))
        return None


def verify_native_units(spec: ConvSpec) -> list[Finding]:
    """Emit (printers resolved late, so tests can seed faults) and verify
    every C unit of ``spec``."""
    findings: list[Finding] = []
    for family, pipelines in native_units(spec):
        location = f"{spec.name or spec.describe()}/{family}"
        unit = _emitted(
            lambda: sparse_codegen_c.emit_sparse_c_unit(spec)
            if family == "sparse-c" else stencil_emit_c.emit_stencil_c_unit(
                spec, *pipelines.values()), location, findings)
        if unit is not None:
            findings.extend(verify_native_unit(
                unit, {symbol: pipeline.build_nest(spec)
                       for symbol, pipeline in pipelines.items()}, location))
    return findings


def verify_generated_sources(specs: list[ConvSpec]) -> list[Finding]:
    """Emit and statically verify every kernel family for every spec.

    Specs must be engine-facing (``pad == 0``); the emitters reject
    padded specs and that rejection is reported as a finding rather
    than raised.  Specs whose output plane admits a 2x2 max pool also
    get their fused conv+ReLU+pool emission verified against the
    extended fused contract, and every spec its C units
    (:func:`verify_native_units`).
    """
    findings: list[Finding] = []
    for spec in specs:
        findings.extend(verify_native_units(spec))
        contracts = _contracts(spec)
        emissions = [(family, contracts[family],
                      lambda m=module, a=attr: getattr(m, a)(spec))
                     for family, (module, attr) in _EMITTERS.items()]
        if spec.out_ny >= 2 and spec.out_nx >= 2:
            emissions.append((
                "stencil-fused-fp", fused_contract(spec, 2),
                lambda: stencil_emit.emit_fused_forward_kernel(spec, 2)))
        for family, contract, emit in emissions:
            location = f"{spec.name or spec.describe()}/{family}"
            kernel = _emitted(emit, location, findings)
            if kernel is not None:
                findings.extend(
                    verify_kernel_source(kernel.source, contract, location))
    return findings
