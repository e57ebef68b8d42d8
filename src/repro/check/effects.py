"""Analyzer 4: effect-typed happens-before verification of task graphs.

The task-graph runtime (:mod:`repro.runtime.dag`) removed the per-layer
barriers; this analyzer proves the removal never traded determinism for
speed.  Every :class:`~repro.runtime.dag.TaskNode` carries a declared
effect set -- symbolic :class:`~repro.runtime.dag.Region` reads/writes
over logical buffers -- and the verifier checks three properties over a
compiled graph:

* **race freedom** -- for every pair of nodes not ordered by a path,
  no write region of one overlaps a read or write region of the other
  (two ``atomic`` regions are exempt: the runtime serializes them via
  the engine free-list; one atomic against one plain region still
  conflicts -- that is the aliased-workspace bug);
* **deterministic reduction** -- a node carrying ``reduce_buffer`` /
  ``reduce_order`` attrs must consume every partial element in strictly
  ascending declared order, each element written by exactly one
  ancestor; any node folding several partial elements *without* a
  declared order is flagged;
* **declaration honesty** -- an AST pass over each node's callable
  infers the effects the code can perform and cross-checks them against
  the declaration in both directions, so declarations cannot drift from
  code (a node with no declared effects is an error, never race-free).

The effect vocabulary (``act:{i}``, ``err:{i}``, ``weights:{layer}``,
``grad:{layer}``, ``cache:{layer}``, ``state:{layer}``,
``plan:{layer}:{chain}``, ``partial:{layer}``, ``bdout:{layer}``,
``ws:{layer}:{phase}``, ``shm:{arena_tag}``) is documented on
:class:`~repro.runtime.dag.Region`.  Cross-checking compares buffers at
``family:qualifier`` granularity (the chain/phase suffix is a
declaration refinement the AST cannot see).

:func:`preflight_dag` is the fail-fast entry wired into
:class:`~repro.nn.training_loop.TrainingLoop` under ``scheduler="dag"``;
:func:`drop_dependency` / :func:`alias_workspace` are the seeded
mutations the self-tests use to prove the verifier is not vacuous.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import telemetry
from repro.check.findings import CheckReport, Finding
from repro.errors import ReproError
from repro.nn.network import Network
from repro.runtime.dag import (
    Region,
    TaskGraph,
    TaskNode,
    build_backward_graph,
    build_forward_graph,
)

ANALYZER = "effects"

#: Buffer families whose accesses happen inside the executor/runtime
#: (engine free-list scratch, arena publication), not in node source;
#: they participate fully in the race check but are exempt from the
#: AST cross-check.
EXEMPT_FAMILIES = frozenset({"ws", "shm"})

#: A buffer at cross-check granularity: ``(family, qualifier-or-None)``.
Token = tuple[str, "str | None"]


def _finding(severity: str, location: str, message: str) -> Finding:
    return Finding(severity=severity, analyzer=ANALYZER, location=location,
                   message=message)


def _split(buffer: str) -> Token:
    parts = buffer.split(":")
    return parts[0], (parts[1] if len(parts) > 1 else None)


def _render(token: Token) -> str:
    family, qualifier = token
    return family if qualifier is None else f"{family}:{qualifier}"


def _covers(token: Token, regions: Iterable[Region]) -> bool:
    """True when some region's buffer matches ``token``."""
    family, qualifier = token
    for region in regions:
        rfamily, rqualifier = _split(region.buffer)
        if rfamily != family:
            continue
        if qualifier is None or rqualifier is None or qualifier == rqualifier:
            return True
    return False


# -- AST effect inference ----------------------------------------------------

#: Attribute names on layer-like objects, mapped to buffer families.
_ATTR_FAMILIES = {
    "weights": "weights",
    "bias": "weights",
    "d_weights": "grad",
    "d_bias": "grad",
    "_cached_padded_input": "cache",
    "last_error_sparsity": "state",
}

#: List-valued free variables holding the activation/error chains.
_CELL_FAMILIES = {"cells": "act", "ecells": "err"}

#: Context-dict keys, mapped to the buffer family they hold.
_CTX_KEY_FAMILIES = {"begun": "state", "partials": "partial"}


@dataclass
class InferredEffects:
    """What a node callable's source says it may touch.

    ``reads``/``writes`` come from direct loads/stores in the source;
    ``possible_reads``/``possible_writes`` from the call contracts of
    runtime methods (``layer.forward`` may cache its padded input, ...)
    and only serve as witnesses, never as declaration requirements.
    """

    reads: set[Token] = field(default_factory=set)
    writes: set[Token] = field(default_factory=set)
    possible_reads: set[Token] = field(default_factory=set)
    possible_writes: set[Token] = field(default_factory=set)
    #: The code stores into a slice of a prepared output buffer
    #: (``adopt_slice`` or a nested-subscript element store).
    ranged_write: bool = False


def _unwrap(fn: Callable[[], Any]) -> "tuple[Any, dict[str, Any]] | None":
    """Peel ``functools.partial``/bound-method wrappers; build the env.

    Returns the underlying function plus a name -> value environment of
    its closure cells, keyword defaults, ``partial`` keywords and (for
    bound methods) the instance under its ``self`` parameter name --
    everything the inference needs to resolve symbolic buffer names.
    """
    env: dict[str, Any] = {}
    func: Any = fn
    while isinstance(func, functools.partial):
        env.update(func.keywords)
        func = func.func
    if inspect.ismethod(func):
        code = func.__func__.__code__
        if code.co_argcount:
            env[code.co_varnames[0]] = func.__self__
        func = func.__func__
    if not callable(func) or not hasattr(func, "__code__"):
        return None
    if func.__name__ == "<lambda>":
        return None  # getsource returns the enclosing line; unusable
    code = func.__code__
    closure = getattr(func, "__closure__", None) or ()
    for name, cell in zip(code.co_freevars, closure):
        try:
            env.setdefault(name, cell.cell_contents)
        except ValueError:  # pragma: no cover - empty cell
            pass
    defaults = getattr(func, "__defaults__", None) or ()
    if defaults:
        argnames = code.co_varnames[:code.co_argcount]
        for name, value in zip(argnames[-len(defaults):], defaults):
            env.setdefault(name, value)
    return func, env


def _eval_index(node: ast.expr, env: dict[str, Any]) -> "int | None":
    """Evaluate a simple index expression (constants, env ints, +/-)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        value = env.get(node.id)
        return value if isinstance(value, int) else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _eval_index(node.left, env)
        right = _eval_index(node.right, env)
        if left is None or right is None:
            return None
        return left + right if isinstance(node.op, ast.Add) else left - right
    return None


class _EffectInference(ast.NodeVisitor):
    """Collects :class:`InferredEffects` from a node callable's body."""

    def __init__(self, env: dict[str, Any], layer_name: "str | None") -> None:
        self.env = env
        self.layer = layer_name
        self.effects = InferredEffects()

    def _layer_of(self, owner: Any) -> "str | None":
        return getattr(owner, "name", None) or self.layer

    # -- buffer classification -------------------------------------------

    def _classify_subscript(self, node: ast.Subscript
                            ) -> "tuple[Token | None, bool]":
        """``(token, is_element_store)`` for a subscript expression."""
        value = node.value
        if isinstance(value, ast.Name):
            family = _CELL_FAMILIES.get(value.id)
            if family is not None:
                index = _eval_index(node.slice, self.env)
                return (family, str(index) if index is not None else None), \
                    False
            if isinstance(self.env.get(value.id), dict) and \
                    isinstance(node.slice, ast.Constant) and \
                    isinstance(node.slice.value, str):
                family = _CTX_KEY_FAMILIES.get(node.slice.value, "plan")
                return (family, self.layer), False
        if isinstance(value, ast.Subscript):
            inner, _ = self._classify_subscript(value)
            if inner is not None:
                return inner, True  # element access into a held buffer
        return None, False

    # -- visitors ---------------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        token, element = self._classify_subscript(node)
        if token is not None:
            if isinstance(node.ctx, ast.Store):
                self.effects.writes.add(token)
                if element:
                    self.effects.ranged_write = True
            else:
                self.effects.reads.add(token)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self.env:
            family = _ATTR_FAMILIES.get(node.attr)
            if family is not None:
                owner = self.env[node.value.id]
                token = (family, self._layer_of(owner))
                if isinstance(node.ctx, ast.Store):
                    self.effects.writes.add(token)
                else:
                    self.effects.reads.add(token)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "adopt_slice":
            self.effects.ranged_write = True
        elif isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            owner = self.env.get(func.value.id)
            if owner is not None:
                self._apply_contract(func.attr, owner)
        self.generic_visit(node)

    def _apply_contract(self, method: str, owner: Any) -> None:
        """Known effects of runtime calls the AST cannot see into."""
        effects = self.effects
        name = self._layer_of(owner)
        if method == "forward":
            effects.reads.add(("weights", name))
            effects.writes.add(("state", name))
            effects.possible_writes.add(("cache", name))
        elif method == "backward":
            effects.reads.add(("weights", name))
            effects.reads.add(("state", name))
            effects.writes.add(("grad", name))
            effects.possible_reads.add(("cache", name))
            effects.possible_writes.add(("state", name))
            effects.possible_writes.add(("cache", name))
        elif method in ("slice_plan", "weights_plan"):
            # Prep calls publish the plan (and, under the process
            # backend, arena segments -- an exempt family).
            effects.writes.add(("plan", self.layer))


def infer_node_effects(node: TaskNode) -> "InferredEffects | None":
    """Infer a node's effects from its callable source, or ``None``.

    ``None`` means the source is unavailable (builtins, lambdas,
    dynamically generated code); such nodes skip the cross-check but
    still participate in the race check via their declarations.
    """
    unwrapped = _unwrap(node.fn)
    if unwrapped is None:
        return None
    func, env = unwrapped
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    except (OSError, TypeError, SyntaxError):
        return None
    if not tree.body or not isinstance(tree.body[0],
                                       (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
        return None
    visitor = _EffectInference(env, node.attrs.get("layer"))
    for statement in tree.body[0].body:
        visitor.visit(statement)
    return visitor.effects


def crosscheck_node(node: TaskNode, location: str) -> list[Finding]:
    """Both directions of declaration honesty for one node.

    *Code -> declaration*: every effect the source performs must be
    declared (reads may be covered by a declared write: read-modify-
    write nodes declare the write only).  *Declaration -> code*: every
    declared write outside the exempt families must be witnessed by the
    source, so stale declarations cannot over-constrain the race check.
    Declared reads need no witness -- over-approximating reads is safe.
    """
    effects = infer_node_effects(node)
    if effects is None:
        return []
    findings = []
    declared = tuple(node.reads) + tuple(node.writes)
    for token in sorted(effects.reads):
        if token[0] in EXEMPT_FAMILIES:
            continue
        if not _covers(token, declared):
            findings.append(_finding(
                "error", location,
                f"code reads {_render(token)} but the node declares no "
                f"matching read or write",
            ))
    for token in sorted(effects.writes):
        if token[0] in EXEMPT_FAMILIES:
            continue
        if not _covers(token, node.writes):
            findings.append(_finding(
                "error", location,
                f"code writes {_render(token)} but the node declares no "
                f"matching write",
            ))
    if effects.ranged_write and \
            not any(r.lo is not None for r in node.writes):
        findings.append(_finding(
            "error", location,
            "code stores into a slice of a prepared output buffer but "
            "the node declares no ranged write",
        ))
    witnesses = effects.writes | effects.possible_writes
    for region in node.writes:
        family, qualifier = _split(region.buffer)
        if family in EXEMPT_FAMILIES:
            continue
        if region.lo is not None and effects.ranged_write:
            continue
        if not any(family == wfam and
                   (wqual is None or qualifier is None or wqual == qualifier)
                   for wfam, wqual in witnesses):
            findings.append(_finding(
                "error", location,
                f"node declares a write to {region.buffer} the code never "
                f"performs",
            ))
    return findings


# -- happens-before race check -----------------------------------------------


def _ancestor_masks(nodes: Sequence[TaskNode]) -> list[int]:
    """Per-node bitmask of ancestor ids (edges go low id -> high id)."""
    masks = [0] * len(nodes)
    for node in nodes:
        mask = 0
        for dep in node.deps:
            mask |= masks[dep.node_id] | (1 << dep.node_id)
        masks[node.node_id] = mask
    return masks


def _first_conflict(a: TaskNode, b: TaskNode
                    ) -> "tuple[str, Region, Region] | None":
    """The first W/W or R/W overlap between two nodes' effect sets."""
    for x in a.writes:
        for y in b.writes:
            if x.overlaps(y) and not (x.atomic and y.atomic):
                return "write/write", x, y
        for y in b.reads:
            if x.overlaps(y) and not (x.atomic and y.atomic):
                return "write/read", x, y
    for x in a.reads:
        for y in b.writes:
            if x.overlaps(y) and not (x.atomic and y.atomic):
                return "read/write", x, y
    return None


def _check_reductions(graph: TaskGraph, masks: list[int]) -> list[Finding]:
    """Deterministic-reduction discipline over ``partial:`` buffers."""
    findings = []
    nodes = graph.nodes
    for node in nodes:
        location = f"{graph.name}/{node.name}"
        element_reads: dict[str, set[int]] = {}
        for region in node.reads:
            if region.buffer.startswith("partial:") and \
                    region.lo is not None and region.hi == region.lo + 1:
                element_reads.setdefault(region.buffer, set()).add(region.lo)
        buffer = node.attrs.get("reduce_buffer")
        if buffer is None:
            for name, elements in sorted(element_reads.items()):
                if len(elements) > 1:
                    findings.append(_finding(
                        "error", location,
                        f"folds {len(elements)} partial elements of {name} "
                        f"without a declared reduce order (summation order "
                        f"undefined)",
                    ))
            continue
        order = tuple(node.attrs.get("reduce_order", ()))
        if not order:
            findings.append(_finding(
                "error", location,
                f"reduce node over {buffer} declares no reduce_order",
            ))
            continue
        if list(order) != sorted(set(order)):
            findings.append(_finding(
                "error", location,
                f"reduce_order {order} is not strictly ascending",
            ))
        elements = element_reads.get(buffer, set())
        if elements != set(order):
            findings.append(_finding(
                "error", location,
                f"reduce_order covers elements {sorted(set(order))} but the "
                f"node reads elements {sorted(elements)} of {buffer}",
            ))
        for element in sorted(set(order)):
            region = Region(buffer, element, element + 1)
            writers = [
                other for other in nodes
                if other is not node and any(
                    w.buffer == buffer and w.lo is not None
                    and w.overlaps(region) for w in other.writes
                )
            ]
            if len(writers) != 1:
                findings.append(_finding(
                    "error", location,
                    f"partial element {element} of {buffer} has "
                    f"{len(writers)} range writers, expected exactly one",
                ))
            elif not (masks[node.node_id] >> writers[0].node_id) & 1:
                findings.append(_finding(
                    "error", location,
                    f"writer {writers[0].name} of partial element {element} "
                    f"is not ordered before the reduce node",
                ))
    return findings


def verify_graph(graph: TaskGraph, crosscheck: bool = True) -> list[Finding]:
    """Prove one compiled graph race-free, or report every violation."""
    findings: list[Finding] = []
    nodes = graph.nodes
    for node in nodes:
        if not node.reads and not node.writes:
            findings.append(_finding(
                "error", f"{graph.name}/{node.name}",
                "node declares no effects; it cannot be proven race-free",
            ))
    masks = _ancestor_masks(nodes)
    for j, b in enumerate(nodes):
        ancestors = masks[j]
        for i in range(j):
            if (ancestors >> i) & 1:
                continue  # ordered: i precedes j
            conflict = _first_conflict(nodes[i], b)
            if conflict is not None:
                kind, x, y = conflict
                findings.append(_finding(
                    "error", f"{graph.name}/{nodes[i].name}",
                    f"unordered {kind} conflict with {b.name}: "
                    f"{x.buffer} overlaps {y.buffer} and no path orders "
                    f"the two nodes",
                ))
    findings.extend(_check_reductions(graph, masks))
    if crosscheck:
        for node in nodes:
            if node.reads or node.writes:
                findings.extend(
                    crosscheck_node(node, f"{graph.name}/{node.name}")
                )
    return findings


# -- network / corpus entry points -------------------------------------------


def _zero_error(network: Network, batch: int) -> np.ndarray:
    out_shape = tuple(network.layer_shapes[-1])
    return np.zeros((batch,) + out_shape, dtype=np.float32)


def network_graphs(network: Network,
                   batch: int = 4) -> tuple[TaskGraph, TaskGraph]:
    """Compile the FP and BP graphs of a network over a zero batch.

    Graph building is pure -- no node runs, no backend spawns -- so the
    verifier can compile process-backend graphs without forking.
    """
    inputs = np.zeros((batch,) + tuple(network.input_shape),
                      dtype=np.float32)
    forward, _ = build_forward_graph(network, inputs, training=True)
    backward, _ = build_backward_graph(network, _zero_error(network, batch))
    return forward, backward


def step_backward_graph(network: Network, batch: int = 4) -> TaskGraph:
    """The BP graph an SGD step runs: no input error requested, so the
    conv fed by the images has no BP-data chain."""
    graph, _ = build_backward_graph(network, _zero_error(network, batch),
                                    need_input_error=False)
    graph.name += "-step"
    return graph


def _verified_graphs(network: Network,
                     batch: int) -> tuple[TaskGraph, TaskGraph, TaskGraph]:
    return (*network_graphs(network, batch),
            step_backward_graph(network, batch))


def verify_network_graphs(network: Network, batch: int = 4,
                          crosscheck: bool = True) -> list[Finding]:
    """Verify a network's forward graph and both backward graphs."""
    findings: list[Finding] = []
    for graph in _verified_graphs(network, batch):
        findings.extend(verify_graph(graph, crosscheck=crosscheck))
    return findings


def verify_networks(networks: Sequence[Network], batch: int = 4
                    ) -> tuple[list[Finding], dict[str, int]]:
    """Runner entry: verify every network's graphs; coverage meta."""
    findings: list[Finding] = []
    graphs = 0
    nodes = 0
    for network in networks:
        for graph in _verified_graphs(network, batch):
            graphs += 1
            nodes += len(graph)
            findings.extend(verify_graph(graph))
    return findings, {"effect_graphs": graphs, "effect_nodes": nodes}


def preflight_dag(network: Network, batch_size: int = 4) -> CheckReport:
    """Fail-fast effect verification for ``scheduler="dag"`` training.

    Compiles the network's FP/BP graphs over a representative batch and
    raises :class:`repro.errors.CheckError` on any race, reduction or
    declaration-drift finding before the first real batch runs.
    """
    findings = verify_network_graphs(network, batch=batch_size)
    report = CheckReport(findings=findings, meta={"effect_graphs": 3})
    telemetry.event(
        "check.preflight_dag", network=network.name,
        errors=len(report.errors), warnings=len(report.warnings),
    )
    report.raise_if_errors(
        context=f"effect verification of network {network.name!r}"
    )
    return report


# -- seeded mutations (self-test helpers) ------------------------------------


def _node_by_name(graph: TaskGraph, name: str) -> TaskNode:
    for node in graph.nodes:
        if node.name == name:
            return node
    raise ReproError(f"graph {graph.name!r} has no node {name!r}")


def drop_dependency(graph: TaskGraph, child: str, parent: str) -> None:
    """Seeded mutation: delete the ``parent -> child`` edge in place.

    Self-test helper only -- it breaks the happens-before order the
    builders established so tests can assert the verifier reports
    exactly the conflict that edge was protecting against.
    """
    child_node = _node_by_name(graph, child)
    parent_node = _node_by_name(graph, parent)
    if parent_node not in child_node.deps:
        raise ReproError(f"no edge {parent!r} -> {child!r} to drop")
    child_node.deps = tuple(
        dep for dep in child_node.deps if dep is not parent_node
    )
    parent_node.children.remove(child_node)
    child_node.pending = len(child_node.deps)


def alias_workspace(graph: TaskGraph, node: str) -> None:
    """Seeded mutation: pretend ``node`` bypasses the engine free-list.

    Strips the ``atomic`` marker from the node's workspace write, which
    models a node mutating engine scratch without checking it out --
    the verifier must then report a conflict against every sibling
    sharing that workspace.
    """
    target = _node_by_name(graph, node)
    target.writes = tuple(
        replace(region, atomic=False)
        if region.buffer.startswith("ws:") else region
        for region in target.writes
    )
