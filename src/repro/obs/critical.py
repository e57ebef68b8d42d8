"""DAG critical-path analysis and goodput attribution from merged spans.

The paper's goodput argument (Eqs. 9-10, Sec. 5) asks where worker time
actually goes: useful FLOPs, unfold/pack overhead, scheduling, or idle.
For a ``scheduler="dag"`` step the telemetry stream already contains
everything needed to answer per executed graph:

* one ``dag.graph`` event per scheduled graph, carrying the node count
  and the full edge list as ``"dep>child|..."`` node-id pairs
  (:meth:`repro.runtime.dag.TaskGraph.edge_list`);
* one ``dag/node`` span per executed node, carrying ``graph_id``,
  ``node_id``, ``layer``, ``worker`` and the node name;
* the ``dag.idle_seconds`` gauge and the ``conv.flops.*`` counters.

:func:`critical_path_report` reconstructs each executed graph, runs the
classic CPM recurrence over the *measured* node durations (ES/EF
forward, LS/LF backward, slack = LS - ES), and aggregates a
goodput-attribution table: per layer (compute vs pack vs reduce time)
and per worker (busy vs idle), every column measured on this host.
Node kinds come from the fixed ``dag`` builder vocabulary:
``prep``/``head`` nodes pack and publish operands, ``lo:hi`` range nodes
run engine compute, ``reduce``/``finish``/``done`` nodes reduce and
unpack.

The critical path is computed from edges, not wall-clock order, so it
is the true lower bound on step latency for this schedule: nodes with
zero slack are the ones a faster scheduler could not have moved.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.collector import Span, TelemetryCollector

#: Fraction by which measured aggregates may exceed their wall-clock
#: bound before the report refuses to reconcile.  Spans are recorded
#: with independent clock reads (in the parent and in the workers), so
#: sums carry jitter; 25% is generous for CI hosts while still catching
#: structural double-counting.
TOLERANCE = 0.25

#: Node-name suffixes of the graph builders' pack/publish nodes.
_PACK_SUFFIXES = ("prep", "head", "dw_prep", "bd_prep")

#: Node-name suffixes of reduction / unpack / bookkeeping nodes.
_REDUCE_SUFFIXES = ("finish", "dw_reduce", "bd_finish", "done", "reduce")


def node_kind(name: str) -> str:
    """Classify a ``dag`` node name as ``compute``/``pack``/``reduce``."""
    last = name.rsplit("/", 1)[-1]
    if last in _PACK_SUFFIXES:
        return "pack"
    if last in _REDUCE_SUFFIXES:
        return "reduce"
    # Range nodes are named "lo:hi"; whole-layer nodes ("fp/dense") are
    # the layer's entire compute and classify the same way.
    return "compute"


@dataclass
class NodeStat:
    """One executed node with its CPM annotations."""

    node_id: int
    name: str
    layer: str
    kind: str
    worker: int
    start: float
    end: float
    earliest_start: float = 0.0
    earliest_finish: float = 0.0
    latest_start: float = 0.0
    latest_finish: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def slack(self) -> float:
        """Seconds this node could slip without stretching the step."""
        return max(0.0, self.latest_start - self.earliest_start)

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id, "name": self.name,
            "layer": self.layer, "kind": self.kind, "worker": self.worker,
            "seconds": self.seconds, "slack": self.slack,
        }


@dataclass
class GraphAnalysis:
    """CPM results for one executed :class:`~repro.runtime.dag.TaskGraph`."""

    graph_id: int
    name: str
    workers: int
    nodes: list[NodeStat]
    edges: list[tuple[int, int]]
    critical_path: list[NodeStat] = field(default_factory=list)
    critical_seconds: float = 0.0

    @property
    def wall_seconds(self) -> float:
        """Observed makespan: span extent of the graph's node spans."""
        if not self.nodes:
            return 0.0
        return (max(n.end for n in self.nodes)
                - min(n.start for n in self.nodes))

    @property
    def busy_seconds(self) -> float:
        return sum(n.seconds for n in self.nodes)

    def reconciles(self, tolerance: float = TOLERANCE) -> bool:
        """True when CPM totals are consistent with observed wall-clock.

        The critical path is a latency lower bound, so it must not
        exceed the observed makespan (plus tolerance); total busy time
        cannot exceed ``workers x makespan`` (plus tolerance).  A
        failure means the graph reconstruction or the span timing is
        wrong -- not merely that the schedule was inefficient.
        """
        wall = self.wall_seconds
        if wall <= 0.0:
            return not self.nodes
        slop = 1.0 + tolerance
        return (self.critical_seconds <= wall * slop
                and self.busy_seconds <= wall * self.workers * slop)


def _parse_edges(encoded: str) -> list[tuple[int, int]]:
    """Decode :meth:`TaskGraph.edge_list`'s ``"dep>child|..."`` form."""
    edges: list[tuple[int, int]] = []
    if not encoded:
        return edges
    for pair in encoded.split("|"):
        dep, _, child = pair.partition(">")
        edges.append((int(dep), int(child)))
    return edges


def _analyze_graph(graph_id: int, name: str, workers: int,
                   edges: list[tuple[int, int]],
                   spans: list[Span]) -> GraphAnalysis:
    """Run the CPM recurrence over one graph's measured durations."""
    nodes: dict[int, NodeStat] = {}
    for span in spans:
        if span.end is None:
            continue
        node_id = int(span.attrs["node_id"])
        node_name = str(span.attrs.get("node", span.name))
        # Retried nodes record several spans; the last (successful)
        # attempt is the one that unblocked the children.
        prior = nodes.get(node_id)
        if prior is not None and prior.start >= span.start:
            continue
        nodes[node_id] = NodeStat(
            node_id=node_id,
            name=node_name,
            layer=str(span.attrs.get("layer", "")),
            kind=node_kind(node_name),
            worker=int(span.attrs.get("worker", 0)),
            start=span.start,
            end=span.end,
        )
    analysis = GraphAnalysis(
        graph_id=graph_id, name=name, workers=max(1, workers),
        nodes=sorted(nodes.values(), key=lambda n: n.node_id),
        edges=[(d, c) for d, c in edges if d in nodes and c in nodes],
    )
    if not analysis.nodes:
        return analysis
    deps: dict[int, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for dep, child in analysis.edges:
        deps[child].append(dep)
        children[dep].append(child)
    # Forward pass: edges always point low id -> high id by graph
    # construction, so ascending node_id is a topological order.
    for node in analysis.nodes:
        node.earliest_start = max(
            (nodes[d].earliest_finish for d in deps[node.node_id]),
            default=0.0,
        )
        node.earliest_finish = node.earliest_start + node.seconds
    makespan = max(n.earliest_finish for n in analysis.nodes)
    for node in reversed(analysis.nodes):
        node.latest_finish = min(
            (nodes[c].latest_start for c in children[node.node_id]),
            default=makespan,
        )
        node.latest_start = node.latest_finish - node.seconds
    analysis.critical_seconds = makespan
    # Walk the zero-slack chain from the sink with the largest EF.
    eps = max(1e-9, makespan * 1e-6)
    path: list[NodeStat] = []
    current: NodeStat | None = max(
        analysis.nodes, key=lambda n: (n.earliest_finish, -n.slack)
    )
    while current is not None:
        path.append(current)
        current = max(
            (nodes[d] for d in deps[current.node_id]
             if abs(nodes[d].earliest_finish - current.earliest_start) <= eps),
            key=lambda n: n.earliest_finish,
            default=None,
        )
    analysis.critical_path = list(reversed(path))
    return analysis


@dataclass
class CriticalPathReport:
    """Aggregated critical-path / goodput attribution for one collection."""

    graphs: list[GraphAnalysis]
    tolerance: float = TOLERANCE
    #: layer -> kind -> measured seconds, summed across graphs.
    layer_seconds: dict[str, dict[str, float]] = field(default_factory=dict)
    #: worker -> busy seconds, summed across graphs.
    worker_seconds: dict[int, float] = field(default_factory=dict)
    idle_seconds: float = 0.0
    flops_total: float = 0.0
    flops_useful: float = 0.0

    @property
    def wall_seconds(self) -> float:
        return sum(g.wall_seconds for g in self.graphs)

    @property
    def critical_seconds(self) -> float:
        return sum(g.critical_seconds for g in self.graphs)

    @property
    def busy_seconds(self) -> float:
        return sum(g.busy_seconds for g in self.graphs)

    @property
    def reconciles(self) -> bool:
        return all(g.reconciles(self.tolerance) for g in self.graphs)

    def kind_seconds(self) -> dict[str, float]:
        """Total measured seconds by node kind across all layers."""
        out: dict[str, float] = {"compute": 0.0, "pack": 0.0, "reduce": 0.0}
        for kinds in self.layer_seconds.values():
            for kind, seconds in kinds.items():
                out[kind] = out.get(kind, 0.0) + seconds
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "graphs": len(self.graphs),
            "wall_seconds": self.wall_seconds,
            "critical_seconds": self.critical_seconds,
            "busy_seconds": self.busy_seconds,
            "idle_seconds": self.idle_seconds,
            "reconciles": self.reconciles,
            "tolerance": self.tolerance,
            "kind_seconds": self.kind_seconds(),
            "layer_seconds": {
                layer: dict(kinds)
                for layer, kinds in sorted(self.layer_seconds.items())
            },
            "worker_seconds": dict(sorted(self.worker_seconds.items())),
            "flops_total": self.flops_total,
            "flops_useful": self.flops_useful,
            "critical_path": [
                node.to_dict()
                for g in self.graphs for node in g.critical_path
            ],
        }

    def table(self) -> str:
        """The human-readable attribution table the CLI prints."""
        lines: list[str] = []
        kinds = self.kind_seconds()
        lines.append(
            f"critical path over {len(self.graphs)} graph(s): "
            f"{self.critical_seconds * 1e3:.2f} ms critical / "
            f"{self.wall_seconds * 1e3:.2f} ms wall "
            f"({'reconciles' if self.reconciles else 'DOES NOT reconcile'}"
            f" within {self.tolerance:.0%})"
        )
        busy = self.busy_seconds
        denom = max(busy + self.idle_seconds, 1e-12)
        lines.append(
            "attribution: "
            f"compute {kinds['compute'] * 1e3:.2f} ms, "
            f"pack {kinds['pack'] * 1e3:.2f} ms, "
            f"reduce {kinds['reduce'] * 1e3:.2f} ms, "
            f"idle {self.idle_seconds * 1e3:.2f} ms "
            f"({self.idle_seconds / denom:.0%} of worker-time)"
        )
        if self.flops_total > 0.0:
            lines.append(
                f"flops: {self.flops_useful:.3e} useful / "
                f"{self.flops_total:.3e} total "
                f"(goodput fraction {self.flops_useful / self.flops_total:.0%})"
            )
        header = (f"{'layer':<14} {'compute ms':>11} {'pack ms':>9} "
                  f"{'reduce ms':>10}")
        lines.append(header)
        lines.append("-" * len(header))
        for layer in sorted(self.layer_seconds):
            kinds = self.layer_seconds[layer]
            lines.append(
                f"{layer or '(unnamed)':<14} "
                f"{kinds.get('compute', 0.0) * 1e3:11.3f} "
                f"{kinds.get('pack', 0.0) * 1e3:9.3f} "
                f"{kinds.get('reduce', 0.0) * 1e3:10.3f}"
            )
        worker_header = f"{'worker':<14} {'busy ms':>11} {'share':>9}"
        lines.append(worker_header)
        lines.append("-" * len(worker_header))
        for worker in sorted(self.worker_seconds):
            seconds = self.worker_seconds[worker]
            lines.append(
                f"w{worker:<13} {seconds * 1e3:11.3f} "
                f"{seconds / max(busy, 1e-12):9.0%}"
            )
        longest: list[NodeStat] = []
        for g in self.graphs:
            if len(g.critical_path) > len(longest):
                longest = g.critical_path
        if longest:
            lines.append("longest critical path "
                         f"({len(longest)} nodes):")
            for node in longest:
                lines.append(
                    f"  {node.name:<28} {node.seconds * 1e3:9.3f} ms "
                    f"on w{node.worker} (slack {node.slack * 1e3:.3f} ms)"
                )
        return "\n".join(lines)


def critical_path_report(
    collector: TelemetryCollector,
    tolerance: float = TOLERANCE,
) -> CriticalPathReport | None:
    """Build the report from one collection, or ``None`` without DAG data.

    Requires at least one ``dag.graph`` event whose ``dag/node`` spans
    were recorded into the same collector (i.e. the step ran with
    ``scheduler="dag"`` inside the ``collect()`` block).
    """
    graphs_meta: dict[int, dict[str, Any]] = {}
    for event in collector.events:
        if event.name != "dag.graph":
            continue
        graph_id = int(event.attrs["graph_id"])
        graphs_meta[graph_id] = {
            "name": str(event.attrs.get("graph", f"graph-{graph_id}")),
            "workers": int(event.attrs.get("workers", 1)),
            "edges": _parse_edges(str(event.attrs.get("edges", ""))),
        }
    if not graphs_meta:
        return None
    spans_by_graph: dict[int, list[Span]] = defaultdict(list)
    for span in collector.find_spans("dag/node"):
        graph_id = span.attrs.get("graph_id")
        if isinstance(graph_id, int) and graph_id in graphs_meta:
            spans_by_graph[graph_id].append(span)
    analyses = [
        _analyze_graph(graph_id, meta["name"], meta["workers"],
                       meta["edges"], spans_by_graph[graph_id])
        for graph_id, meta in sorted(graphs_meta.items())
        if spans_by_graph.get(graph_id)
    ]
    if not analyses:
        return None
    report = CriticalPathReport(graphs=analyses, tolerance=tolerance)
    for analysis in analyses:
        for node in analysis.nodes:
            kinds = report.layer_seconds.setdefault(
                node.layer, {"compute": 0.0, "pack": 0.0, "reduce": 0.0}
            )
            kinds[node.kind] = kinds.get(node.kind, 0.0) + node.seconds
            report.worker_seconds[node.worker] = (
                report.worker_seconds.get(node.worker, 0.0) + node.seconds
            )
    report.idle_seconds = float(collector.gauges.get("dag.idle_seconds", 0.0))
    report.flops_total = float(collector.counters.get("conv.flops.total", 0.0))
    report.flops_useful = float(
        collector.counters.get("conv.flops.useful", 0.0)
    )
    return report
