"""Task-graph asynchronous execution of a training step.

The barrier path (:class:`repro.runtime.parallel.ParallelExecutor`)
fork/joins on the worker pool at *every* layer and phase -- FP, BP-data
and dW each pay one synchronization per layer, and the machine model
charges exactly that cost per parallel region (paper Sec. 4).  ZNN
(Zlateski & Lee) shows the barriers are not load-bearing: compile the
step into a dependency graph of fine-grained tasks and the only true
sync points remain.

This module is that compilation.  One forward or backward pass becomes
a :class:`TaskGraph` of nodes:

* per layer and per image range, the engine-slice tasks the barrier
  path would have run between fork and join (built from the same
  :class:`~repro.runtime.parallel.SliceTask` plans, so the arithmetic
  is byte-for-byte the same);
* per sliced conv layer, a *prep* node (pad / cache / publish into
  Workspace or shared-memory buffers) and a *finish* node (bias add,
  unpad, fixed-order dW reduction).

Edges encode only data dependencies, so during backward propagation
layer N's BP-data chain unblocks layer N-1 while layer N's dW partials
are still reducing, and a conv's dW and BP-data prep/publish work
overlaps the other chain's GEMMs.  A :class:`DagScheduler` executes the
graph with per-worker deques and work stealing (own work popped LIFO
for locality, steals taken FIFO from the oldest end).

**The reduction-order invariant.**  The DAG is allowed to change
wall-clock, never bits.  Every floating-point reduction keeps the fixed
order of the barrier path: dW partials accumulate in range order inside
a single reduce node, sliced outputs are written to disjoint ``[lo,hi)``
slices, and layers whose math reduces over the whole batch (dense
layers, bias sums) stay single nodes.  Scheduling order therefore
affects *when* a node runs, not what it computes.

Scheduler states: a node is *blocked* until every dependency finished
(``pending`` edges > 0), *ready* once enqueued on a worker deque,
*running* while its callable executes, and *done* when it returned; the
first raising node wins, later-ready nodes are abandoned, and in-flight
nodes drain before the error propagates.  Node bodies must be
idempotent (they re-run under a retry policy) and should apply side
effects last, after all raising work.

Fault injection reuses the ``pool.task`` site, so named chaos plans
(e.g. ``workers``) exercise the DAG scheduler exactly as they do the
barrier pool, and an ambient :class:`~repro.resilience.policy.RetryPolicy`
gives per-node bounded retries with backoff.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro import telemetry
from repro.errors import ReproError, ShapeError
from repro.resilience import faults
from repro.resilience.policy import active_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nn.network import Network
    from repro.runtime.parallel import ParallelExecutor

#: The step-execution strategies a network can run under.
SCHEDULER_NAMES = ("barrier", "dag")

#: Process-wide graph-id allocator.  Graphs are rebuilt every pass, so
#: span attributes need a run-unique id to tell one executed graph's
#: ``dag/node`` spans from the next pass's.
_GRAPH_IDS = itertools.count(1)


@dataclass(frozen=True)
class Region:
    """A symbolic read/write region over one logical buffer.

    ``buffer`` names the logical storage a node touches; the graph
    builders use a fixed ``family:qualifier`` vocabulary (see
    :mod:`repro.check.effects` for the full contract):

    * ``act:{i}`` / ``err:{i}`` -- the forward/backward activation cell
      between layers ``i`` and ``i+1``;
    * ``weights:{layer}`` / ``grad:{layer}`` -- a layer's parameters and
      accumulated gradients;
    * ``cache:{layer}`` -- the conv layer's ``_cached_padded_input``;
    * ``state:{layer}`` -- miscellaneous per-layer mutable state
      (sparsity gauges, per-pass timing, layer-internal caches);
    * ``plan:{layer}:{chain}`` -- the prep node's published slice plan
      (output array + :class:`SliceTask` handles) for chain ``fp`` /
      ``dw`` / ``bd``;
    * ``partial:{layer}`` -- the dW partial list, one element per range;
    * ``bdout:{layer}`` -- the padded BP-data output slab;
    * ``ws:{layer}:{phase}`` -- engine scratch drawn from the executor
      free-list (always ``atomic``);
    * ``shm:{arena_tag}`` -- a :class:`~repro.runtime.shm.ShmArena`'s
      segment map (mutated by publishing preps under the process
      backend).

    ``lo``/``hi`` restrict the region to an element range ``[lo, hi)``
    of the buffer (both ``None`` means the whole buffer).  ``atomic``
    marks a region whose accesses are serialized by the runtime itself
    (the engine free-list checkout): two atomic regions never conflict,
    but an atomic against a plain region does -- that is exactly the
    aliasing bug the verifier must catch.
    """

    buffer: str
    lo: int | None = None
    hi: int | None = None
    atomic: bool = False

    def __post_init__(self) -> None:
        if not self.buffer:
            raise ReproError("effect region needs a buffer name")
        if (self.lo is None) != (self.hi is None):
            raise ReproError(
                f"region on {self.buffer!r}: lo and hi must be set together"
            )
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise ReproError(
                f"region on {self.buffer!r}: empty range [{self.lo}, {self.hi})"
            )

    def overlaps(self, other: "Region") -> bool:
        """True when the two regions can touch the same bytes."""
        if self.buffer != other.buffer:
            return False
        if self.lo is None or other.lo is None:
            return True
        assert self.hi is not None and other.hi is not None
        return self.lo < other.hi and other.lo < self.hi


def validate_scheduler(name: str) -> str:
    """Return ``name`` if it is a known scheduler, else raise."""
    if name not in SCHEDULER_NAMES:
        raise ReproError(
            f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES}"
        )
    return name


class TaskNode:
    """One schedulable unit of work in a :class:`TaskGraph`.

    ``reads``/``writes`` are the node's declared effect set: the
    symbolic :class:`Region`\\ s its callable may touch.  The scheduler
    ignores them; :mod:`repro.check.effects` proves from them that no
    two unordered nodes conflict, and cross-checks the declarations
    against the callable's source so they cannot drift from the code.
    """

    __slots__ = ("node_id", "name", "fn", "deps", "children", "pending",
                 "attrs", "graph", "reads", "writes")

    def __init__(self, node_id: int, name: str, fn: Callable[[], Any],
                 deps: tuple["TaskNode", ...], attrs: dict[str, Any],
                 graph: "TaskGraph",
                 reads: tuple[Region, ...] = (),
                 writes: tuple[Region, ...] = ()) -> None:
        self.node_id = node_id
        self.name = name
        self.fn = fn
        self.deps = deps
        self.children: list[TaskNode] = []
        self.pending = len(deps)
        self.attrs = attrs
        self.graph = graph
        self.reads = reads
        self.writes = writes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskNode({self.node_id}, {self.name!r}, pending={self.pending})"


class TaskGraph:
    """A DAG of :class:`TaskNode`\\ s, acyclic by construction.

    ``add_node`` only accepts already-added nodes as dependencies, so
    every edge points from a lower node id to a higher one -- a cycle
    cannot be expressed.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.graph_id = next(_GRAPH_IDS)
        self._nodes: list[TaskNode] = []

    @property
    def nodes(self) -> list[TaskNode]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, name: str, fn: Callable[[], Any],
                 deps: Sequence[TaskNode] = (),
                 reads: Sequence[Region] = (),
                 writes: Sequence[Region] = (),
                 **attrs: Any) -> TaskNode:
        """Append a node depending on ``deps`` (nodes of this graph).

        ``reads``/``writes`` declare the node's effect regions for the
        static race verifier (:mod:`repro.check.effects`); nodes built
        without them verify as *undeclared* there, never as race-free.
        """
        dep_nodes = tuple(deps)
        for dep in dep_nodes:
            if not isinstance(dep, TaskNode) or dep.graph is not self:
                raise ReproError(
                    f"node {name!r}: dependency {dep!r} is not a node of "
                    f"this graph"
                )
        node = TaskNode(len(self._nodes), name, fn, dep_nodes, dict(attrs),
                        self, reads=tuple(reads), writes=tuple(writes))
        for dep in dep_nodes:
            dep.children.append(node)
        self._nodes.append(node)
        return node


class DagScheduler:
    """Executes a :class:`TaskGraph`: inline when single-threaded,
    work-stealing threads otherwise.

    With one worker the graph runs deterministically in Kahn order
    (ready nodes by ascending node id) on the calling thread -- the
    serial-backend reference.  With N workers, each worker owns a deque:
    nodes it unblocks are pushed locally and popped LIFO (the freshest
    work is the cache-warm work); an idle worker steals FIFO from the
    first non-empty victim, taking the oldest -- most dependency-laden
    -- node.  All deque traffic happens under one condition variable,
    which the profile can afford: nodes are engine slices (milliseconds),
    not microtasks.
    """

    def __init__(self, num_workers: int = 1, name: str = "dag") -> None:
        if num_workers <= 0:
            raise ReproError(
                f"num_workers must be positive, got {num_workers}"
            )
        self.num_workers = num_workers
        self.name = name

    # -- node execution ---------------------------------------------------

    def _execute(self, node: TaskNode, worker: int) -> None:
        """Run one node under span, fault site and bounded retries."""
        from repro.runtime.backends import WorkerCrashedError

        policy = active_policy()
        retries = 0
        crash_retried = False
        while True:
            try:
                with telemetry.span("dag/node", node=node.name,
                                    worker=worker,
                                    graph_id=node.graph.graph_id,
                                    node_id=node.node_id,
                                    **node.attrs):
                    faults.perturb("pool.task", worker=worker,
                                   node=node.name)
                    node.fn()
                return
            except WorkerCrashedError as exc:
                # Infrastructure fault, not a task fault: the process
                # backend has already respawned workers by the time this
                # surfaces, and nodes are idempotent, so even without an
                # ambient policy one immediate re-run is safe and keeps
                # a crash during a policy-less step from failing it.
                if policy is None and not crash_retried:
                    crash_retried = True
                    telemetry.add("dag.crash_retries", 1)
                    telemetry.event("dag.crash_retry", node=node.name,
                                    error=f"{type(exc).__name__}: {exc}")
                    continue
                if policy is None or retries >= policy.max_retries:
                    raise
                retries += 1
                telemetry.add("dag.retries", 1)
                telemetry.event("dag.retry", node=node.name, retry=retries,
                                error=f"{type(exc).__name__}: {exc}")
                delay = policy.backoff(retries)
                if delay > 0.0:
                    time.sleep(delay)
            except Exception as exc:  # noqa: BLE001 - policy decides
                if policy is None or retries >= policy.max_retries:
                    raise
                retries += 1
                telemetry.add("dag.retries", 1)
                telemetry.event("dag.retry", node=node.name, retry=retries,
                                error=f"{type(exc).__name__}: {exc}")
                delay = policy.backoff(retries)
                if delay > 0.0:
                    time.sleep(delay)

    # -- graph execution --------------------------------------------------

    def run(self, graph: TaskGraph) -> None:
        """Execute every node of ``graph``; returns when all are done."""
        nodes = graph.nodes
        if not nodes:
            return
        for node in nodes:
            node.pending = len(node.deps)
        telemetry.add("dag.graphs", 1)
        telemetry.add("dag.nodes", len(nodes))
        workers = min(self.num_workers, len(nodes))
        telemetry.event("dag.graph", graph=graph.name,
                        graph_id=graph.graph_id, nodes=len(nodes),
                        workers=workers)
        if workers == 1:
            self._run_inline(nodes)
        else:
            self._run_stealing(nodes, workers)

    def _run_inline(self, nodes: list[TaskNode]) -> None:
        ready = [n.node_id for n in nodes if n.pending == 0]
        heapq.heapify(ready)
        done = 0
        while ready:
            node = nodes[heapq.heappop(ready)]
            self._execute(node, 0)
            done += 1
            for child in node.children:
                child.pending -= 1
                if child.pending == 0:
                    heapq.heappush(ready, child.node_id)
        if done != len(nodes):  # pragma: no cover - unreachable by construction
            raise ReproError(
                f"task graph stalled: {len(nodes) - done} nodes unreachable"
            )

    def _run_stealing(self, nodes: list[TaskNode], workers: int) -> None:
        deques: list[deque[TaskNode]] = [deque() for _ in range(workers)]
        cond = threading.Condition()
        state = {"remaining": len(nodes), "error": None, "steals": 0}
        for i, node in enumerate(n for n in nodes if n.pending == 0):
            deques[i % workers].append(node)

        def take(worker: int) -> TaskNode | None:
            """Next node for ``worker`` (call holding ``cond``)."""
            own = deques[worker]
            if own:
                return own.pop()
            for offset in range(1, workers):
                victim = deques[(worker + offset) % workers]
                if victim:
                    state["steals"] += 1
                    return victim.popleft()
            return None

        def work(worker: int) -> None:
            while True:
                with cond:
                    while True:
                        if state["error"] is not None or state["remaining"] == 0:
                            return
                        node = take(worker)
                        if node is not None:
                            break
                        cond.wait()
                try:
                    self._execute(node, worker)
                except BaseException as exc:  # noqa: BLE001 - first error wins
                    with cond:
                        if state["error"] is None:
                            state["error"] = exc
                        state["remaining"] -= 1
                        cond.notify_all()
                    return
                with cond:
                    state["remaining"] -= 1
                    for child in node.children:
                        child.pending -= 1
                        if child.pending == 0:
                            deques[worker].append(child)
                    cond.notify_all()

        threads = [
            threading.Thread(target=work, args=(w,),
                             name=f"{self.name}-worker-{w}", daemon=True)
            for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if state["steals"]:
            telemetry.add("dag.steals", state["steals"])
        if state["error"] is not None:
            raise state["error"]


# -- compiling a network step into graphs -----------------------------------


def _sliced_executor(layer: Any, engine: Any) -> "ParallelExecutor | None":
    """The layer's executor when the phase runs sliced, else ``None``."""
    from repro.runtime.parallel import ParallelExecutor

    return engine if isinstance(engine, ParallelExecutor) else None


def _shm_regions(executor: "ParallelExecutor") -> tuple[Region, ...]:
    """The arena segment-map write of a publishing prep node.

    Only a pool with helper processes publishes operands into the
    executor's :class:`~repro.runtime.shm.ShmArena`; its segment dict is
    unlocked, so any two nodes publishing into the same arena must be
    ordered -- which is precisely the ``bd_prep -> dw_prep`` edge the
    backward builder adds, and what the effects verifier re-proves.
    """
    if not executor.pool.ships:
        return ()
    return (Region(f"shm:{executor._arena._tag}"),)


def build_forward_graph(network: "Network", inputs: np.ndarray,
                        training: bool = True
                        ) -> tuple[TaskGraph, list[Any]]:
    """Compile one forward pass; ``cells[-1]`` holds the output after run.

    Sliced conv layers expand into prep -> per-range -> finish nodes;
    every other layer is a single whole-batch node (their reductions --
    dense ``x.T @ e``, bias sums -- span the batch, so slicing them
    would change summation order and break bit-identity; dropout draws
    its RNG once per pass, which a single node preserves).
    """
    from repro.nn.layers.conv import ConvLayer

    if inputs.shape[1:] != network.input_shape:
        raise ShapeError(
            f"batch input shape {inputs.shape} != (B, *{network.input_shape})"
        )
    graph = TaskGraph(name=f"{network.name}/fp")
    cells: list[Any] = [None] * (len(network.layers) + 1)
    cells[0] = inputs
    batch = int(inputs.shape[0])
    producer: TaskNode | None = None
    for i, layer in enumerate(network.layers):
        deps = (producer,) if producer is not None else ()
        executor = (_sliced_executor(layer, layer._fp_engine)
                    if isinstance(layer, ConvLayer) else None)
        if executor is None:
            def whole(i: int = i, layer: Any = layer) -> None:
                cells[i + 1] = layer.forward(cells[i], training=training)

            writes = [Region(f"act:{i + 1}"), Region(f"state:{layer.name}")]
            if isinstance(layer, ConvLayer):
                # Unsliced conv forward caches its padded input.
                writes.append(Region(f"cache:{layer.name}"))
            producer = graph.add_node(
                f"fp/{layer.name}", whole, deps,
                reads=(Region(f"act:{i}"), Region(f"weights:{layer.name}")),
                writes=tuple(writes),
                layer=layer.name, phase="fp",
            )
        else:
            producer = _add_sliced_forward(graph, layer, executor, i, cells,
                                           batch, training, deps)
    return graph, cells


def _add_sliced_forward(graph: TaskGraph, layer: Any,
                        executor: "ParallelExecutor", i: int,
                        cells: list[Any], batch: int, training: bool,
                        deps: tuple[TaskNode, ...]) -> TaskNode:
    from repro.runtime.parallel import adopt_slice

    ranges = executor.pool.assignment(batch)
    ctx: dict[str, Any] = {}
    L = layer.name

    def prep() -> None:
        x = cells[i]
        if x.ndim != 4 or x.shape[1:] != layer.spec.input_shape:
            raise ShapeError(
                f"layer {layer.name}: batch input shape {x.shape} != "
                f"(B, *{layer.spec.input_shape})"
            )
        padded = layer._pad_batch(x, training)
        if training:
            layer._cached_padded_input = padded
        ctx["out"], ctx["tasks"] = executor.slice_plan(
            "forward", padded, layer.weights
        )

    prep_node = graph.add_node(
        f"fp/{layer.name}/prep", prep, deps,
        reads=(Region(f"act:{i}"), Region(f"weights:{L}")),
        writes=(Region(f"cache:{L}"), Region(f"plan:{L}:fp"))
        + _shm_regions(executor),
        layer=layer.name, phase="fp",
    )
    range_nodes = []
    for r, (lo, hi) in enumerate(ranges):
        def run_range(r: int = r) -> None:
            task = ctx["tasks"][r]
            adopt_slice(ctx["out"], task, task.run())

        range_nodes.append(graph.add_node(
            f"fp/{layer.name}/{lo}:{hi}", run_range, (prep_node,),
            reads=(Region(f"plan:{L}:fp"), Region(f"weights:{L}")),
            writes=(Region(f"act:{i + 1}", lo, hi),
                    Region(f"ws:{L}:fp", atomic=True)),
            layer=layer.name, phase="fp", lo=lo, hi=hi,
        ))

    def finish() -> None:
        out = ctx["out"]
        out += layer.bias[None, :, None, None]
        cells[i + 1] = out

    return graph.add_node(
        f"fp/{layer.name}/finish", finish, tuple(range_nodes),
        reads=(Region(f"plan:{L}:fp"), Region(f"weights:{L}")),
        writes=(Region(f"act:{i + 1}"),),
        layer=layer.name, phase="fp",
    )


def build_backward_graph(network: "Network", out_error: np.ndarray,
                         need_input_error: bool = True
                         ) -> tuple[TaskGraph, list[Any]]:
    """Compile one backward pass; ``ecells[0]`` holds the input error.

    With ``need_input_error=False`` (the SGD step, which discards it) a
    conv layer fed by the images gets no BP-data chain -- no
    ``bd_prep``/``bd/*``/``bd_finish`` nodes -- and ``ecells[0]`` stays
    ``None``; every parameter gradient is computed by the same nodes.

    This is where the barriers die: a sliced conv forks into a dW chain
    (prep -> per-range partials -> fixed-order reduce) and a BP-data
    chain (prep -> per-range slices -> unpad), and the next layer down
    depends only on the BP-data chain -- so layer N-1's backward overlaps
    layer N's dW reduction, which the barrier path serialized.
    """
    from repro.nn.layers.conv import ConvLayer

    graph = TaskGraph(name=f"{network.name}/bp")
    count = len(network.layers)
    ecells: list[Any] = [None] * (count + 1)
    ecells[count] = out_error
    batch = int(out_error.shape[0])
    producer: TaskNode | None = None
    for i in reversed(range(count)):
        layer = network.layers[i]
        deps = (producer,) if producer is not None else ()
        is_conv = isinstance(layer, ConvLayer)
        skip_bd = is_conv and i == 0 and not need_input_error
        executor = (_sliced_executor(layer, layer._bp_engine)
                    if is_conv else None)
        if executor is None:
            kwargs = {"need_input_error": False} if skip_bd else {}

            def whole(i: int = i, layer: Any = layer,
                      kwargs: dict[str, bool] = kwargs) -> None:
                ecells[i] = layer.backward(ecells[i + 1], **kwargs)

            reads = [Region(f"err:{i + 1}"), Region(f"weights:{layer.name}"),
                     Region(f"state:{layer.name}")]
            if is_conv:
                # Unsliced conv backward consumes the forward's cache.
                reads.append(Region(f"cache:{layer.name}"))
            producer = graph.add_node(
                f"bp/{layer.name}", whole, deps,
                reads=tuple(reads),
                writes=(Region(f"err:{i}"), Region(f"grad:{layer.name}"),
                        Region(f"state:{layer.name}")),
                layer=layer.name, phase="bp",
            )
        else:
            producer = _add_sliced_backward(graph, layer, executor, i,
                                            ecells, batch, deps,
                                            with_bd=not skip_bd)
    return graph, ecells


def _add_sliced_backward(graph: TaskGraph, layer: Any,
                         executor: "ParallelExecutor", i: int,
                         ecells: list[Any], batch: int,
                         deps: tuple[TaskNode, ...],
                         with_bd: bool = True) -> TaskNode:
    from repro.core.goodput import measure_sparsity, nonzero_conv_flops

    ranges = executor.pool.assignment(batch)
    ctx: dict[str, Any] = {}
    L = layer.name

    def head() -> None:
        err = ecells[i + 1]
        if layer._cached_padded_input is None:
            raise ShapeError(f"layer {layer.name}: backward before forward")
        layer.last_error_sparsity = measure_sparsity(err)
        ctx["begun"] = time.perf_counter()

    head_node = graph.add_node(
        f"bp/{layer.name}/head", head, deps,
        reads=(Region(f"err:{i + 1}"), Region(f"cache:{L}")),
        writes=(Region(f"state:{L}"),),
        layer=layer.name, phase="bp",
    )

    # dW chain: per-range partials reduced in fixed range order.
    def dw_prep() -> None:
        ctx["dw_tasks"] = executor.weights_plan(
            ecells[i + 1], layer._cached_padded_input
        )
        ctx["partials"] = [None] * len(ranges)

    dw_prep_node = graph.add_node(
        f"bp/{layer.name}/dw_prep", dw_prep, (head_node,),
        reads=(Region(f"err:{i + 1}"), Region(f"cache:{L}")),
        writes=(Region(f"plan:{L}:dw"), Region(f"partial:{L}"))
        + _shm_regions(executor),
        layer=layer.name, phase="bp",
    )
    dw_nodes = []
    for r, (lo, hi) in enumerate(ranges):
        def run_dw(r: int = r) -> None:
            ctx["partials"][r] = ctx["dw_tasks"][r].run()

        dw_nodes.append(graph.add_node(
            f"bp/{layer.name}/dw/{lo}:{hi}", run_dw, (dw_prep_node,),
            reads=(Region(f"plan:{L}:dw"),),
            writes=(Region(f"partial:{L}", r, r + 1),
                    Region(f"ws:{L}:bp", atomic=True)),
            layer=layer.name, phase="bp", lo=lo, hi=hi,
        ))

    def dw_reduce() -> None:
        err = ecells[i + 1]
        total = np.zeros(layer.padded_spec.weight_shape, dtype=err.dtype)
        for partial in ctx["partials"]:
            if partial is not None:
                total += partial
        d_bias = err.sum(axis=(0, 2, 3))
        # Side effects last, so a retried raise above cannot double-apply.
        layer.d_weights += total
        layer.d_bias += d_bias

    dw_reduce_node = graph.add_node(
        f"bp/{layer.name}/dw_reduce", dw_reduce, tuple(dw_nodes),
        reads=(Region(f"err:{i + 1}"),)
        + tuple(Region(f"partial:{L}", r, r + 1)
                for r in range(len(ranges))),
        writes=(Region(f"grad:{L}"),),
        layer=layer.name, phase="bp",
        reduce_buffer=f"partial:{L}",
        reduce_order=tuple(range(len(ranges))),
    )

    bd_finish_node = (
        _add_bd_chain(graph, layer, executor, i, ecells, ranges, ctx,
                      (head_node, dw_prep_node))
        if with_bd else None
    )

    # Bookkeeping once the chains land: flop counters and goodput
    # gauges, mirroring the barrier path's per-backward emission.
    def done() -> None:
        sparsity = layer.last_error_sparsity
        total_flops = ((2.0 if with_bd else 1.0)
                       * batch * layer.padded_spec.flops)
        useful_flops = nonzero_conv_flops(total_flops, sparsity)
        elapsed = max(time.perf_counter() - ctx["begun"], 1e-9)
        telemetry.add("conv.flops.total", total_flops)
        telemetry.add("conv.flops.useful", useful_flops)
        telemetry.gauge(f"goodput.{layer.name}", useful_flops / elapsed)
        telemetry.gauge(f"throughput.{layer.name}", total_flops / elapsed)

    done_node = graph.add_node(
        f"bp/{layer.name}/done", done,
        (dw_reduce_node,) if bd_finish_node is None
        else (dw_reduce_node, bd_finish_node),
        reads=(Region(f"state:{L}"),),
        layer=layer.name, phase="bp")
    # Downstream layers wait on BP-data only -- the overlap win.
    return done_node if bd_finish_node is None else bd_finish_node


def _add_bd_chain(graph: TaskGraph, layer: Any,
                  executor: "ParallelExecutor", i: int, ecells: list[Any],
                  ranges: Sequence[tuple[int, int]], ctx: dict[str, Any],
                  deps: tuple[TaskNode, ...]) -> TaskNode:
    """The BP-data chain of a sliced conv: prep -> per-range -> unpad.

    Its prep waits on dw_prep (in ``deps``) only because both publish
    into the same (unlocked) ShmArena under the process backend; the
    range nodes of the two chains still overlap freely.
    """
    from repro.runtime.parallel import adopt_slice

    L = layer.name

    def bd_prep() -> None:
        ctx["bd_out"], ctx["bd_tasks"] = executor.slice_plan(
            "backward_data", ecells[i + 1], layer.weights,
            crop=layer.spec.pad,
        )

    bd_prep_node = graph.add_node(
        f"bp/{layer.name}/bd_prep", bd_prep, deps,
        reads=(Region(f"err:{i + 1}"), Region(f"weights:{L}")),
        writes=(Region(f"plan:{L}:bd"),) + _shm_regions(executor),
        layer=layer.name, phase="bp",
    )
    bd_nodes = []
    for r, (lo, hi) in enumerate(ranges):
        def run_bd(r: int = r) -> None:
            task = ctx["bd_tasks"][r]
            adopt_slice(ctx["bd_out"], task, task.run())

        bd_nodes.append(graph.add_node(
            f"bp/{layer.name}/bd/{lo}:{hi}", run_bd, (bd_prep_node,),
            reads=(Region(f"plan:{L}:bd"), Region(f"weights:{L}")),
            writes=(Region(f"bdout:{L}", lo, hi),
                    Region(f"ws:{L}:bp", atomic=True)),
            layer=layer.name, phase="bp", lo=lo, hi=hi,
        ))

    def bd_finish() -> None:
        ecells[i] = ctx["bd_out"]

    return graph.add_node(
        f"bp/{layer.name}/bd_finish", bd_finish, tuple(bd_nodes),
        reads=(Region(f"plan:{L}:bd"), Region(f"bdout:{L}")),
        writes=(Region(f"err:{i}"),),
        layer=layer.name, phase="bp",
    )


def dag_worker_count(network: "Network") -> int:
    """Scheduler width for a network: the widest non-serial conv pool."""
    workers = 1
    for layer in network.conv_layers():
        pool = getattr(layer, "_pool", None)
        if pool is not None and pool.backend_name != "serial":
            workers = max(workers, pool.num_workers)
    return workers


class NetworkDagRunner:
    """Runs a network's FP/BP passes as task graphs.

    Graphs are rebuilt per pass (they capture the current engines, batch
    geometry and training flag); the scheduler is reused.  With every
    conv pool on the serial backend the scheduler stays single-threaded,
    so ``scheduler="dag"`` remains a valid determinism reference there.
    """

    def __init__(self, network: "Network",
                 num_workers: int | None = None) -> None:
        self.network = network
        self.scheduler = DagScheduler(
            num_workers or dag_worker_count(network)
        )

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        graph, cells = build_forward_graph(self.network, inputs, training)
        with telemetry.span("dag/forward", nodes=len(graph),
                            graph_id=graph.graph_id,
                            workers=self.scheduler.num_workers):
            self.scheduler.run(graph)
        return cells[-1]

    def backward(self, out_error: np.ndarray,
                 need_input_error: bool = True) -> np.ndarray | None:
        graph, ecells = build_backward_graph(self.network, out_error,
                                             need_input_error)
        with telemetry.span("dag/backward", nodes=len(graph),
                            graph_id=graph.graph_id,
                            workers=self.scheduler.num_workers):
            self.scheduler.run(graph)
        return ecells[0]
