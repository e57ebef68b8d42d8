"""Benchmark-side tracer: class-level wrappers around public methods.

Spans are recorded from outside the program -- nothing under ``src/``
knows it is being traced.  Each wrapped call appends one record
``[kind, who, start, end, parent, tid, extra]`` to an in-memory list;
parents come from a thread-local stack, so a span's *self time* is its
duration minus its children's.  Only the traced repetition installs
this; end-to-end metrics never come from it.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

KIND, WHO, START, END, PARENT, TID, EXTRA = range(7)

_ENGINE_METHODS = {"forward": "fp", "backward_data": "bd",
                   "backward_weights": "dw"}


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class Tracer:
    """Owns the span list and the wrappers it installed."""

    def __init__(self):
        self.spans: list[list] = []
        #: Wrappers pass straight through while this is false; the
        #: traced repetition flips it between steps (see ``child.py``).
        self.enabled = True
        self._local = threading.local()
        self._installed: list[tuple[type, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, cls: type, attr: str, kind: str, extra=None) -> None:
        """Replace ``cls.attr`` by a span-recording wrapper.

        ``extra(self, args, result)`` may return a payload stored on the
        span (deployed engine name, measured sparsity, flops).
        """
        orig = cls.__dict__[attr]
        spans, get_stack = self.spans, self._stack
        get_ident = threading.get_ident

        def traced(obj, *args, **kwargs):
            if not self.enabled:
                return orig(obj, *args, **kwargs)
            stack = get_stack()
            rec = [kind, getattr(obj, "name", ""), perf_counter(), 0.0,
                   stack[-1] if stack else None, get_ident(), None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = orig(obj, *args, **kwargs)
                if extra is not None:
                    rec[EXTRA] = extra(obj, args, result)
                return result
            finally:
                rec[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = orig
        setattr(cls, attr, traced)
        self._installed.append((cls, attr, orig))

    def install(self) -> None:
        """Wrap every boundary the book attributes time to."""
        # Imported here: a tracer is only built inside a child that has
        # already pinned BLAS and imported the program.
        import repro.nn.layers  # noqa: F401  (registers Layer subclasses)
        from repro.core.framework import SpgCNN
        from repro.nn.layers.base import Layer
        from repro.nn.layers.conv import ConvLayer
        from repro.nn.network import Network
        from repro.nn.sgd import SGDTrainer
        from repro.ops.engine import ConvEngine
        from repro.runtime.parallel import ParallelExecutor

        def conv_fp(layer, args, _result):
            return {"engine": layer.fp_engine_name,
                    "flops": float(args[0].shape[0]) * layer.padded_spec.flops}

        def conv_bp(layer, args, _result):
            return {"engine": layer.bp_engine_name,
                    "sparsity": float(layer.last_error_sparsity),
                    "flops": 2.0 * args[0].shape[0] * layer.padded_spec.flops}

        for cls in _subclasses(Layer):
            for attr, phase in (("forward", "fp"), ("backward", "bp")):
                if attr not in cls.__dict__:
                    continue
                extra = None
                if issubclass(cls, ConvLayer):
                    extra = conv_fp if phase == "fp" else conv_bp
                self.wrap(cls, attr, f"layer.{cls.kind}.{phase}", extra)
        if "close" in ConvLayer.__dict__:
            self.wrap(ConvLayer, "close", "teardown")
        for cls in _subclasses(ConvEngine):
            for attr, phase in _ENGINE_METHODS.items():
                if attr in cls.__dict__:
                    self.wrap(cls, attr, f"engine.{phase}")
        for attr, phase in _ENGINE_METHODS.items():
            self.wrap(ParallelExecutor, attr, f"exec.{phase}")
        self.wrap(Network, "forward", "net.fp")
        self.wrap(Network, "backward", "net.bp")
        self.wrap(SGDTrainer, "step", "step")
        self.wrap(SpgCNN, "optimize", "core.optimize")
        self.wrap(SpgCNN, "after_epoch", "core.replan",
                  lambda _spg, _args, events: {"retunes": len(events)})

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, orig = self._installed.pop()
            setattr(cls, attr, orig)

    def export(self) -> list[dict]:
        """Spans as JSON-ready dicts with integer ids and parent links."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            {"id": i, "kind": rec[KIND], "who": rec[WHO],
             "start": rec[START], "end": rec[END],
             "parent": ids.get(id(rec[PARENT])) if rec[PARENT] is not None
             else None,
             "tid": rec[TID], "extra": rec[EXTRA]}
            for i, rec in enumerate(self.spans)
        ]


def attribute(spans: list[dict], main_tid: int, rows: list, traced_rows: list,
              warm: int, last: int) -> dict:
    """Per-layer trace metrics (ms per traced timed step) from exported spans.

    ``rows`` are the step recorder's ``(start, end, ...)`` of every step
    and ``traced_rows`` the indices of those that ran with the tracer on
    (the k-th top-level step span is row ``traced_rows[k]``): in the
    timed window the tracer is on for every other step, so the untraced
    neighbours -- same process, same seconds -- give the tracer's
    overhead free of host drift.  ``accounting_gap`` is how far the
    tracer's self times are from the recorder's own clock reads around
    the same steps.
    """
    main = [s for s in spans if s["tid"] == main_tid]
    children: dict[int, list[dict]] = {}
    for s in main:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children.get(s["id"], ()))

    steps = [s for s in main if s["kind"] == "step" and s["parent"] is None]
    window = [(i, s) for i, s in zip(traced_rows, steps) if warm <= i < last]
    out = {"steps": len(window)}
    if not window:
        return out
    n = len(window)

    buckets: dict[str, float] = {}
    conv_spans: dict[str, dict[str, float]] = {}
    conv_order: list[str] = []
    totals = {"useful_flops": 0.0, "conv_s": 0.0, "engine_s": 0.0,
              "exec_s": 0.0, "pool_forwards": 0}
    by_id = {s["id"]: s for s in main}
    deployed: dict[tuple[str, str], str] = {}

    def add(name, value):
        buckets[name] = buckets.get(name, 0.0) + value

    def walk(s, conv_name=None):
        kind = s["kind"]
        if kind == "step":
            add("nn.update_ms", self_time(s))
        elif kind in ("net.fp", "net.bp"):
            add("net_self", self_time(s))
        elif kind.startswith("layer."):
            _, layer_kind, phase = kind.split(".")
            if layer_kind == "conv":
                conv_name = s["who"]
                if conv_name not in conv_order:
                    conv_order.append(conv_name)
                add("nn.conv_self_ms", self_time(s))
                extra = s["extra"] or {}
                totals["conv_s"] += dur(s)
                totals["useful_flops"] += extra.get("flops", 0.0) * (
                    1.0 - extra.get("sparsity", 0.0))
                if "engine" in extra:
                    deployed[(conv_name, phase)] = extra["engine"]
            elif layer_kind in ("maxpool", "avgpool"):
                add("nn.pool_ms", self_time(s))
                totals["pool_forwards"] += phase == "fp"
            elif layer_kind == "relu":
                add("nn.relu_ms", self_time(s))
            elif layer_kind == "dense":
                add("nn.dense_ms", self_time(s))
            else:
                add("other_layers", self_time(s))
        elif kind.startswith(("engine.", "exec.")):
            phase = kind.split(".")[1]
            if s["parent"] is not None and conv_name is not None:
                per = conv_spans.setdefault(conv_name, {})
                per[phase] = per.get(phase, 0.0) + self_time(s)
            add("engines", self_time(s))
            if kind.startswith("exec."):
                totals["exec_s"] += dur(s)
            # Only the outermost engine/executor span under a layer
            # counts as "inside an engine" for the serial share.
            parent = by_id.get(s["parent"])
            if parent is None or not parent["kind"].startswith(
                    ("engine.", "exec.")):
                totals["engine_s"] += dur(s)
        else:
            add("other_spans", self_time(s))
        for child in children.get(s["id"], ()):
            walk(child, conv_name)

    for _, s in window:
        walk(s)
    accounted = sum(buckets.values())

    step_seconds = sum(dur(s) for _, s in window)
    recorder_seconds = sum(rows[i][1] - rows[i][0] for i, _ in window)
    fp = sum(dur(c) for _, s in window for c in children.get(s["id"], ())
             if c["kind"] == "net.fp")
    bp = sum(dur(c) for _, s in window for c in children.get(s["id"], ())
             if c["kind"] == "net.bp")
    replans = [s for s in main if s["kind"] == "core.replan"
               and s["parent"] is None]
    # The stretch before each traced step (batch indexing, hooks, epoch
    # ends) ran traced too; replans inside it are their own metric.
    gap = 0.0
    for i, s in window:
        lo = rows[i - 1][1] if i else s["start"]
        hi = rows[i][0]
        gap += (hi - lo) - sum(dur(r) for r in replans
                               if lo <= r["start"] < hi)
    optimize = sum(dur(s) for s in main if s["kind"] == "core.optimize")
    teardown = sum(dur(s) for s in main if s["kind"] == "teardown"
                   and s["parent"] is None)

    def per_step_ms(seconds):
        return seconds * 1e3 / n

    metrics = {
        "nn.fp_ms": per_step_ms(fp),
        "nn.bp_ms": per_step_ms(bp),
        "nn.update_ms": per_step_ms(buckets.get("nn.update_ms", 0.0)),
        "nn.loop_gap_ms": per_step_ms(gap),
        "nn.pool_ms": per_step_ms(buckets.get("nn.pool_ms", 0.0)),
        "nn.relu_ms": per_step_ms(buckets.get("nn.relu_ms", 0.0)),
        "nn.dense_ms": per_step_ms(buckets.get("nn.dense_ms", 0.0)),
        "nn.conv_self_ms": per_step_ms(buckets.get("nn.conv_self_ms", 0.0)),
        "nn.serial_share": 1.0 - totals["engine_s"] / step_seconds,
        "nn.goodput_gflops": (totals["useful_flops"] / totals["conv_s"] / 1e9
                              if totals["conv_s"] else 0.0),
        "runtime.exec_ms": per_step_ms(totals["exec_s"]),
        "runtime.teardown_ms": teardown * 1e3,
        "core.optimize_ms": optimize * 1e3,
        "core.replan_ms": (sum(dur(s) for s in replans) * 1e3 / len(replans)
                           if replans else 0.0),
        "core.retunes": float(sum((s["extra"] or {}).get("retunes", 0)
                                  for s in replans)),
    }
    roles = {}
    if conv_order:
        roles["conv_in"] = conv_order[0]
    if len(conv_order) > 1:
        roles["conv_deep"] = conv_order[-1]
    for role in ("conv_in", "conv_deep"):
        per = conv_spans.get(roles.get(role, ""), {})
        for phase in ("fp", "bd", "dw"):
            metrics[f"{role}.{phase}_ms"] = per_step_ms(per.get(phase, 0.0))

    traced_set = {i for i, _ in window}
    on = [rows[i][1] - rows[i][0] for i in sorted(traced_set)]
    off = [rows[i][1] - rows[i][0] for i in range(warm, min(last, len(rows)))
           if i not in traced_set]
    if off:
        metrics["trace.overhead_share"] = (
            statistics.median(on) / statistics.median(off) - 1.0)
    out.update(
        metrics=metrics,
        accounting_gap=abs(accounted - recorder_seconds) / recorder_seconds,
        unattributed_ms=per_step_ms(buckets.get("other_spans", 0.0)),
        pool_forwards_per_step=totals["pool_forwards"] / n,
        deployed={f"{role}.{phase}": deployed.get((name, phase), "")
                  for role, name in roles.items() for phase in ("fp", "bp")},
        roles=roles,
    )
    return out
