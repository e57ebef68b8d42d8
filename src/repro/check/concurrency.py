"""Analyzer 3: concurrency lint over the package source.

The parallel runtime (:class:`repro.runtime.pool.WorkerPool`,
:class:`repro.runtime.parallel.ParallelExecutor`) runs closures on real
threads, so a small class of Python idioms become data races or silent
aliasing bugs.  This ``ast`` pass walks every module under ``repro``
and flags:

* **CHK-MUT-DEFAULT** -- mutable default arguments (``def f(x=[])``):
  shared across calls and, under the pool, across threads;
* **CHK-SHARED-MUT** -- module-level mutable state mutated inside a
  closure (a ``def``/``lambda`` nested in a function) in modules that
  use the worker pool, unless the mutation is guarded by a ``with``
  block naming a lock;
* **CHK-TEL-API** -- telemetry misuse: attribute access on the
  ``telemetry`` module outside its public API (typo'd helper names
  emit nothing, silently), and emission helpers invoked at module
  import time, which always runs outside any collector guard;
* **CHK-TEL-LEAK** -- ``telemetry.span(...)`` opened outside a ``with``
  item: the span object is a context manager, and without ``with`` it
  is never finished, leaking an open span on the thread's stack;
* **CHK-TEL-HOT** -- ``telemetry.add``/``gauge``/``observe`` called
  inside a nested (per-element) loop: each call takes the collector
  lock per active collector, so per-element emission turns a hot
  kernel loop into a lock convoy -- aggregate outside the loop instead;
* **CHK-FORK** -- a closure submitted to the worker pool
  (``run_tasks``/``map_batches``/``map_items``/``submit``) captures a
  fork/pickle-unsafe handle: a threading lock, a live
  ``TelemetryCollector``, an open ``SharedMemory``/``SharedArray``
  segment, or an open file.  Under ``backend="process"`` the closure is
  pickled into a spawned worker, where the lock guards nothing, the
  collector records into a dead copy, and OS-level handles either fail
  to pickle or dangle.  Ship :class:`~repro.runtime.shm.ShmDescriptor`
  values (and re-attach worker-side) instead;
* **CHK-DAG** -- a node callable added to a task graph
  (``add_node``) captures mutable engine scratch bound ahead of time: a
  ``make_engine(...)`` result, a ``Workspace(...)``, or an engine
  checked out via ``_checkout_engine()``.  DAG nodes run concurrently
  on work-stealing threads, so scratch captured at graph-build time is
  shared by every node that closes over it -- check engines out of the
  executor free-list *inside* the node body instead (see
  :mod:`repro.runtime.dag`).  The rule sees through every way a node
  callable can smuggle scratch: closures and lambdas (free names),
  ``functools.partial(fn, scratch)`` (bound arguments, positional or
  keyword), and bare bound methods (``scratch.run`` captures its
  instance);
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any

from repro.check.findings import Finding

ANALYZER = "concurrency"

#: Attribute names that constitute the telemetry module's public API.
_TELEMETRY_PUBLIC = frozenset(
    ("Event", "Span", "StreamingHistogram", "TelemetryCollector",
     "active_collectors", "add", "aggregate_spans", "collect",
     "collector_to_dict", "counters_table", "event", "events_table",
     "gauge", "histograms_table", "observe", "span", "spans_table",
     "write_json")
)

#: Telemetry helpers that emit (pointless before any collector exists).
_TELEMETRY_EMITTERS = frozenset(("add", "gauge", "observe", "event", "span"))

#: Scalar emitters whose per-element use in tight loops is a lock convoy.
_TELEMETRY_HOT_EMITTERS = frozenset(("add", "gauge", "observe"))

_POOL_NAMES = ("WorkerPool", "ParallelExecutor", "ThreadPoolExecutor")

_MUTATING_METHODS = frozenset(
    ("append", "extend", "add", "update", "insert", "pop", "popitem",
     "remove", "discard", "clear", "setdefault")
)

#: Pool methods whose callable arguments cross the backend boundary and
#: must therefore survive pickling under ``backend="process"``.
_SUBMIT_METHODS = frozenset(
    ("run_tasks", "map_batches", "map_items", "submit")
)

#: Constructors whose results must never be captured by a submitted
#: closure: what each one means when pickled into a spawned worker.
_FORK_UNSAFE_CALLS = {
    "Lock": "a threading lock (guards nothing in a spawned worker)",
    "RLock": "a threading lock (guards nothing in a spawned worker)",
    "Condition": "a threading condition (dead in a spawned worker)",
    "Semaphore": "a threading semaphore (dead in a spawned worker)",
    "TelemetryCollector":
        "a telemetry collector (the worker records into a dead copy)",
    "SharedMemory":
        "an open shared-memory handle (ship the ShmDescriptor and "
        "re-attach worker-side)",
    "SharedArray":
        "an open shared-memory handle (ship the ShmDescriptor and "
        "re-attach worker-side)",
    "open": "an open file handle (OS handles do not pickle)",
}

#: Task-graph submission methods (CHK-DAG): node callables run
#: concurrently on the work-stealing scheduler.
_DAG_SUBMIT_METHODS = frozenset(("add_node",))

#: Value-producing calls that bind mutable engine scratch; a DAG node
#: capturing one shares that scratch with every concurrent node.
_DAG_UNSAFE_CALLS = {
    "make_engine":
        "an engine instance with mutable scratch (unfold workspace, "
        "GEMM panels); check one out of the executor free-list inside "
        "the node body instead",
    "_checkout_engine":
        "an engine checked out at graph-build time; check it out "
        "inside the node body so concurrent nodes never share scratch",
    "Workspace":
        "a mutable workspace buffer; allocate it inside the node body "
        "or give each node its own",
}

_FORK_MESSAGE = (
    "{label} submitted via .{method}() captures {free!r}, {description}; "
    "it cannot cross the process-backend pickle boundary"
)

_DAG_MESSAGE = (
    "DAG node callable {label} added via .{method}() captures {free!r}, "
    "{description}; concurrent nodes on the work-stealing scheduler "
    "would race on it"
)


def _finding(severity: str, location: str, message: str) -> Finding:
    return Finding(severity=severity, analyzer=ANALYZER, location=location,
                   message=message)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set"))


def _module_mutable_globals(tree: ast.Module) -> set[str]:
    """Names bound at module level to mutable containers."""
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign) and _is_mutable_literal(node.value):
            targets = node.targets
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and _is_mutable_literal(node.value)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _mentions_lock(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and "lock" in name.lower():
            return True
    return False


class _ClosureMutationVisitor(ast.NodeVisitor):
    """Find mutations of module-level mutables inside nested functions."""

    def __init__(self, module_name: str, mutables: set[str]) -> None:
        self.module_name = module_name
        self.mutables = mutables
        self.findings: list[Finding] = []
        self._function_depth = 0
        self._lock_depth = 0

    # -- scope tracking ----------------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_With(self, node: ast.With) -> None:
        guarded = any(_mentions_lock(item.context_expr) for item in node.items)
        if guarded:
            self._lock_depth += 1
        self.generic_visit(node)
        if guarded:
            self._lock_depth -= 1

    # -- mutation detection ------------------------------------------------

    def _report(self, lineno: int, name: str, how: str) -> None:
        if self._function_depth < 2 or self._lock_depth > 0:
            return
        self.findings.append(_finding(
            "error", f"{self.module_name}:{lineno}",
            f"module-level mutable {name!r} {how} inside a closure without "
            f"a lock; worker-pool threads race on it",
        ))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in self.mutables):
            self._report(node.lineno, func.value.id,
                         f"mutated via .{func.attr}()")
        self.generic_visit(node)

    def _check_target(self, target: ast.expr, lineno: int, how: str) -> None:
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.mutables):
            self._report(lineno, target.value.id, how)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node.lineno, "item-assigned")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node.lineno, "augmented-assigned")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node.lineno, "item-deleted")
        self.generic_visit(node)


class _TelemetryUseVisitor(ast.NodeVisitor):
    """Instrumentation-misuse rules: span leaks and hot-loop emission."""

    def __init__(self, module_name: str, aliases: set[str]) -> None:
        self.module_name = module_name
        self.aliases = aliases
        self.findings: list[Finding] = []
        self._loop_depth = 0
        self._with_contexts: set[int] = set()

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def _visit_with(self, node: ast.With) -> None:
        for item in node.items:
            self._with_contexts.add(id(item.context_expr))
        self.generic_visit(node)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _telemetry_attr(self, node: ast.Call) -> str | None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.aliases):
            return func.attr
        return None

    def visit_Call(self, node: ast.Call) -> None:
        attr = self._telemetry_attr(node)
        if attr == "span" and id(node) not in self._with_contexts:
            self.findings.append(_finding(
                "error", f"{self.module_name}:{node.lineno}",
                "telemetry.span(...) opened outside a 'with' item; the "
                "span is never finished and leaks on the thread's stack",
            ))
        elif attr in _TELEMETRY_HOT_EMITTERS and self._loop_depth >= 2:
            self.findings.append(_finding(
                "warning", f"{self.module_name}:{node.lineno}",
                f"telemetry.{attr} called inside a nested per-element "
                f"loop; each call locks every active collector -- "
                f"aggregate locally and emit once outside the loop",
            ))
        self.generic_visit(node)


def _unsafe_call_description(node: ast.expr,
                             table: dict[str, str]) -> str | None:
    """What a value-producing expression binds, if listed in ``table``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        # threading.Lock(), shared_memory.SharedMemory(...) and the
        # SharedArray classmethods (create/attach/from_array) all bind
        # a live handle, however deep the attribute chain -- so any
        # table name appearing anywhere in the chain counts.
        parts = []
        current: ast.expr = func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
        name = next((part for part in parts if part in table), func.attr)
    return table.get(name) if name else None


def _free_names(func_node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda") -> set[str]:
    """Names a lambda/def reads without binding them itself."""
    bound: set[str] = set()
    args = func_node.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        bound.add(arg.arg)
    if args.vararg is not None:
        bound.add(args.vararg.arg)
    if args.kwarg is not None:
        bound.add(args.kwarg.arg)
    body = (func_node.body if isinstance(func_node.body, list)
            else [func_node.body])
    loads: set[str] = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
                else:
                    bound.add(sub.id)
    return loads - bound


class _CaptureSafetyVisitor(ast.NodeVisitor):
    """Unsafe-capture rules (CHK-FORK, CHK-DAG) over submitted callables.

    Tracks, per function scope, which local names are bound to unsafe
    values (per the rule's call table) and which nested functions are
    defined; every callable handed to one of the rule's submission
    methods is then checked for free names that resolve to an unsafe
    binding in any enclosing scope.
    """

    def __init__(self, module_name: str, submit_methods: frozenset[str],
                 table: dict[str, str], message: str,
                 bound_methods: bool = False) -> None:
        self.module_name = module_name
        self.submit_methods = submit_methods
        self.table = table
        self.message = message
        # Flag bare bound-method callables (``obj.method``).  Only the
        # DAG rule opts in: under CHK-FORK, attribute access on an
        # unsafe handle is how the *sanctioned* pattern extracts the
        # picklable descriptor (``seg.descriptor``), so the same shape
        # is clean there.
        self.bound_methods = bound_methods
        self.findings: list[Finding] = []
        # Innermost scope last; index 0 is the module scope.
        self._scopes: list[dict] = [{"unsafe": {}, "funcs": {}}]

    # -- scope and handle tracking -----------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scopes[-1]["funcs"][node.name] = node
        self._scopes.append({"unsafe": {}, "funcs": {}})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def _bind(self, name: str, description: str) -> None:
        self._scopes[-1]["unsafe"][name] = description

    def visit_Assign(self, node: ast.Assign) -> None:
        description = _unsafe_call_description(node.value, self.table)
        if description is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._bind(target.id, description)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            description = _unsafe_call_description(item.context_expr,
                                                   self.table)
            if (description is not None
                    and isinstance(item.optional_vars, ast.Name)):
                self._bind(item.optional_vars.id, description)
        self.generic_visit(node)

    # -- submission checking -----------------------------------------------

    def _lookup_unsafe(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope["unsafe"]:
                return scope["unsafe"][name]
        return None

    def _lookup_func(self, name: str) -> Any:
        for scope in reversed(self._scopes):
            if name in scope["funcs"]:
                return scope["funcs"][name]
        return None

    def _check_callable(self, func_node: Any, lineno: int, method: str,
                        label: str) -> None:
        for free in sorted(_free_names(func_node)):
            description = self._lookup_unsafe(free)
            if description is not None:
                self.findings.append(_finding(
                    "error", f"{self.module_name}:{lineno}",
                    self.message.format(label=label, method=method,
                                        free=free,
                                        description=description),
                ))

    @staticmethod
    def _is_partial_call(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return ((isinstance(func, ast.Name) and func.id == "partial")
                or (isinstance(func, ast.Attribute)
                    and func.attr == "partial"))

    def _check_partial(self, call: ast.Call, method: str) -> None:
        """``functools.partial(fn, x, k=y)``: x/y are captured like a
        closure's free names -- unsafe bindings among them race too."""
        for value in list(call.args) + [kw.value for kw in call.keywords]:
            if (isinstance(value, ast.Name)
                    and isinstance(value.ctx, ast.Load)):
                description = self._lookup_unsafe(value.id)
                if description is not None:
                    self.findings.append(_finding(
                        "error", f"{self.module_name}:{value.lineno}",
                        self.message.format(label="functools.partial(...)",
                                            method=method, free=value.id,
                                            description=description),
                    ))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in self.submit_methods):
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                # Bound methods handed over bare (``obj.method``, not
                # ``obj.method(...)``) capture their instance exactly
                # like a closure captures a free name; exempt call-form
                # attributes and anything inside a lambda (the lambda's
                # own free-name check already covers those).
                called = {
                    id(sub.func) for sub in ast.walk(value)
                    if isinstance(sub, ast.Call)
                }
                in_lambda = {
                    id(inner)
                    for sub in ast.walk(value)
                    if isinstance(sub, ast.Lambda)
                    for inner in ast.walk(sub.body)
                }
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Lambda):
                        self._check_callable(sub, sub.lineno, func.attr,
                                             "lambda")
                    elif self._is_partial_call(sub):
                        self._check_partial(sub, func.attr)
                    elif (isinstance(sub, ast.Name)
                          and isinstance(sub.ctx, ast.Load)):
                        target = self._lookup_func(sub.id)
                        if target is not None:
                            self._check_callable(
                                target, sub.lineno, func.attr,
                                f"closure {sub.id!r}")
                    elif (self.bound_methods
                          and isinstance(sub, ast.Attribute)
                          and isinstance(sub.ctx, ast.Load)
                          and isinstance(sub.value, ast.Name)
                          and id(sub) not in called
                          and id(sub) not in in_lambda):
                        description = self._lookup_unsafe(sub.value.id)
                        if description is not None:
                            self.findings.append(_finding(
                                "error",
                                f"{self.module_name}:{sub.lineno}",
                                self.message.format(
                                    label=(f"bound method "
                                           f"'{sub.value.id}.{sub.attr}'"),
                                    method=func.attr, free=sub.value.id,
                                    description=description),
                            ))
        self.generic_visit(node)


def _telemetry_aliases(tree: ast.Module) -> set[str]:
    """Local names under which the telemetry module is imported."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "repro":
                for alias in node.names:
                    if alias.name == "telemetry":
                        aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.telemetry" and alias.asname:
                    aliases.add(alias.asname)
    return aliases


def lint_source(module_name: str, source: str) -> list[Finding]:
    """Lint one module's source text; returns all findings."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_finding("error", module_name,
                         f"source does not parse: {exc}")]
    findings: list[Finding] = []

    # CHK-MUT-DEFAULT: mutable default arguments anywhere.
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                findings.append(_finding(
                    "error", f"{module_name}:{node.lineno}",
                    f"function {node.name!r} has a mutable default "
                    f"argument; it is shared across calls and threads",
                ))

    # CHK-SHARED-MUT: only in modules that touch the parallel runtime.
    if any(pool in source for pool in _POOL_NAMES):
        mutables = _module_mutable_globals(tree)
        if mutables:
            visitor = _ClosureMutationVisitor(module_name, mutables)
            visitor.visit(tree)
            findings.extend(visitor.findings)

    # CHK-FORK: fork/pickle-unsafe captures in pool submissions.  The
    # rule fires on the submission sites themselves, so no module gate:
    # a module without ``.run_tasks(...)``-style calls yields nothing.
    fork_visitor = _CaptureSafetyVisitor(
        module_name, _SUBMIT_METHODS, _FORK_UNSAFE_CALLS, _FORK_MESSAGE
    )
    fork_visitor.visit(tree)
    findings.extend(fork_visitor.findings)

    # CHK-DAG: node callables capturing mutable engine scratch.  Same
    # machinery, different submission methods and unsafe-call table.
    dag_visitor = _CaptureSafetyVisitor(
        module_name, _DAG_SUBMIT_METHODS, _DAG_UNSAFE_CALLS, _DAG_MESSAGE,
        bound_methods=True,
    )
    dag_visitor.visit(tree)
    findings.extend(dag_visitor.findings)

    # CHK-TEL-API: unknown telemetry attributes; import-time emission.
    aliases = _telemetry_aliases(tree)
    if aliases:
        in_function: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                for sub in ast.walk(node):
                    in_function.add(id(sub))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                continue
            if node.attr.startswith("_"):
                findings.append(_finding(
                    "error", f"{module_name}:{node.lineno}",
                    f"access to private telemetry attribute "
                    f"{node.attr!r} bypasses the collector guard",
                ))
            elif node.attr not in _TELEMETRY_PUBLIC:
                findings.append(_finding(
                    "error", f"{module_name}:{node.lineno}",
                    f"telemetry.{node.attr} is not a public telemetry "
                    f"helper; a typo here silently records nothing",
                ))
            elif (node.attr in _TELEMETRY_EMITTERS
                  and id(node) not in in_function):
                findings.append(_finding(
                    "warning", f"{module_name}:{node.lineno}",
                    f"telemetry.{node.attr} called at import time, before "
                    f"any collector guard can be active",
                ))
        # CHK-TEL-LEAK / CHK-TEL-HOT: span leaks, hot-loop emission.
        use_visitor = _TelemetryUseVisitor(module_name, aliases)
        use_visitor.visit(tree)
        findings.extend(use_visitor.findings)

    return findings


def lint_package(root: Path | None = None) -> tuple[list[Finding], int]:
    """Lint every ``.py`` file under the package root.

    Returns ``(findings, files_linted)``.  Defaults to the installed
    ``repro`` package directory.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    findings: list[Finding] = []
    files = sorted(root.rglob("*.py"))
    for path in files:
        module_name = str(path.relative_to(root.parent)).replace("\\", "/")
        findings.extend(lint_source(module_name, path.read_text()))
    return findings, len(files)
