"""Analyzer 3: concurrency lint over the package source.

The parallel runtime (:class:`repro.runtime.pool.WorkerPool`,
:class:`repro.runtime.parallel.ParallelExecutor`) runs closures on real
threads and ships tasks to spawned processes, so a small class of
Python idioms become data races or silent aliasing bugs that no run
raises on.  This ``ast`` pass walks every module under ``repro`` and
flags, each finding carrying its rule id:

* **CHK-SHARED-MUT** -- module-level mutable state mutated inside a
  closure (a ``def``/``lambda`` nested in a function) in modules that
  use the worker pool, unless the mutation is guarded by a ``with``
  block naming a lock;
* **CHK-TEL-API** -- attribute access on the ``telemetry`` module
  outside ``repro.telemetry.__all__`` (a typo or retired helper raises
  ``AttributeError`` only when its line runs, and the tests never run
  some lines), and emission helpers invoked at module import time,
  which always runs outside any collector guard;
* **CHK-TEL-LEAK** -- ``telemetry.span(...)`` opened outside a ``with``
  item: with a collector active the span opens at the call and is
  never finished, so it is missing from the trace and stays on the
  thread's span stack;
* **CHK-FORK** -- a ``functools.partial`` submitted to the worker pool
  (``run_tasks``/``map_batches``/``map_items``/``submit``) binds an
  open ``SharedMemory``/``SharedArray`` segment.  Such a handle
  must not cross to a process worker: a ``SharedArray`` refuses to
  pickle (at dispatch, and only on a range a helper runs), a raw
  ``SharedMemory`` re-attaches worker-side under the resource tracker.
  Ship its :class:`~repro.runtime.shm.ShmDescriptor` (and re-attach
  worker-side) instead.  Lambdas, closures, locks, collectors and files
  need no rule: ``ProcessBackend`` refuses whatever does not pickle;
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
* **CHK-PARSE** -- a file that does not parse is reported, not skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any

import repro.telemetry
from repro.check.findings import Finding

ANALYZER = "concurrency"

#: Attribute names that constitute the telemetry module's public API.
_TELEMETRY_PUBLIC = frozenset(repro.telemetry.__all__)

#: Telemetry helpers that emit (pointless before any collector exists).
_TELEMETRY_EMITTERS = frozenset(("add", "gauge", "event", "span"))

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

#: Constructors whose results pickle without error, so a submitted
#: partial that binds one is not refused at dispatch.
_SHM_HANDLE = "an open shared-memory handle"
_FORK_UNSAFE_CALLS = {"SharedMemory": _SHM_HANDLE, "SharedArray": _SHM_HANDLE}

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
    "{label} submitted via .{method}() captures {free!r}, {description}, "
    "which must not cross to a process worker (a SharedArray refuses to "
    "pickle, a raw SharedMemory re-attaches under the resource tracker); "
    "ship its ShmDescriptor and re-attach worker-side"
)

_DAG_MESSAGE = (
    "DAG node callable {label} added via .{method}() captures {free!r}, "
    "{description}; concurrent nodes on the work-stealing scheduler "
    "would race on it"
)


def _finding(rule: str, severity: str, location: str,
             message: str) -> Finding:
    return Finding(severity=severity, analyzer=ANALYZER, location=location,
                   message=message, rule=rule)


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
            "CHK-SHARED-MUT", "error", f"{self.module_name}:{lineno}",
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
        # shared_memory.SharedMemory(...) and the SharedArray
        # classmethods (create/attach/from_array) all bind a live
        # handle, however deep the attribute chain -- so any table name
        # appearing anywhere in the chain counts.
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

    def __init__(self, module_name: str, rule: str,
                 submit_methods: frozenset[str], table: dict[str, str],
                 message: str, closures: bool = False) -> None:
        self.module_name = module_name
        self.rule = rule
        self.submit_methods = submit_methods
        self.table = table
        self.message = message
        # Check lambdas, closures and bare bound methods (``obj.method``)
        # besides partials.  Only the DAG rule opts in: a pool task
        # that does not pickle is refused at dispatch, and attribute
        # access on a handle is how the *sanctioned* pattern extracts
        # the picklable descriptor (``seg.descriptor``).
        self.closures = closures
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

    def _report(self, lineno: int, label: str, method: str,
                free: str) -> None:
        description = self._lookup_unsafe(free)
        if description is not None:
            self.findings.append(_finding(
                self.rule, "error", f"{self.module_name}:{lineno}",
                self.message.format(label=label, method=method, free=free,
                                    description=description),
            ))

    def _check_callable(self, func_node: Any, lineno: int, method: str,
                        label: str) -> None:
        for free in sorted(_free_names(func_node)):
            self._report(lineno, label, method, free)

    @staticmethod
    def _is_partial(func: ast.expr) -> bool:
        return ((isinstance(func, ast.Name) and func.id == "partial")
                or (isinstance(func, ast.Attribute)
                    and func.attr == "partial"))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in self.submit_methods):
            method = func.attr
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
                    if (isinstance(sub, ast.Call)
                            and self._is_partial(sub.func)):
                        # ``functools.partial(fn, x, k=y)``: x and y are
                        # captured like a closure's free names.
                        for arg in sub.args + [k.value for k in sub.keywords]:
                            if (isinstance(arg, ast.Name)
                                    and isinstance(arg.ctx, ast.Load)):
                                self._report(arg.lineno,
                                             "functools.partial(...)",
                                             method, arg.id)
                    elif not self.closures:
                        continue
                    elif isinstance(sub, ast.Lambda):
                        self._check_callable(sub, sub.lineno, method,
                                             "lambda")
                    elif (isinstance(sub, ast.Name)
                          and isinstance(sub.ctx, ast.Load)):
                        target = self._lookup_func(sub.id)
                        if target is not None:
                            self._check_callable(target, sub.lineno, method,
                                                 f"closure {sub.id!r}")
                    elif (isinstance(sub, ast.Attribute)
                          and isinstance(sub.ctx, ast.Load)
                          and isinstance(sub.value, ast.Name)
                          and id(sub) not in called
                          and id(sub) not in in_lambda):
                        self._report(
                            sub.lineno,
                            f"bound method '{sub.value.id}.{sub.attr}'",
                            method, sub.value.id)
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
        return [_finding("CHK-PARSE", "error", module_name,
                         f"source does not parse: {exc}")]
    findings: list[Finding] = []

    # CHK-SHARED-MUT: only in modules that touch the parallel runtime.
    if any(pool in source for pool in _POOL_NAMES):
        mutables = _module_mutable_globals(tree)
        if mutables:
            visitor = _ClosureMutationVisitor(module_name, mutables)
            visitor.visit(tree)
            findings.extend(visitor.findings)

    # CHK-FORK: shm handles bound into partials submitted to the pool;
    # CHK-DAG: node callables capturing mutable engine scratch.  The
    # rules fire on the submission sites themselves, so no module gate.
    for visitor in (
        _CaptureSafetyVisitor(module_name, "CHK-FORK", _SUBMIT_METHODS,
                              _FORK_UNSAFE_CALLS, _FORK_MESSAGE),
        _CaptureSafetyVisitor(module_name, "CHK-DAG", _DAG_SUBMIT_METHODS,
                              _DAG_UNSAFE_CALLS, _DAG_MESSAGE,
                              closures=True),
    ):
        visitor.visit(tree)
        findings.extend(visitor.findings)

    # CHK-TEL-API: names outside the API; import-time emission.
    aliases = _telemetry_aliases(tree)
    if not aliases:
        return findings
    in_function: set[int] = set()
    with_items: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            in_function.update(id(sub) for sub in ast.walk(node))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            with_items.update(id(item.context_expr) for item in node.items)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in with_items
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in aliases):
            findings.append(_finding(
                "CHK-TEL-LEAK", "error", f"{module_name}:{node.lineno}",
                "telemetry.span(...) opened outside a 'with' item; the "
                "span is never finished and leaks on the thread's stack",
            ))
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            continue
        if node.attr not in _TELEMETRY_PUBLIC:
            findings.append(_finding(
                "CHK-TEL-API", "error", f"{module_name}:{node.lineno}",
                f"telemetry.{node.attr} is not a public telemetry helper "
                f"(repro.telemetry.__all__); the line raises AttributeError "
                f"only when it runs, and the tests may never run it",
            ))
        elif (node.attr in _TELEMETRY_EMITTERS
              and id(node) not in in_function):
            findings.append(_finding(
                "CHK-TEL-API", "warning", f"{module_name}:{node.lineno}",
                f"telemetry.{node.attr} called at import time, before "
                f"any collector guard can be active",
            ))
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
