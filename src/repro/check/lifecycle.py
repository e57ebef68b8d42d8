"""Analyzer 5: shared-memory buffer-lifecycle verification.

The shm state machine (:mod:`repro.runtime.shm`) is
``create -> attach -> close -> unlink``: owners create segments and must
eventually unlink them on every path; workers attach and only ever
close; nothing touches a handle after releasing it; and every registry
holding live handles must close what it evicts and drain when its owner
dies.  This analyzer checks those rules statically, as AST lint rules
over the runtime modules that manage segments:

* **LC-USE-AFTER-RELEASE** -- a handle is used (attribute, subscript,
  call argument) after ``close()``/``unlink()`` on a path where it was
  not rebound first; only further ``close``/``unlink`` calls are exempt
  (both are idempotent by contract).
* **LC-ATTACH-UNLINK** -- ``unlink()`` called on a handle obtained via
  ``SharedArray.attach``: attachers never own, so they never unlink.
* **LC-ORPHAN** -- an owned handle (``SharedArray.create`` /
  ``from_array``) that provably never escapes its function: not
  returned, not stored, not passed on, not unlinked, not a context
  manager.  Nothing can release such a segment.
* **LC-EVICT-CLOSE** -- a function that removes or replaces entries of
  a handle registry (a dict annotated with ``SharedArray``) without any
  ``close``/``unlink`` call: eviction without release pins the
  segment's pages for the process lifetime.
* **LC-REGISTER-PAIR** -- a module calling ``_register_owned`` without
  ever calling ``_unregister_owned``: the leak registry
  (``owned_segments()``) could then never drain.
* **LC-OWNER-RELEASE** -- a class owning a handle registry with no
  release path (no ``close``/``unlink``/``release`` call anywhere in
  the class) or no fault net (neither a ``weakref.finalize`` nor
  ``__exit__``/``__del__``); and a class storing a
  ``ShmArena`` on an attribute without ever calling ``.release()``.

The rules are scoped to the modules that own segment lifetime --
``runtime/shm.py``, ``runtime/backends.py``, ``runtime/parallel.py`` --
via :func:`lint_lifecycle`; :func:`lint_lifecycle_source` checks any
source text (the self-tests feed it seeded violations).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.findings import Finding

ANALYZER = "lifecycle"

#: The runtime modules whose segment handling this analyzer governs.
LIFECYCLE_MODULES = (
    "runtime/shm.py",
    "runtime/backends.py",
    "runtime/parallel.py",
)

#: Method calls that release a handle (idempotent; allowed after one
#: another -- ``unlink()`` closes too, ``close()`` after it is a no-op).
_RELEASE_METHODS = frozenset({"close", "unlink"})

#: Dotted callables producing an *owned* handle.
_OWNER_FACTORIES = frozenset({"create", "from_array"})

#: Dotted-name bases recognized as the SharedArray class.
_HANDLE_CLASSES = frozenset({"SharedArray", "cls"})


def _finding(severity: str, location: str, message: str) -> Finding:
    return Finding(severity=severity, analyzer=ANALYZER, location=location,
                   message=message)


def _dotted(node: ast.expr) -> "str | None":
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _is_handle_factory(call: ast.Call, which: frozenset[str]) -> bool:
    """True when ``call`` is ``SharedArray.<factory>`` for ``which``."""
    dotted = _dotted(call.func)
    if dotted is None or "." not in dotted:
        return False
    base, _, method = dotted.rpartition(".")
    return method in which and base.rpartition(".")[2] in _HANDLE_CLASSES


def _assigned_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names = []
        for element in target.elts:
            names.extend(_assigned_names(element))
        return names
    return []


class _FunctionLifecycle:
    """Linear-path lifecycle walk over one function body.

    Tracks, per local name, whether the last lifecycle event on any
    syntactic path was a release; branch-local releases conservatively
    persist past the branch (an ``if``-guarded ``unlink`` without a
    rebind still poisons the fall-through), while any rebinding
    assignment -- including loop targets, which rebind per iteration --
    resets the name to live.
    """

    def __init__(self, module_name: str, func: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self.module = module_name
        self.func = func
        self.findings: list[Finding] = []
        self.released: dict[str, int] = {}   # name -> release lineno
        self.attached: set[str] = set()      # names bound from attach()
        self.release_calls = 0
        self.registry_evictions: list[int] = []

    def location(self, lineno: int) -> str:
        return f"{self.module}:{lineno}"

    # -- statement walk ---------------------------------------------------

    def run(self, registries: set[str]) -> None:
        self.registries = registries
        for statement in self.func.body:
            self._statement(statement)

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs get their own walk
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(node, "value", None)
            if value is not None:
                self._expression(value)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                self._bind_target(target, value)
                if not isinstance(target, ast.Name):
                    self._expression_children(target)
            self._note_registry_store(targets)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._note_registry_eviction(target.value, target.lineno)
                self._expression_children(target)
        elif isinstance(node, ast.For):
            self._expression(node.iter)
            self._bind_target(node.target, None)
            for statement in node.body:
                self._statement(statement)
            for statement in node.orelse:
                self._statement(statement)
        elif isinstance(node, ast.While):
            self._expression(node.test)
            for statement in node.body:
                self._statement(statement)
            for statement in node.orelse:
                self._statement(statement)
        elif isinstance(node, ast.If):
            self._expression(node.test)
            for statement in node.body:
                self._statement(statement)
            for statement in node.orelse:
                self._statement(statement)
        elif isinstance(node, ast.With):
            for item in node.items:
                self._expression(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, item.context_expr)
            for statement in node.body:
                self._statement(statement)
        elif isinstance(node, ast.Try):
            for statement in node.body:
                self._statement(statement)
            for handler in node.handlers:
                for statement in handler.body:
                    self._statement(statement)
            for statement in node.orelse:
                self._statement(statement)
            for statement in node.finalbody:
                self._statement(statement)
        elif isinstance(node, (ast.Return, ast.Expr)):
            if node.value is not None:
                self._expression(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expression(child)
        # pass/break/continue/global/import: no lifecycle content.

    def _bind_target(self, target: ast.expr, value: "ast.expr | None") -> None:
        for name in _assigned_names(target):
            self.released.pop(name, None)
            self.attached.discard(name)
            if isinstance(value, ast.Call):
                if _is_handle_factory(value, frozenset({"attach"})):
                    self.attached.add(name)

    def _note_registry_store(self, targets: Sequence[ast.expr]) -> None:
        for target in targets:
            if isinstance(target, ast.Subscript):
                self._note_registry_eviction(target.value, target.lineno)

    def _note_registry_eviction(self, container: ast.expr,
                                lineno: int) -> None:
        dotted = _dotted(container)
        if dotted is not None and \
                dotted.rpartition(".")[2] in self.registries:
            self.registry_evictions.append(lineno)

    # -- expression walk --------------------------------------------------

    def _expression(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name):
                name = func.value.id
                if func.attr in _RELEASE_METHODS:
                    self.release_calls += 1
                    if func.attr == "unlink" and name in self.attached:
                        self.findings.append(_finding(
                            "error", self.location(node.lineno),
                            f"unlink() on {name!r}, which was attached, "
                            f"not created; only the owner unlinks "
                            f"[LC-ATTACH-UNLINK]",
                        ))
                    for argument in node.args:
                        self._expression(argument)
                    self.released[name] = node.lineno
                    return
                if func.attr in ("pop", "popitem", "clear") and \
                        name.rpartition(".")[2] in self.registries:
                    self.registry_evictions.append(node.lineno)
            elif isinstance(func, ast.Attribute):
                dotted = _dotted(func.value)
                if func.attr in ("pop", "popitem", "clear") and \
                        dotted is not None and \
                        dotted.rpartition(".")[2] in self.registries:
                    self.registry_evictions.append(node.lineno)
                if func.attr in _RELEASE_METHODS:
                    self.release_calls += 1
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr) and child is not node.func:
                    self._expression(child)
            if isinstance(node.func, (ast.Attribute, ast.Subscript)):
                self._expression(node.func.value)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                self._check_use(node.value.id, node.lineno,
                                f"attribute .{node.attr}")
                return
            self._expression(node.value)
            return
        if isinstance(node, ast.Name):
            self._check_use(node.id, node.lineno, "value")
            return
        self._expression_children(node)

    def _expression_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expression(child)

    def _check_use(self, name: str, lineno: int, how: str) -> None:
        released_at = self.released.get(name)
        if released_at is not None:
            self.findings.append(_finding(
                "error", self.location(lineno),
                f"{name!r} used ({how}) after being released on line "
                f"{released_at} without rebinding [LC-USE-AFTER-RELEASE]",
            ))


def _collect_registries(tree: ast.Module) -> set[str]:
    """Names of dict attributes/globals annotated as holding handles."""
    registries: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            annotation = ast.unparse(node.annotation)
            if "SharedArray" not in annotation:
                continue
            if not annotation.lstrip("'\"").startswith(
                    ("dict", "Dict", "OrderedDict")):
                continue
            dotted = _dotted(node.target)
            if dotted is not None:
                registries.add(dotted.rpartition(".")[2])
    return registries


def _check_orphans(module_name: str,
                   func: "ast.FunctionDef | ast.AsyncFunctionDef"
                   ) -> list[Finding]:
    """LC-ORPHAN: owned handles that provably never escape ``func``."""
    owned: dict[str, int] = {}
    escaped: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = getattr(node, "value", None)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if isinstance(value, ast.Call) and \
                    _is_handle_factory(value, _OWNER_FACTORIES):
                for target in targets:
                    for name in _assigned_names(target):
                        owned[name] = node.lineno
            else:
                # Storing the handle anywhere counts as an escape.
                if isinstance(value, ast.Name) and not all(
                        isinstance(t, ast.Name) for t in targets):
                    escaped.add(value.id)
        elif isinstance(node, ast.Return) and \
                isinstance(node.value, ast.Name):
            escaped.add(node.value.id)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.attr == "unlink":
                escaped.add(node.func.value.id)
            for argument in list(node.args) + [k.value for k in node.keywords]:
                if isinstance(argument, ast.Name):
                    escaped.add(argument.id)
        elif isinstance(node, ast.withitem):
            context = node.context_expr
            if isinstance(context, ast.Name):
                escaped.add(context.id)
            elif isinstance(context, ast.Call) and \
                    _is_handle_factory(context, _OWNER_FACTORIES):
                escaped.add("__with__")  # managed by __exit__
    return [
        _finding(
            "error", f"{module_name}:{lineno}",
            f"owned handle {name!r} (SharedArray.create/from_array) never "
            f"escapes {func.name!r}: not returned, stored, passed on or "
            f"unlinked -- the segment can never be released [LC-ORPHAN]",
        )
        for name, lineno in sorted(owned.items(), key=lambda kv: kv[1])
        if name not in escaped
    ]


def _check_classes(module_name: str, tree: ast.Module,
                   registries: set[str]) -> list[Finding]:
    """LC-OWNER-RELEASE over every class of the module."""
    findings = []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        source = ast.unparse(cls)
        owns_registry = any(
            isinstance(node, ast.AnnAssign)
            and _dotted(node.target) is not None
            and _dotted(node.target).rpartition(".")[2] in registries
            for node in ast.walk(cls)
        )
        arena_attrs = [
            _dotted(t).rpartition(".")[2]
            for node in ast.walk(cls) if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(node.value, ast.Call)
            and _dotted(node.value.func) is not None
            and _dotted(node.value.func).rpartition(".")[2] == "ShmArena"
            and _dotted(t) is not None
        ]
        if owns_registry:
            if not any(f".{m}(" in source for m in
                       ("close", "unlink", "release")):
                findings.append(_finding(
                    "error", f"{module_name}:{cls.lineno}",
                    f"class {cls.name} owns a handle registry but never "
                    f"closes, unlinks or releases anything "
                    f"[LC-OWNER-RELEASE]",
                ))
            has_finalizer = "weakref.finalize" in source or any(
                isinstance(node, ast.FunctionDef)
                and node.name in ("__exit__", "__del__")
                for node in cls.body
            )
            if not has_finalizer:
                findings.append(_finding(
                    "error", f"{module_name}:{cls.lineno}",
                    f"class {cls.name} owns a handle registry but installs "
                    f"no fault net (weakref.finalize, __exit__ or __del__): "
                    f"a dropped instance leaks its segments "
                    f"[LC-OWNER-RELEASE]",
                ))
        for attr in arena_attrs:
            if f"{attr}.release(" not in source:
                findings.append(_finding(
                    "error", f"{module_name}:{cls.lineno}",
                    f"class {cls.name} stores a ShmArena on {attr!r} but "
                    f"never calls its release() [LC-OWNER-RELEASE]",
                ))
    return findings


def lint_lifecycle_source(module_name: str, source: str) -> list[Finding]:
    """Run every lifecycle rule over one module's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_finding("error", module_name,
                         f"source does not parse: {exc}")]
    findings: list[Finding] = []
    registries = _collect_registries(tree)

    registers = unregisters = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                leaf = dotted.rpartition(".")[2]
                registers = registers or leaf == "_register_owned"
                unregisters = unregisters or leaf == "_unregister_owned"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walker = _FunctionLifecycle(module_name, node)
            walker.run(registries)
            findings.extend(walker.findings)
            if walker.registry_evictions and walker.release_calls == 0:
                findings.append(_finding(
                    "error",
                    f"{module_name}:{walker.registry_evictions[0]}",
                    f"{node.name!r} evicts or replaces handle-registry "
                    f"entries without any close()/unlink(): the evicted "
                    f"segment's mapping is pinned forever "
                    f"[LC-EVICT-CLOSE]",
                ))
            findings.extend(_check_orphans(module_name, node))
    if registers and not unregisters:
        findings.append(_finding(
            "error", module_name,
            "module calls _register_owned but never _unregister_owned: "
            "owned_segments() can never drain [LC-REGISTER-PAIR]",
        ))
    findings.extend(_check_classes(module_name, tree, registries))
    return findings


def lint_lifecycle(root: "Path | None" = None,
                   modules: Iterable[str] = LIFECYCLE_MODULES
                   ) -> tuple[list[Finding], int]:
    """Lint the shm-owning runtime modules; ``(findings, files)``."""
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    findings: list[Finding] = []
    count = 0
    for relative in modules:
        path = root / relative
        if not path.exists():
            findings.append(_finding(
                "error", relative,
                "lifecycle-governed module is missing from the package",
            ))
            continue
        module_name = f"{root.name}/{relative}"
        findings.extend(lint_lifecycle_source(module_name,
                                              path.read_text()))
        count += 1
    return findings, count
