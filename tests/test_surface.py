"""The package surface: every module has a caller, every import resolves.

Both checks read imports with ``ast``, so an import inside a function
body counts even when no test executes that function.

* ``test_module_has_a_caller`` -- each module under ``src/repro`` is
  imported by at least one *other* file of the program proper
  (``src/``, ``hostbook/``, ``benchmarks/``, ``examples/``).  Tests do
  not count: a module only its own tests reach has no caller.
* ``test_repro_imports_resolve`` -- every ``import repro...`` and
  ``from repro... import name`` in those trees and in ``tests/`` names
  a module that exists and, for ``from`` imports, a submodule or an
  attribute of it.  A deletion that leaves a dangling import behind
  fails here even if nothing runs the importing line.
* ``test_training_imports_no_machine_model`` -- ``repro train``, inline
  and on process workers under both schedulers, loads no module of
  ``repro.machine``: what is deployed and how long a worker may hold a
  task are decided from measurements on this host, never from the
  model of the paper's machine.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROGRAM_TREES = ("src", "hostbook", "benchmarks", "examples")


def _python_files(*trees: str) -> list[Path]:
    return sorted(
        path for tree in trees for path in (ROOT / tree).rglob("*.py")
        if "__pycache__" not in path.parts
    )


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package(path: Path) -> str | None:
    """The package a file's relative imports resolve against."""
    if SRC not in path.parents:
        return None
    name = _module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _imports(path: Path) -> list[tuple[str, tuple[str, ...], int]]:
    """``(module, names imported from it, line)`` for every import."""
    package = _package(path)
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.extend((alias.name, (), node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                if package is None:
                    continue
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            names = tuple(alias.name for alias in node.names)
            out.append((module, names, node.lineno))
    return out


def _imported_modules(path: Path) -> set[str]:
    """Every module importing ``path`` loads: parents and submodules."""
    loaded: set[str] = set()
    for module, names, _ in _imports(path):
        parts = module.split(".")
        loaded.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        loaded.update(f"{module}.{name}" for name in names)
    return loaded


SRC_FILES = _python_files("src")
MODULES = sorted(
    _module_name(path) for path in SRC_FILES
    # ``python -m repro`` runs it; nothing imports an entry point.
    if path.name != "__main__.py"
)


@lru_cache(maxsize=None)
def _importers() -> dict[str, set[Path]]:
    importers: dict[str, set[Path]] = {}
    for path in _python_files(*PROGRAM_TREES):
        for module in _imported_modules(path):
            importers.setdefault(module, set()).add(path)
    return importers


@pytest.mark.parametrize("module", MODULES)
def test_module_has_a_caller(module):
    own = {path for path in SRC_FILES if _module_name(path) == module}
    callers = _importers().get(module, set()) - own
    assert callers, (
        f"{module} is imported by nothing in {', '.join(PROGRAM_TREES)}; "
        "delete it or give it a caller"
    )


def _module_exists(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


@pytest.mark.parametrize(
    "path", _python_files(*PROGRAM_TREES, "tests"),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_repro_imports_resolve(path):
    broken = []
    for module, names, line in _imports(path):
        if module != "repro" and not module.startswith("repro."):
            continue
        where = f"{path.relative_to(ROOT)}:{line}"
        if not _module_exists(module):
            broken.append(f"{where}: no module {module}")
            continue
        for name in names:
            if name == "*" or _module_exists(f"{module}.{name}"):
                continue
            if not hasattr(importlib.import_module(module), name):
                broken.append(f"{where}: {module} has no {name!r}")
    assert not broken, "\n".join(broken)


_TRAIN_WITHOUT_MODEL = """
import io, sys
from repro import cli
base = ["train", "--net", "cifar", "--scale", "0.25", "--batch", "8",
        "--samples", "16", "--epochs", "1"]
for extra in (["--recheck", "1"],
              ["--threads", "2", "--backend", "process"],
              ["--threads", "2", "--backend", "process", "--scheduler", "dag"]):
    assert cli.main(base + extra, out=io.StringIO()) == 0, extra
print(sorted(name for name in sys.modules
             if name == "repro.machine" or name.startswith("repro.machine.")))
"""


def test_training_imports_no_machine_model():
    # The child inherits the native cache conftest points at a tmp
    # directory.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _TRAIN_WITHOUT_MODEL],
                          env=env, capture_output=True, text=True,
                          timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", done.stdout
