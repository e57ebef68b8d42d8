"""Every code reference in README.md and DESIGN.md resolves.

Three kinds of reference are checked against the tree:

* each backticked dotted ``repro.`` name imports (a module) or is an
  attribute of one;
* each ``src/``, ``tests/`` or ``benchmarks/`` path exists, and a
  ``::Class::test`` suffix names something defined in that file;
* each backticked ``repro <command>`` is a subcommand of the CLI.

A ``*`` in a name or path must match something, and each alternative of
a ``{a,b}`` group must resolve.  ``hostbook/README.md`` describes the
benchmark harness and is not scanned.
"""

import argparse
import ast
import fnmatch
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")

_NAME = re.compile(r"(?<![\w.-])repro(?:\.[\w*]+)+")
_PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks)/[\w./*{},-]*"
                   r"(?:::[\w\[\]|.,=*-]+)*)")
_COMMAND = re.compile(r"(?:python -m )?repro ([a-z][a-z-]*)")


def _references() -> tuple[set[str], set[str], set[str]]:
    names: set[str] = set()
    paths: set[str] = set()
    commands: set[str] = set()
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        for code in re.findall(r"`([^`\n]+)`", text):
            names.update(m.group(0).rstrip(".") for m in _NAME.finditer(code))
            command = _COMMAND.match(code)
            if command:
                commands.add(command.group(1))
        paths.update(m.group(1).rstrip(".,") for m in _PATH.finditer(text))
    return names, paths, commands


NAMES, PATHS, COMMANDS = _references()


def _alternatives(text: str) -> list[str]:
    """``text`` with its first ``{a,b}`` group expanded, recursively."""
    group = re.search(r"\{([^{}]*)\}", text)
    if group is None:
        return [text]
    return [expanded for alternative in group.group(1).split(",")
            for expanded in _alternatives(
                text[:group.start()] + alternative + text[group.end():])]


def _members(obj: object) -> set[str]:
    names = set(dir(obj))
    if hasattr(obj, "__path__"):
        names |= {module.name for module in pkgutil.iter_modules(obj.__path__)}
    return names


def _child(obj: object, name: str) -> object:
    try:
        return getattr(obj, name)
    except AttributeError:
        if not hasattr(obj, "__path__"):
            raise
        return importlib.import_module(f"{obj.__name__}.{name}")


def _resolves(obj: object, parts: list[str]) -> bool:
    if not parts:
        return True
    head, rest = parts[0], parts[1:]
    if "*" in head:
        matches = fnmatch.filter(_members(obj), head)
        return any(_resolves(_child(obj, name), rest) for name in matches)
    try:
        child = _child(obj, head)
    except (AttributeError, ModuleNotFoundError):
        return False
    return _resolves(child, rest)


def _defines(path: Path, nodes: list[str]) -> bool:
    """Whether ``nodes`` (``Class``, ``test``; parametrize ids dropped)
    name a chain of definitions in ``path``."""
    scope = ast.parse(path.read_text()).body
    for node in nodes:
        defs = {d.name: d for d in scope
                if isinstance(d, (ast.ClassDef, ast.FunctionDef))}
        matches = fnmatch.filter(defs, node.split("[")[0])
        if not matches:
            return False
        found = defs[matches[0]]
        scope = found.body if isinstance(found, ast.ClassDef) else []
    return True


def test_the_scan_finds_every_kind():
    assert len(NAMES) >= 40 and len(PATHS) >= 40 and len(COMMANDS) >= 5


@pytest.mark.parametrize("name", sorted(NAMES))
def test_name_resolves(name):
    assert all(_resolves(importlib.import_module("repro"),
                         alternative.split(".")[1:])
               for alternative in _alternatives(name)), name


@pytest.mark.parametrize("reference", sorted(PATHS))
def test_path_resolves(reference):
    file_part, *nodes = reference.split("::")
    for alternative in _alternatives(file_part):
        files = sorted(ROOT.glob(alternative)) if "*" in alternative \
            else [ROOT / alternative]
        assert files and all(f.exists() for f in files), alternative
        if nodes:
            assert any(_defines(f, nodes) for f in files), reference


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_resolves(command):
    action = next(a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert command in action.choices
