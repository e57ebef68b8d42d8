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
* ``test_check_imports_no_machine_model`` -- ``repro check`` verifies
  code and graphs, never a machine, so it loads no ``repro.machine``
  module either.
* ``test_import_budget_*`` -- a process loads only the code its run
  executes: a bare ``import repro.cli`` no analyzer, tuner or runtime;
  an inline training run no pool, sharding, analyzer, tuner, report or
  checkpoint code (and at most ``INLINE_LINE_BUDGET`` lines of
  ``repro``); a process worker that ran a step shard no analyzer, tuner
  or report code.
* ``test_cli_choices_match_the_registries`` -- the CLI's literal name
  tuples name exactly what the registries hold.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import io
import json
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


_CHECK_WITHOUT_MODEL = """
import io, sys
from repro import cli
assert cli.main(["check", "--quiet"], out=io.StringIO()) == 0
print(sorted(name for name in sys.modules
             if name == "repro.machine" or name.startswith("repro.machine.")))
"""


def test_check_imports_no_machine_model():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _CHECK_WITHOUT_MODEL],
                          env=env, capture_output=True, text=True,
                          timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", done.stdout


#: Lines of ``repro`` source an inline ``mnist_net`` / ``cifar10_net``
#: training run may import (17,125 when every package re-exported).
INLINE_LINE_BUDGET = 9400

_IMPORT_BUDGET = """
import json, sys
import numpy as np

def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))

import repro.cli
report = {"cli": loaded(), "cli_mp": "multiprocessing" in sys.modules}
from repro.data.synthetic import cifar10_like, mnist_like
from repro.nn.training_loop import TrainingLoop
from repro.nn.zoo import cifar10_net, mnist_net
for build, data in ((mnist_net, mnist_like), (cifar10_net, cifar10_like)):
    network = build(scale=0.25, rng=np.random.default_rng(0))
    TrainingLoop(network, data(16, seed=0), batch_size=8).run(1)
report["run"] = loaded()
report["run_mp"] = "multiprocessing" in sys.modules
report["lines"] = sum(len(open(sys.modules[name].__file__).readlines())
                      for name in report["run"])
print(json.dumps(report))
"""

#: What ``repro check`` alone runs.
_ANALYZER_MODULES = tuple(f"repro.check.{name}" for name in (
    "runner", "gen_source", "graph", "effects", "concurrency"))


def _run_json(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args, script], env=env,
                          capture_output=True, text=True, timeout=600,
                          check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@lru_cache(maxsize=None)
def _inline_imports() -> dict:
    return _run_json(_IMPORT_BUDGET, "-c")


def _under(modules: list[str], *prefixes: str) -> list[str]:
    return [name for name in modules
            if any(name == p or name.startswith(p + ".") for p in prefixes)]


def test_import_budget_bare_cli():
    report = _inline_imports()
    assert not _under(report["cli"], "repro.check", "repro.core.autotuner",
                      "repro.runtime"), report["cli"]
    assert not report["cli_mp"]


def test_import_budget_inline_training():
    report = _inline_imports()
    assert not _under(
        report["run"], *(f"repro.runtime.{name}" for name in
                         ("backends", "pool", "parallel", "shm", "dag")),
        "repro.check.runner", "repro.check.effects",
        "repro.check.concurrency", "repro.check.gen_source", "repro.core.autotuner",
        "repro.core.framework", "repro.obs", "repro.nn.serialize",
    ), report["run"]
    assert not report["run_mp"]
    assert report["lines"] <= INLINE_LINE_BUDGET, report["lines"]


_WORKER_IMPORTS = """
import json
import sys


def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))


if __name__ == "__main__":
    import numpy as np

    from repro.data.synthetic import mnist_like
    from repro.nn.sgd import SGDTrainer
    from repro.nn.zoo import mnist_net

    network = mnist_net(scale=0.25, rng=np.random.default_rng(0),
                        threads=2, backend="process")
    data = mnist_like(8, seed=0)
    try:
        SGDTrainer(network).step(data.images, data.labels)
        backend = network.conv_layers()[0]._pool.backend
        print(json.dumps(backend.broadcast(loaded)))
    finally:
        for layer in network.conv_layers():
            layer.close()
"""


def test_import_budget_process_worker(tmp_path):
    # A file, not ``-c``: spawned workers import ``loaded`` from it.
    script = tmp_path / "worker_imports.py"
    script.write_text(_WORKER_IMPORTS)
    workers = _run_json(str(script))
    assert len(workers) == 1  # threads=2: the parent and one helper
    for modules in workers:
        assert "repro.runtime.backends" in modules
        assert not _under(modules, *_ANALYZER_MODULES,
                          "repro.core.autotuner", "repro.obs"), modules


def _subparser(parser, command: str):
    commands = next(action for action in parser._actions
                    if action.dest == "command")
    return commands.choices[command]


def _choices(parser, dest: str) -> tuple[str, ...]:
    return tuple(next(action for action in parser._actions
                      if action.dest == dest).choices)


def test_cli_choices_match_the_registries():
    from repro import cli
    from repro.check.runner import ANALYZER_ALIASES, ANALYZERS
    from repro.ops.engine import engine_names
    from repro.resilience.faults import REAL_KILL_PLANS, plan_names
    from repro.runtime.backends import BACKEND_NAMES

    parser = cli._build_parser()
    for command in ("train", "chaos"):
        assert _choices(_subparser(parser, command), "backend") == BACKEND_NAMES
    assert (_choices(_subparser(parser, "chaos"), "plan")
            == plan_names() + REAL_KILL_PLANS)
    assert cli._ANALYZERS == ANALYZERS
    assert cli._ANALYZER_ALIASES == ANALYZER_ALIASES
    for alias, name in ANALYZER_ALIASES.items():
        assert parser.parse_args(["check", "--only", alias]).only == (name,)
    out = io.StringIO()
    assert cli.main(["engines"], out=out) == 0
    assert tuple(out.getvalue().split()) == engine_names()


_ENGINES_AFTER_INLINE_BUILD = """
import json
import numpy as np
from repro.nn.zoo import mnist_net

spec = mnist_net(scale=0.25, rng=np.random.default_rng(0)).conv_layers()[0].padded_spec
from repro.ops.engine import engine_names, make_engine
print(json.dumps([make_engine(name, spec).name for name in engine_names()]))
"""


def test_make_engine_resolves_every_engine_after_an_inline_build():
    # This process's registry also holds engines other tests registered.
    assert tuple(_run_json(_ENGINES_AFTER_INLINE_BUILD, "-c")) == (
        "gemm-in-parallel", "parallel-gemm", "reference", "sparse", "stencil")
