"""Every paper exhibit under ``benchmarks/`` still imports.

The ``bench_*.py`` files regenerate the paper's tables and figures under
pytest-benchmark, which tier-1 does not run.  Importing each one here
(no ``benchmark`` fixture needed) catches an exhibit left citing a
module that moved or was deleted.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
EXHIBITS = sorted(BENCHMARKS.glob("bench_*.py"))


def test_exhibits_are_found():
    assert EXHIBITS, f"no bench_*.py under {BENCHMARKS}"


@pytest.mark.parametrize("path", EXHIBITS, ids=lambda path: path.stem)
def test_exhibit_imports(path):
    spec = importlib.util.spec_from_file_location(f"exhibit_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module)), (
        f"{path.name} defines no test_* exhibit"
    )
