"""The host book's vocabulary in tier-1.

``hostbook/selftest.check_vocabulary`` (stdlib only) holds the committed
``BENCHMARK.json`` to the names, units, directions and bounds the book's
``spec`` declares.  It is loaded here without writing bytecode into
``hostbook/``: nothing there changes by running this module.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HOSTBOOK = ROOT / "hostbook"
#: The book's modules import each other by these top-level names.
BOOK_MODULES = ("spec", "compare", "selftest")


def _listing():
    return sorted(str(path) for path in HOSTBOOK.rglob("*"))


@pytest.fixture(scope="module")
def check_vocabulary():
    before = _listing()
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    shadowed = {name: sys.modules.pop(name) for name in BOOK_MODULES
                if name in sys.modules}
    sys.path.insert(0, str(HOSTBOOK))
    sys.dont_write_bytecode = True
    try:
        import selftest

        check = selftest.check_vocabulary
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in BOOK_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(shadowed)
    assert _listing() == before, "loading the book wrote into hostbook/"
    return check


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_the_committed_benchmark_names_what_the_book_declares(
        check_vocabulary):
    assert check_vocabulary(_benchmark()) == []


def test_a_dropped_per_layer_name_is_caught(check_vocabulary):
    bench = _benchmark()
    dropped = bench["per_layer"].pop(len(bench["per_layer"]) // 2)
    failures = check_vocabulary(bench)
    assert len(failures) == 1
    assert "per_layer differs" in failures[0]
    assert repr(dropped["name"]) in failures[0]
