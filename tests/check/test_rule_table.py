"""DESIGN's table of ``repro check`` rules names exactly the rule ids
the analyzers emit.

A lint finding carries a ``CHK-*`` id; every other analyzer's findings
carry no id of their own and report under the analyzer's name
(``Finding.rule`` empty).  Both sets are read from the source with
``ast``, so a rule that no test triggers still counts; each lint row
then has a seeded hazard that the lint must report under that id, and
each row states the catch or the contract it answers for.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import repro.check
from repro.check.concurrency import lint_source
from repro.check.runner import ANALYZERS

ROOT = Path(__file__).resolve().parents[2]
CHECK = Path(repro.check.__file__).resolve().parent
TABLE_LEAD = "**Every rule and what it answers for.**"


#: One seeded hazard per lint rule: a row whose id no source can make
#: the lint emit would pass the ``ast`` comparison below and still be dead.
LINT_SEEDS = {
    "CHK-DAG": """
        import functools
        from repro.ops.engine import make_engine

        def build(graph, spec, x, weights):
            engine = make_engine("parallel-gemm", spec)
            graph.add_node(
                "fp", functools.partial(run_slice, engine, x, weights)
            )
    """,
    "CHK-FORK": """
        import functools
        from repro.runtime.shm import SharedArray

        def run(pool, data, task):
            with SharedArray.from_array(data) as seg:
                return pool.map_items(functools.partial(task, seg), 4)
    """,
    "CHK-SHARED-MUT": """
        from repro.runtime.pool import WorkerPool

        RESULTS = []

        def run(pool):
            def task(i):
                RESULTS.append(i)
            pool.map(task, range(4))
    """,
    "CHK-TEL-API": """
        from repro import telemetry

        def f():
            telemetry.guage("x", 1.0)
    """,
    "CHK-TEL-LEAK": """
        from repro import telemetry

        def f():
            span = telemetry.span("work")
            return span
    """,
    "CHK-PARSE": "def broken(:\n",
}


def _table() -> list[list[str]]:
    """DESIGN's rule table, one list of stripped cells per row."""
    lines = (ROOT / "DESIGN.md").read_text().splitlines()
    start = lines.index(next(line for line in lines
                             if line.startswith(TABLE_LEAD)))
    rows = []
    for line in lines[start + 1:]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("| `"):
            rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def _table_rules() -> list[str]:
    return [row[0].strip("`") for row in _table()]


def _analyzer_constants() -> dict[str, str]:
    """Module stem -> its ``ANALYZER`` name, for every analyzer module."""
    names = {}
    for path in CHECK.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "ANALYZER"
                            for t in node.targets)):
                names[path.stem] = node.value.value
    return names


def _lint_rule_ids() -> set[str]:
    tree = ast.parse((CHECK / "concurrency.py").read_text())
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"CHK-[A-Z]+(-[A-Z]+)*", node.value)}


def _emitted_rule_ids() -> set[str]:
    analyzer_rules = {name for stem, name in _analyzer_constants().items()
                      if stem != "concurrency"}
    return analyzer_rules | _lint_rule_ids()


def test_every_runner_analyzer_has_its_module():
    assert sorted(_analyzer_constants().values()) == sorted(ANALYZERS)


def test_only_the_lint_sets_a_rule_id():
    for path in CHECK.glob("*.py"):
        if path.stem == "concurrency":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Finding"):
                assert "rule" not in {kw.arg for kw in node.keywords}, path


def test_table_rows_are_unique():
    rows = _table_rules()
    assert len(rows) == len(set(rows)), rows


def test_every_emitted_rule_has_a_row():
    assert _emitted_rule_ids() - set(_table_rules()) == set()


def test_every_row_names_an_emitted_rule():
    assert set(_table_rules()) - _emitted_rule_ids() == set()



def test_every_row_states_its_catch_or_contract():
    for row in _table():
        assert len(row) == 5, row
        assert row[4].startswith(("contract:", "caught", "retires with")), row


def test_every_lint_row_has_a_seed():
    lint_rows = {rule for rule in _table_rules() if rule.startswith("CHK-")}
    assert lint_rows == set(LINT_SEEDS)


@pytest.mark.parametrize("rule", sorted(LINT_SEEDS))
def test_each_lint_rule_fires_on_its_seed(rule):
    findings = lint_source("seed.py", textwrap.dedent(LINT_SEEDS[rule]))
    assert [f.rule for f in findings] == [rule], findings
