"""Tests for the SARIF 2.1.0 export of check reports."""

import json

from repro.check.findings import CheckReport, Finding
from repro.check.sarif import SARIF_VERSION, to_sarif, write_sarif


def _finding(severity="error", analyzer="concurrency",
             location="repro/runtime/shm.py:42", message="boom", rule=""):
    return Finding(severity=severity, analyzer=analyzer,
                   location=location, message=message, rule=rule)


def _report(findings, meta=None):
    return CheckReport(findings=findings, meta=meta or {})


class TestSeverityMapping:
    def test_levels_map_to_sarif_vocabulary(self):
        report = _report([
            _finding(severity="error"),
            _finding(severity="warning"),
            _finding(severity="info"),
        ])
        levels = sorted(r["level"]
                        for r in to_sarif(report)["runs"][0]["results"])
        assert levels == ["error", "note", "warning"]


class TestLocations:
    def test_source_location_becomes_physical_under_src(self):
        log = to_sarif(_report([_finding(location="repro/runtime/shm.py:42")]))
        physical = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "src/repro/runtime/shm.py"
        assert physical["region"]["startLine"] == 42

    def test_graph_node_location_becomes_logical(self):
        log = to_sarif(_report([
            _finding(analyzer="effects", location="bp/conv0/dw_reduce"),
        ]))
        logical = log["runs"][0]["results"][0]["locations"][0][
            "logicalLocations"][0]
        assert logical["fullyQualifiedName"] == "bp/conv0/dw_reduce"

    def test_non_numeric_line_suffix_stays_logical(self):
        log = to_sarif(_report([_finding(location="kernel:conv3x3")]))
        assert "logicalLocations" in \
            log["runs"][0]["results"][0]["locations"][0]


class TestToolMetadata:
    def test_one_rule_per_contributing_analyzer(self):
        log = to_sarif(_report([
            _finding(analyzer="effects", location="fp/x"),
            _finding(analyzer="effects", location="fp/y"),
            _finding(analyzer="graph"),
        ]))
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-check"
        assert [rule["id"] for rule in driver["rules"]] == \
            ["effects", "graph"]

    def test_lint_findings_carry_their_rule_id(self):
        log = to_sarif(_report([
            _finding(rule="CHK-FORK"),
            _finding(rule="CHK-TEL-LEAK"),
            _finding(rule="CHK-FORK", location="repro/runtime/pool.py:7"),
        ]))
        driver = log["runs"][0]["tool"]["driver"]
        assert [rule["id"] for rule in driver["rules"]] == \
            ["CHK-FORK", "CHK-TEL-LEAK"]
        assert [r["ruleId"] for r in log["runs"][0]["results"]] == \
            ["CHK-FORK", "CHK-FORK", "CHK-TEL-LEAK"]

    def test_report_meta_lands_in_run_properties(self):
        log = to_sarif(_report([], meta={"effect_graphs": 8,
                                         "files_linted": 101}))
        assert log["runs"][0]["properties"] == {"effect_graphs": 8,
                                                "files_linted": 101}
        assert log["version"] == SARIF_VERSION
        assert log["runs"][0]["results"] == []


class TestWriteSarif:
    def test_writes_parseable_file_creating_parents(self, tmp_path):
        target = tmp_path / "nested" / "check.sarif"
        written = write_sarif(_report([_finding()]), target)
        assert written == target
        payload = json.loads(target.read_text())
        assert payload["version"] == SARIF_VERSION
        assert payload["runs"][0]["results"][0]["ruleId"] == "concurrency"
