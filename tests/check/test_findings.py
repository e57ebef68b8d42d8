"""Tests for the Finding/CheckReport core of repro.check."""

import json

import pytest

from repro.check.findings import CheckReport, Finding, SEVERITIES
from repro.errors import CheckError, ReproError


def _finding(severity="error", analyzer="kernel-ir", location="loc",
             message="msg"):
    return Finding(severity=severity, analyzer=analyzer, location=location,
                   message=message)


class TestFinding:
    def test_valid_severities(self):
        for severity in SEVERITIES:
            assert _finding(severity=severity).severity == severity

    def test_invalid_severity_raises_check_error(self):
        with pytest.raises(CheckError, match="severity"):
            _finding(severity="fatal")

    def test_check_error_is_repro_error(self):
        assert issubclass(CheckError, ReproError)

    def test_to_dict_round_trips(self):
        f = _finding(severity="warning", location="net/conv1", message="m")
        assert f.to_dict() == {
            "severity": "warning", "analyzer": "kernel-ir",
            "location": "net/conv1", "message": "m",
        }


class TestCheckReport:
    def test_empty_report_is_ok(self):
        report = CheckReport()
        assert report.ok
        assert report.errors == [] and report.warnings == []
        report.raise_if_errors()  # must not raise

    def test_error_findings_flip_ok(self):
        report = CheckReport(findings=[_finding(severity="warning"),
                                       _finding(severity="error")])
        assert not report.ok
        assert len(report.errors) == 1 and len(report.warnings) == 1

    def test_raise_if_errors_lists_each_error_with_context(self):
        report = CheckReport(findings=[
            _finding(analyzer="graph", location="net/fc", message="bad shape"),
        ])
        with pytest.raises(CheckError) as exc:
            report.raise_if_errors(context="preflight")
        text = str(exc.value)
        assert "preflight" in text
        assert "[graph] net/fc: bad shape" in text

    def test_sorted_findings_most_severe_first(self):
        report = CheckReport(findings=[
            _finding(severity="info", analyzer="a"),
            _finding(severity="error", analyzer="z"),
            _finding(severity="warning", analyzer="a"),
            _finding(severity="error", analyzer="a"),
        ])
        ordered = report.sorted_findings()
        assert [f.severity for f in ordered] == [
            "error", "error", "warning", "info"
        ]
        assert [f.analyzer for f in ordered[:2]] == ["a", "z"]

    def test_table_renders_every_column(self):
        report = CheckReport(findings=[_finding(location="spot",
                                                message="broken thing")])
        table = report.table()
        for token in ("severity", "analyzer", "location", "message",
                      "spot", "broken thing"):
            assert token in table

    def test_summary_includes_counts_and_meta(self):
        report = CheckReport(findings=[_finding()], meta={"specs": 3})
        summary = report.summary()
        assert "1 error(s)" in summary
        assert "specs=3" in summary

    def test_to_dict_adds_outcome_to_meta(self):
        report = CheckReport(findings=[_finding(severity="warning")],
                             meta={"machine": "xeon"})
        payload = report.to_dict()
        assert payload["meta"]["machine"] == "xeon"
        assert payload["meta"]["num_findings"] == 1
        assert payload["meta"]["num_errors"] == 0
        assert payload["meta"]["num_warnings"] == 1
        assert payload["meta"]["ok"] is True

    def test_write_json(self, tmp_path):
        report = CheckReport(findings=[_finding()], meta={"specs": 1})
        path = report.write_json(tmp_path / "sub" / "check.json")
        payload = json.loads(path.read_text())
        assert payload["findings"][0]["severity"] == "error"
        assert payload["meta"]["ok"] is False

    def test_extend_accumulates(self):
        report = CheckReport()
        report.extend([_finding(), _finding(severity="info")])
        report.extend([_finding(severity="warning")])
        assert len(report.findings) == 3
