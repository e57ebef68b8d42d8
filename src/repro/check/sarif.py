"""SARIF 2.1.0 export of :class:`~repro.check.findings.CheckReport`.

SARIF (Static Analysis Results Interchange Format) is what code hosts
ingest to annotate pull requests inline; the CI ``check`` job uploads
the file this module writes.  The mapping is deliberately small:

* one ``run`` with one ``tool.driver`` (``repro-check``), one rule per
  rule id that contributed a finding (a lint rule's ``CHK-*`` id, else
  the analyzer's name);
* severities map ``error -> error``, ``warning -> warning``,
  ``info -> note``;
* analyzer locations of the form ``pkg/module.py:NN`` (the source
  linters) become physical locations under ``src/``, so annotations
  land on the right line; everything else (graph nodes, kernel names)
  becomes a logical location.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.check.findings import CheckReport, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def _split_location(location: str) -> "tuple[str, int] | None":
    """``(path, line)`` when the location is ``file.py:NN``, else None."""
    path, sep, line = location.rpartition(":")
    if sep and path.endswith(".py") and line.isdigit():
        return path, int(line)
    return None


def _result(finding: Finding) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": finding.rule or finding.analyzer,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
    }
    physical = _split_location(finding.location)
    if physical is not None:
        path, line = physical
        result["locations"] = [{
            "physicalLocation": {
                "artifactLocation": {"uri": f"src/{path}"},
                "region": {"startLine": line},
            },
        }]
    else:
        result["locations"] = [{
            "logicalLocations": [{"fullyQualifiedName": finding.location}],
        }]
    return result


def to_sarif(report: CheckReport) -> dict[str, Any]:
    """The report as a SARIF 2.1.0 log dictionary."""
    rules = sorted({f.rule or f.analyzer for f in report.findings})
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-check",
                    "informationUri":
                        "https://example.invalid/repro/check",
                    "rules": [
                        {
                            "id": rule,
                            "shortDescription": {
                                "text": f"repro check rule {rule!r}",
                            },
                        }
                        for rule in rules
                    ],
                },
            },
            "results": [_result(f) for f in report.sorted_findings()],
            "properties": dict(report.meta),
        }],
    }


def write_sarif(report: CheckReport, path: "str | Path") -> Path:
    """Write the report as SARIF; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_sarif(report), indent=2) + "\n")
    return path
