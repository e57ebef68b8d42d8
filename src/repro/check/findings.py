"""Structured findings produced by the static analyzers.

Every analyzer in :mod:`repro.check` reports :class:`Finding` records --
never free-form prints -- so results can be rendered as an ASCII table,
exported as JSON (following the :mod:`repro.telemetry.export`
conventions) and gated on in CI.  A :class:`CheckReport` aggregates the
findings of one ``run_all`` invocation together with coverage metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.reporting import format_table
from repro.errors import CheckError

#: Severity levels, most severe first.  ``error`` findings gate CI
#: (non-zero exit); ``warning`` and ``info`` are advisory.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One verification result from a static analyzer."""

    severity: str
    analyzer: str
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise CheckError(
                f"finding severity must be one of {SEVERITIES}, got "
                f"{self.severity!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation."""
        return {
            "severity": self.severity,
            "analyzer": self.analyzer,
            "location": self.location,
            "message": self.message,
        }


@dataclass
class CheckReport:
    """Aggregated findings of one verification run."""

    findings: list[Finding] = field(default_factory=list)
    #: Coverage metadata: what was checked (specs, kernels, files, ...).
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def errors(self) -> list[Finding]:
        """Findings that gate the exit code."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        """Advisory findings."""
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was reported."""
        return not self.errors

    def extend(self, findings: list[Finding]) -> None:
        """Append another analyzer's findings."""
        self.findings.extend(findings)

    def raise_if_errors(self, context: str = "") -> None:
        """Raise :class:`CheckError` summarizing any error findings."""
        errors = self.errors
        if not errors:
            return
        prefix = f"{context}: " if context else ""
        lines = [
            f"{prefix}static verification found {len(errors)} error(s):"
        ]
        lines += [
            f"  [{f.analyzer}] {f.location}: {f.message}" for f in errors
        ]
        raise CheckError("\n".join(lines))

    # -- rendering --------------------------------------------------------

    def sorted_findings(self) -> list[Finding]:
        """Findings ordered most severe first, then by analyzer/location."""
        rank = {severity: i for i, severity in enumerate(SEVERITIES)}
        return sorted(
            self.findings,
            key=lambda f: (rank[f.severity], f.analyzer, f.location),
        )

    def table(self, title: str = "repro check findings") -> str:
        """ASCII table of every finding, most severe first."""
        rows = [
            [f.severity, f.analyzer, f.location, f.message]
            for f in self.sorted_findings()
        ]
        return format_table(
            ["severity", "analyzer", "location", "message"], rows, title=title
        )

    def summary(self) -> str:
        """One-line outcome summary for the CLI."""
        counts = ", ".join(
            f"{len([f for f in self.findings if f.severity == s])} {s}(s)"
            for s in SEVERITIES
        )
        return f"repro check: {counts}; {self._coverage_note()}"

    def _coverage_note(self) -> str:
        parts = [f"{key}={value}" for key, value in sorted(self.meta.items())]
        return " ".join(parts) if parts else "no coverage metadata"

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot (same conventions as telemetry traces)."""
        return {
            "findings": [f.to_dict() for f in self.sorted_findings()],
            "meta": {
                **self.meta,
                "num_findings": len(self.findings),
                "num_errors": len(self.errors),
                "num_warnings": len(self.warnings),
                "ok": self.ok,
            },
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the report as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path
