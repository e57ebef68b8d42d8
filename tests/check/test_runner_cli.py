"""End-to-end tests for run_all and the ``repro check`` CLI.

Covers the two acceptance gates: a clean tree yields zero errors and
exit code 0; a seeded codegen fault (a pointer-shifted tap offset that
leaves the image) flips the exit code to 1.
"""

import dataclasses
import io
import json

import pytest

import repro
from repro.check import run_all
from repro.check.runner import (
    ANALYZER_ALIASES,
    ANALYZERS,
    default_networks,
    default_specs,
)
from repro.cli import main
from repro.core.convspec import ConvSpec
from repro.errors import CheckError
from repro.stencil import emit_c

TINY = ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3, name="tiny")


class TestRunAll:
    def test_clean_tree_has_zero_errors(self):
        report = run_all()
        assert report.ok, [f.message for f in report.errors]
        assert report.meta["specs"] > 0
        # The sparse pair per spec, plus stencil FP, fused and epilogue
        # units.
        assert report.meta["native_units"] >= report.meta["specs"]
        assert report.meta["networks"] == 4
        assert report.meta["files_linted"] > 50

    def test_analyzer_subset_runs_only_that_analyzer(self):
        report = run_all(analyzers=("graph",), specs=[], networks=None)
        assert set(f.analyzer for f in report.findings) <= {"graph"}
        assert "native_units" not in report.meta
        assert report.meta["networks"] == 4

    def test_unknown_analyzer_raises(self):
        with pytest.raises(CheckError, match="unknown analyzer"):
            run_all(analyzers=("gen-source", "spellcheck"))

    def test_explicit_specs_are_used(self):
        report = run_all(analyzers=("gen-source",), specs=[TINY])
        assert report.ok
        assert report.meta["specs"] == 1
        # TINY's 6x6 output admits a 2x2 pool: sparse, stencil FP, fused,
        # GEMM epilogue.
        assert report.meta["native_units"] == 4

    def test_default_specs_are_deduplicated_and_engine_facing(self):
        specs = default_specs(default_networks())
        assert len(set(specs)) == len(specs)
        assert all(spec.pad == 0 for spec in specs)

    def test_run_all_is_importable_from_package_root(self):
        assert repro.CheckReport is type(run_all(analyzers=("graph",),
                                                 networks=[]))

    def test_analyzers_registry_matches_cli_choices(self):
        assert ANALYZERS == ("gen-source", "graph", "effects",
                             "concurrency", "lifecycle")

    def test_short_aliases_resolve_to_the_pass_correctness_gate(self):
        # CI runs ``repro check --only source``: the alias must keep
        # resolving to the gen-source verifier.
        assert ANALYZER_ALIASES == {"source": "gen-source"}
        report = run_all(analyzers=("source",), specs=[TINY])
        assert report.ok
        assert report.meta["native_units"] == 4
        assert "files_linted" not in report.meta


class TestCheckCli:
    def test_clean_tree_exits_zero(self, tmp_path):
        out = io.StringIO()
        json_path = tmp_path / "check.json"
        code = main(["check", "--quiet", "--out", str(json_path)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "repro check:" in text and "0 error(s)" in text
        payload = json.loads(json_path.read_text())
        assert payload["meta"]["ok"] is True
        assert payload["meta"]["num_errors"] == 0

    def test_only_flag_limits_the_run(self):
        out = io.StringIO()
        code = main(["check", "--quiet", "--only", "concurrency"], out=out)
        assert code == 0
        assert "files_linted" in out.getvalue()
        assert "specs" not in out.getvalue()

    def test_only_flag_takes_a_comma_separated_list(self):
        out = io.StringIO()
        code = main(["check", "--quiet", "--only", "lifecycle,concurrency"],
                    out=out)
        assert code == 0
        text = out.getvalue()
        assert "lifecycle_files" in text and "files_linted" in text
        assert "specs" not in text

    def test_only_flag_rejects_unknown_analyzer_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--only", "spellcheck"], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_sarif_format_writes_sarif_stdout_and_artifact(self, tmp_path):
        out = io.StringIO()
        sarif_path = tmp_path / "check.sarif"
        code = main(["check", "--only", "lifecycle", "--format", "sarif",
                     "--out", str(sarif_path)], out=out)
        assert code == 0
        log = json.loads(out.getvalue().splitlines()[0])
        assert log["version"] == "2.1.0"
        payload = json.loads(sarif_path.read_text())
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        assert run["properties"]["lifecycle_files"] == 3

    def test_seeded_codegen_fault_exits_nonzero(self, monkeypatch, tmp_path):
        # Acceptance gate: an off-by-one pointer shift in an emitted
        # kernel's tap table must flip the CLI to a non-zero exit.
        real = emit_c.emit_stencil_c_unit

        def faulty_printer(spec, pipeline):
            unit = real(spec, pipeline)
            (facts,) = unit.kernels
            table = facts.table_lines()[1]
            last = f"{facts.tap_off[-1]}}};"
            doctored = unit.source.replace(
                table, table.replace(last, f"{facts.tap_off[-1] + 1}}};"))
            assert doctored != unit.source, "fault was not seeded"
            return dataclasses.replace(unit, source=doctored)

        monkeypatch.setattr(emit_c, "emit_stencil_c_unit", faulty_printer)
        out = io.StringIO()
        json_path = tmp_path / "check.json"
        code = main(
            ["check", "--only", "gen-source", "--out", str(json_path)],
            out=out,
        )
        assert code == 1
        text = out.getvalue()
        assert "furthest access" in text  # the findings table names it
        payload = json.loads(json_path.read_text())
        assert payload["meta"]["ok"] is False
        assert payload["meta"]["num_errors"] > 0
