"""Tests for the chaos harness and ``python -m repro chaos``."""

import io

import pytest

from repro.cli import main
from repro.resilience.chaos import ChaosReport, run_chaos


class TestRunChaos:
    def test_smoke_plan_survives_and_resumes(self):
        # The acceptance scenario: seeded worker crashes and one NaN
        # batch over 3 epochs; the run completes, the loss
        # still improves, the faults are visible in telemetry, and a
        # kill-at-epoch-2 run resumes bit-identically.
        report = run_chaos(plan_name="smoke", seed=0, epochs=3,
                           check_resume=True)
        assert report.survived
        assert report.improved
        assert report.counters["pool.retries"] >= 2
        assert report.counters["sgd.skipped_batches"] == 1
        assert report.skipped_batches == 1
        assert report.counters["faults.injected"] == 3
        assert len(report.injections) == 3
        assert report.resume_checked and report.resume_identical
        assert report.ok

    def test_smoke_plan_under_dag_counts_its_retries(self):
        # The DAG's node loop retries the two ``pool.task`` raises
        # itself; the report counts them as the barrier's pool does.
        report = run_chaos(plan_name="smoke", seed=0, epochs=3,
                           scheduler="dag")
        assert report.ok
        assert report.counters["dag.retries"] >= 2
        assert report.monitor_report["resilience"]["dag.retries"] >= 2
        assert report.counters["faults.injected"] == 3

    def test_none_plan_fires_nothing(self):
        report = run_chaos(plan_name="none", seed=0, epochs=2,
                           samples=16, threads=1)
        assert report.survived and report.injections == []
        assert "faults.injected" not in report.counters

    def test_unknown_plan_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown fault plan"):
            run_chaos(plan_name="nope")


class TestChaosReport:
    def test_ok_requires_survival_and_improvement(self):
        base = dict(plan="t", seed=0, epochs=3, final_loss=0.1,
                    skipped_batches=0)
        assert ChaosReport(survived=True, improved=True, **base).ok
        assert not ChaosReport(survived=False, improved=True, **base).ok
        assert not ChaosReport(survived=True, improved=False, **base).ok

    def test_ok_requires_resume_identity_when_checked(self):
        base = dict(plan="t", seed=0, epochs=3, final_loss=0.1,
                    skipped_batches=0, survived=True, improved=True)
        failed = ChaosReport(resume_checked=True, resume_identical=False,
                             **base)
        assert not failed.ok
        held = ChaosReport(resume_checked=True, resume_identical=True,
                           **base)
        assert held.ok

    def test_lines_mention_the_verdicts(self):
        report = ChaosReport(plan="smoke", seed=0, epochs=3, survived=True,
                             improved=True, final_loss=0.5,
                             skipped_batches=1,
                             injections=["pool.task raise @ invocation 3"],
                             counters={"pool.retries": 2.0},
                             resume_checked=True, resume_identical=True)
        text = "\n".join(report.lines())
        assert "survived:  True" in text
        assert "pool.retries: 2" in text
        assert "pool.task raise @ invocation 3" in text
        assert "bit-identical: True" in text


class TestChaosCommand:
    def test_cli_exit_zero_on_survival(self):
        out = io.StringIO()
        code = main(["chaos", "--plan", "none", "--seed", "0",
                     "--epochs", "2", "--samples", "16", "--threads", "1",
                     "--no-resume-check"], out=out)
        assert code == 0
        assert "chaos: OK" in out.getvalue()

    def test_cli_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--plan", "bogus"], out=io.StringIO())

    def test_cli_json_report_carries_monitor(self, tmp_path):
        import json

        out_path = tmp_path / "chaos.json"
        out = io.StringIO()
        code = main(["chaos", "--plan", "none", "--seed", "0",
                     "--epochs", "2", "--samples", "16", "--threads", "1",
                     "--no-resume-check", "--format", "json",
                     "--out", str(out_path)], out=out)
        assert code == 0
        stdout_payload = json.loads(out.getvalue().splitlines()[0])
        file_payload = json.loads(out_path.read_text())
        for payload in (stdout_payload, file_payload):
            assert payload["ok"] is True
            monitor = payload["monitor"]
            assert monitor["totals"]["epochs"] == 2
            assert monitor["layers"]  # per-layer stats rode along
