"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCharacterize:
    def test_basic(self):
        code, text = run(["characterize", "32", "32", "32", "4"])
        assert code == 0
        assert "intrinsic AIT:   362" in text
        assert "region:" in text

    def test_sparsity_flag_flips_region(self):
        _, dense = run(["characterize", "32", "32", "32", "4"])
        _, sparse = run(
            ["characterize", "32", "32", "32", "4", "--sparsity", "0.9"]
        )
        assert "dense" in dense and "sparse" in sparse

    def test_stride_flag(self):
        code, text = run(["characterize", "224", "96", "3", "11",
                          "--stride", "4"])
        assert code == 0
        assert "stride 4x4" in text


class TestPlan:
    def test_plans_netdef_file(self, tmp_path):
        netdef = tmp_path / "net.txt"
        netdef.write_text(
            'name: "t"\n'
            "input: 3 32 32\n"
            "layer { type: conv features: 64 kernel: 5 pad: 2 }\n"
            "layer { type: relu }\n"
            "layer { type: flatten }\n"
            "layer { type: dense features: 10 }\n"
        )
        code, text = run(["plan", str(netdef), "--sparsity", "0.9"])
        assert code == 0
        assert "FP engine" in text and "sparse" in text


class TestFigure:
    @pytest.mark.parametrize("name", ["table1", "table2", "fig3a", "fig4f"])
    def test_prints_exhibit(self, name):
        code, text = run(["figure", name])
        assert code == 0
        assert name in text
        assert len(text.splitlines()) > 3

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            run(["figure", "fig99"])


class TestExplain:
    def test_fp_breakdown(self):
        code, text = run(["explain", "32", "32", "32", "4"])
        assert code == 0
        assert "stencil" in text and "<- bound" in text

    def test_bp_breakdown_includes_sparse(self):
        code, text = run(["explain", "128", "128", "64", "7",
                          "--phase", "bp", "--sparsity", "0.9"])
        assert code == 0
        assert "sparse compute" in text


class TestReproduce:
    def test_writes_every_exhibit(self, tmp_path):
        out_dir = tmp_path / "results"
        code, text = run(["reproduce", "--out", str(out_dir)])
        assert code == 0
        written = {p.name for p in out_dir.glob("*.txt")}
        for name in ("table1", "table2", "fig3a", "fig4f", "fig9",
                     "calibration"):
            assert f"{name}.txt" in written
        assert "362" in (out_dir / "table1.txt").read_text()
        assert "ok" in (out_dir / "calibration.txt").read_text()


class TestEngines:
    def test_lists_all_engines(self):
        code, text = run(["engines"])
        assert code == 0
        for engine in ("parallel-gemm", "gemm-in-parallel", "stencil",
                       "sparse", "fft"):
            assert engine in text


class TestTrace:
    def test_cifar_trace_writes_full_json_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        code, text = run([
            "trace", "--net", "cifar", "--epochs", "2", "--samples", "16",
            "--batch", "8", "--scale", "0.25", "--threads", "2",
            "--out", str(out),
        ])
        assert code == 0
        assert "trace: cifar-10" in text
        assert f"wrote {out}" in text
        import json

        data = json.loads(out.read_text())
        names = {s["name"] for s in data["spans"]}
        # Per-layer FP and BP spans from the conv layers.
        assert any(n.endswith("/fp") and n.startswith("conv") for n in names)
        assert any(n.endswith("/bp") and n.startswith("conv") for n in names)
        # Per-worker task spans from the threaded runtime.
        task_workers = {
            s["attrs"]["worker"] for s in data["spans"]
            if s["name"] == "pool/task"
        }
        assert task_workers == {0, 1}
        # Goodput counters (total vs useful flops, Eqs. 9-10).
        assert data["counters"]["conv.flops.total"] > 0
        assert 0 < data["counters"]["conv.flops.useful"] < (
            data["counters"]["conv.flops.total"])
        assert any(k.startswith("goodput.") for k in data["gauges"])
        # Engines are deployed by host measurement: FP is measured once
        # in optimize, BP at the first recheck (a real error sparsity),
        # and whether anything was retuned is this host's business.
        assert data["counters"]["retune.checks"] == 2
        (optimize,) = [s for s in data["spans"] if s["name"] == "spg/optimize"]
        replans = [s for s in data["spans"] if s["name"] == "spg/replan"]
        assert optimize["attrs"]["measured"] == 6       # 2 convs x 3 FP
        assert replans[0]["attrs"]["measured"] >= 6     # 2 convs x 3 BP
        retunes = [e for e in data["events"] if e["name"] == "retune"]
        assert len(retunes) == data["counters"]["retune.count"]
        for event in retunes:
            assert event["attrs"]["new_engine"] != event["attrs"]["old_engine"]

    def test_cores_flag_is_gone(self):
        # Nothing reads a core count once the Xeon model left this path.
        for command in ("trace", "train"):
            with pytest.raises(SystemExit) as excinfo:
                run([command, "--cores", "4"])
            assert excinfo.value.code == 2

    def test_mnist_trace_single_threaded(self, tmp_path):
        out = tmp_path / "trace.json"
        code, text = run([
            "trace", "--net", "mnist", "--epochs", "1", "--samples", "8",
            "--batch", "4", "--scale", "0.2", "--threads", "1",
            "--out", str(out),
        ])
        assert code == 0
        import json

        data = json.loads(out.read_text())
        assert data["counters"]["images.processed"] == 8
        assert {s["name"] for s in data["spans"]} >= {"train/epoch", "sgd/fp"}

    def test_chrome_format_writes_trace_event_json(self, tmp_path):
        out = tmp_path / "chrome.json"
        code, text = run([
            "trace", "--net", "mnist", "--epochs", "1", "--samples", "8",
            "--batch", "4", "--scale", "0.2", "--threads", "1",
            "--format", "chrome", "--out", str(out),
        ])
        assert code == 0
        import json

        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events
        for event in events:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event
        assert {e["ph"] for e in events} >= {"X", "C", "M"}

    def test_json_format_prints_collector_dict(self):
        code, text = run([
            "trace", "--net", "mnist", "--epochs", "1", "--samples", "8",
            "--batch", "4", "--scale", "0.2", "--threads", "1",
            "--format", "json", "--out", "/dev/null",
        ])
        assert code == 0
        import json

        payload = json.loads(text.splitlines()[0])
        assert "histograms" in payload and "gauge_series" in payload


class TestTrain:
    ARGS = ["--net", "mnist", "--epochs", "1", "--samples", "8",
            "--batch", "4", "--scale", "0.2", "--threads", "1"]

    def test_table_output_and_markdown_report(self, tmp_path):
        out = tmp_path / "report.md"
        code, text = run(["train", *self.ARGS, "--out", str(out)])
        assert code == 0
        assert "run report: mnist" in text
        assert "epochs: 1" in text
        report = out.read_text()
        assert "# Training run report" in report
        assert "## Per-layer performance" in report

    def test_json_format_and_report(self, tmp_path):
        out = tmp_path / "report.json"
        code, text = run(["train", *self.ARGS, "--format", "json",
                          "--out", str(out)])
        assert code == 0
        import json

        stdout_report = json.loads(text.splitlines()[0])
        file_report = json.loads(out.read_text())
        assert stdout_report["totals"]["epochs"] == 1
        assert file_report["layers"]
        assert set(file_report["resilience"])  # counters reported

    def test_deployed_engines_are_the_measured_argmin(self):
        # The paper's Sec. 4.4 procedure on this host: whatever ends up
        # deployed is the fastest candidate of its plan's own recorded
        # timings, up to the 10% a challenger must win by.
        from repro.core.autotuner import MeasuredCostBackend

        code, text = run(["train", "--net", "cifar", "--scale", "0.25",
                          "--epochs", "3", "--format", "json"])
        assert code == 0
        import json

        report = json.loads(text.splitlines()[0])
        assert [row["layer"] for row in report["plan"]] == list(
            report["layers"])
        keep = 1.0 - MeasuredCostBackend.hysteresis
        for row in report["plan"]:
            for phase, candidates in (("fp", 3), ("bp", 3)):
                timings = row[f"{phase}_timings"]
                deployed = row[f"{phase}_engine"]
                assert len(timings) == candidates
                assert timings[deployed] * keep <= min(timings.values())
            # FP is planned once, before the first step, and ran as such.
            assert report["layers"][row["layer"]]["fp_engine"] \
                == row["fp_engine"]
            # The plan says what the deployed kernels were lowered to.
            assert (row["fp_lowering"] in ("c", "python")) \
                == (row["fp_engine"] == "stencil")
            assert (row["bp_lowering"] in ("c", "python")) \
                == (row["bp_engine"] == "sparse")
        totals = report["totals"]
        assert totals["tuning_seconds"] > 0
        assert totals["tuning_measured"] >= 12          # 2 convs x (3 + 3)
        assert totals["tuning_memo_hits"] >= 0
        assert totals["retunes"] == len(report["retunes"])

    def test_table_output_has_the_tuning_line(self):
        code, text = run(["train", *self.ARGS])
        assert code == 0
        assert "tuning: " in text and "candidates measured" in text

    def test_monitor_alias(self):
        code, text = run(["monitor", *self.ARGS])
        assert code == 0
        assert "run report" in text

    def test_live_table_every_batch(self):
        code, text = run(["train", *self.ARGS, "--every", "1"])
        assert code == 0
        assert "[monitor] epoch 1 batch 1" in text


class TestBench:
    ARGS = ["bench", "--filter", "gemm_blocked", "--repeats", "1"]

    def _run(self, tmp_path, *extra):
        return run([*self.ARGS, "--out", str(tmp_path / "bench"),
                    "--baseline", str(tmp_path / "baseline.json"), *extra])

    def test_no_baseline_skips_comparison(self, tmp_path):
        code, text = self._run(tmp_path)
        assert code == 0
        assert "comparison skipped" in text
        assert "bench: OK" in text
        import json

        payload = json.loads(
            (tmp_path / "bench" / "BENCH_gemm_blocked.json").read_text())
        assert payload["schema_version"] == 1

    def test_update_then_compare_clean(self, tmp_path):
        # Record the baseline artificially slow so the comparison run is
        # deterministically inside the noise band on any machine.
        code, text = self._run(tmp_path, "--update-baseline",
                               "--slowdown", "gemm_blocked=20")
        assert code == 0
        assert "recorded baseline" in text
        code, text = self._run(tmp_path)
        assert code == 0
        assert "bench: OK" in text

    def test_injected_slowdown_trips_the_gate(self, tmp_path):
        assert self._run(tmp_path, "--update-baseline")[0] == 0
        code, text = self._run(tmp_path, "--slowdown", "gemm_blocked=100")
        assert code == 1
        assert "bench: REGRESSED (gemm_blocked)" in text

    def test_soft_reports_but_exits_zero(self, tmp_path):
        assert self._run(tmp_path, "--update-baseline")[0] == 0
        code, text = self._run(tmp_path, "--slowdown", "gemm_blocked=100",
                               "--soft")
        assert code == 0
        assert "REGRESSED" in text

    def test_json_format(self, tmp_path):
        assert self._run(tmp_path, "--update-baseline",
                         "--slowdown", "gemm_blocked=20")[0] == 0
        code, text = self._run(tmp_path, "--format", "json")
        assert code == 0
        import json

        payload = json.loads(text.splitlines()[0])
        assert payload["results"][0]["name"] == "gemm_blocked"
        assert payload["comparison"]["ok"] is True

    def test_bad_slowdown_spec_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            self._run(tmp_path, "--slowdown", "gemm_blocked")

    def test_unknown_filter_rejected(self):
        with pytest.raises(SystemExit):
            run(["bench", "--filter", "bogus"])


class TestBenchBackend:
    def _run(self, tmp_path, *extra):
        return run(["bench", "--repeats", "1",
                    "--out", str(tmp_path / "bench"),
                    "--baseline", str(tmp_path / "baseline.json"), *extra])

    def test_backend_recorded_in_artifacts(self, tmp_path):
        code, _ = self._run(tmp_path, "--filter", "pool_map",
                            "--backend", "serial")
        assert code == 0
        import json

        payload = json.loads(
            (tmp_path / "bench" / "BENCH_pool_map.json").read_text())
        assert payload["backend"] == "serial"
        assert payload["cpu_count"] >= 1

    def test_backend_free_benchmarks_compare_across_backends(self, tmp_path):
        # gemm_blocked does not touch the pool: a baseline recorded under
        # one backend must still gate a run under another.
        assert self._run(tmp_path, "--filter", "gemm_blocked",
                         "--backend", "serial", "--update-baseline",
                         "--slowdown", "gemm_blocked=20")[0] == 0
        code, text = self._run(tmp_path, "--filter", "gemm_blocked",
                               "--backend", "thread")
        assert code == 0
        assert "bench: OK" in text
        assert "new" not in text

    def test_backend_mismatch_counts_as_new_not_regression(self, tmp_path):
        assert self._run(tmp_path, "--filter", "pool_map",
                         "--backend", "serial", "--update-baseline")[0] == 0
        code, text = self._run(tmp_path, "--filter", "pool_map",
                               "--backend", "thread",
                               "--slowdown", "pool_map=100")
        assert code == 0
        assert "new" in text
        assert "REGRESSED" not in text

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            run(["bench", "--backend", "fibers"])


class TestCheckOutput:
    def test_out_writes_findings_json(self, tmp_path):
        out = tmp_path / "check.json"
        code, text = run(["check", "--analyzer", "graph",
                          "--out", str(out)])
        assert code == 0
        import json

        assert "findings" in json.loads(out.read_text())

    def test_json_alias_still_works(self, tmp_path):
        out = tmp_path / "check.json"
        code, _ = run(["check", "--analyzer", "graph", "--json", str(out)])
        assert code == 0
        assert out.exists()

    def test_json_format_prints_report(self):
        code, text = run(["check", "--analyzer", "graph",
                          "--format", "json"])
        assert code == 0
        import json

        payload = json.loads(text.splitlines()[0])
        assert payload["meta"]["ok"] is True


class TestShmCommand:
    @pytest.fixture(autouse=True)
    def _isolated_manifest(self, tmp_path, monkeypatch):
        from repro.runtime import shm

        monkeypatch.setenv(shm.MANIFEST_ENV, str(tmp_path / "manifest"))

    @staticmethod
    def _orphan_segment():
        """A /dev/shm segment whose name pins a pid that has exited."""
        import subprocess
        import sys
        from multiprocessing import resource_tracker, shared_memory

        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(probe.stdout)
        name = f"repro-shm-{dead_pid:x}-cliorphan"
        seg = shared_memory.SharedMemory(name=name, create=True, size=32)
        # This process is only staging the orphan; keep the resource
        # tracker out of it so the reap-under-test does the unlink.
        resource_tracker.unregister(seg._name, "shared_memory")
        seg.close()
        return name

    def test_list_empty_manifest(self):
        code, text = run(["shm", "list"])
        assert code == 0
        assert "no segments" in text

    def test_list_live_segment_exits_zero(self):
        import numpy as np

        from repro.runtime.shm import SharedArray

        seg = SharedArray.create((2,), np.float32, role="demo")
        try:
            code, text = run(["shm", "list"])
            assert code == 0
            assert seg.name in text
            assert "demo" in text
        finally:
            seg.unlink()

    def test_list_flags_orphan_with_exit_one(self):
        from repro.runtime import shm

        name = self._orphan_segment()
        try:
            code, text = run(["shm", "list"])
            assert code == 1
            assert name in text and "YES" in text
        finally:
            shm.reap_orphans()

    def test_reap_reclaims_orphan_and_writes_artifact(self, tmp_path):
        import json

        from repro.runtime import shm

        name = self._orphan_segment()
        out_path = tmp_path / "shm.json"
        code, text = run(["shm", "reap", "--out", str(out_path)])
        assert code == 0
        assert "reaped 1 orphaned segment" in text
        assert not shm._segment_exists(name)
        payload = json.loads(out_path.read_text())
        assert payload["reaped"] == [name]

    def test_json_format(self):
        import json

        code, text = run(["shm", "list", "--format", "json"])
        assert code == 0
        payload = json.loads(text.splitlines()[0])
        assert payload["action"] == "list"
        assert payload["entries"] == []


class TestWorkersCommand:
    @pytest.fixture(autouse=True)
    def _isolated_manifest(self, tmp_path, monkeypatch):
        from repro.runtime import shm

        monkeypatch.setenv(shm.MANIFEST_ENV, str(tmp_path / "manifest"))

    def test_table_reports_ok(self):
        code, text = run(["workers", "--workers", "1"])
        assert code == 0
        assert "process-backend workers" in text
        assert "supervisor: alive" in text
        assert "workers: OK" in text

    def test_json_payload(self, tmp_path):
        import json

        out_path = tmp_path / "workers.json"
        code, text = run(["workers", "--workers", "2", "--format", "json",
                          "--out", str(out_path)])
        assert code == 0
        payload = json.loads(text.splitlines()[0])
        assert payload["ok"] is True
        assert len(payload["state"]["workers"]) == 2
        assert len(payload["diagnostics"]) == 2
        assert all("engines_cached" in d for d in payload["diagnostics"])
        assert json.loads(out_path.read_text())["ok"] is True
