"""Tests for the command-line interface."""

import argparse
import io

import pytest

from repro.cli import _build_parser, main
from repro.obs.chrome_trace import PID as PARENT_PID
from tests.conftest import needs_cc


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """Every ``repro`` subcommand name -> its parser."""
    action = next(a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


COMMANDS = _subcommands()
#: The reporting commands: those sharing the ``--format`` contract.
REPORTING = sorted(name for name, sub in COMMANDS.items()
                   if "--format" in sub._option_string_actions)


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


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["characterize", "explain"])
    @pytest.mark.parametrize("args", [[], ["1", "2"]], ids=["none", "two"])
    def test_missing_dims_exit_2_with_usage(self, command, args, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([command, *args])
        assert excinfo.value.code == 2
        assert f"usage: repro {command} " in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_exits_0_with_usage(self, command, capsys):
        # Rendering the help is where a malformed metavar (a tuple on an
        # nargs=4 positional) crashes instead of printing.
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--help"])
        assert excinfo.value.code == 0
        assert f"usage: {COMMANDS[command].prog} " in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unknown_flag_exits_2_with_usage(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--no-such-flag"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err and "error:" in err

    @pytest.mark.parametrize("command", REPORTING)
    def test_unknown_format_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--format", "xml"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: {COMMANDS[command].prog} " in err
        assert "invalid choice: 'xml'" in err

    def test_reporting_commands_share_the_format_contract(self):
        assert set(REPORTING) == {"check", "chaos", "train", "shm",
                                  "workers"}

    @pytest.mark.parametrize("argv", [
        "explain 8 4 3 3 --cores 0",
        "explain 8 4 3 3 --batch 0",
        "explain 8 4 3 3 --sparsity 2",
        "characterize 4 8 3 9",
        "explain 4 8 3 9",
        "characterize 0 4 3 3",
        "characterize 8 4 3 3 --stride 0",
        "characterize 8 4 3 3 --sparsity 1.5",
        "characterize 8 4 3 3 --sparsity -0.1",
        "characterize 8 4 3 3 --sparsity nan",
        "plan {tmp}/net.txt --cores 0",
        "plan {tmp}/net.txt --batch 0",
        "plan {tmp}/net.txt --sparsity 1.5",
        "train --batch 0",
        "train --epochs 0",
        "train --samples 0",
        "train --scale 0",
        "train --scale nan",
        "train --recheck 0",
        "train --recheck -1",
        "train --critical-path",
        "train --threads -3",
        "train --threads 0",
        "chaos --threads 0",
        "chaos --epochs 0",
        "chaos --batch 0",
        "chaos --samples 0",
        "train --every -1",
        "workers --workers 0",
        "workers --workers -1",
        "plan {tmp}/missing.txt",
        "plan {tmp}",
        "plan {tmp}/arity.txt",
        "plan {tmp}/type.txt",
        "check --only nosuch",
    ])
    def test_out_of_range_input_exits_2_in_one_line(self, argv, tmp_path,
                                                     capsys):
        # Usage errors, not crashes: exit 2 and one ``error:`` line, where
        # a traceback and exit 1 would claim a gate failed.
        (tmp_path / "net.txt").write_text(
            "input: 1 8 8\nlayer { type: conv features: 2 kernel: 3 }\n")
        (tmp_path / "arity.txt").write_text("input: 1 8\n")
        (tmp_path / "type.txt").write_text(
            "input: 1 8 8\nlayer { type: warp }\n")
        with pytest.raises(SystemExit) as excinfo:
            run(argv.format(tmp=tmp_path).split())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("repro") and "error:" in err[-1]
        assert not any("Traceback" in line for line in err)

    def test_retired_ps_plan_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["chaos", "--plan", "ps"])
        assert excinfo.value.code == 2


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
        names = text.split()
        for engine in ("parallel-gemm", "gemm-in-parallel", "stencil",
                       "sparse", "reference"):
            assert engine in names
        assert "fft" not in names

    def test_help_lists_no_bench(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--help"])
        assert excinfo.value.code == 0
        assert "bench" not in capsys.readouterr().out


def _chrome(path):
    """The trace-event list of a Chrome trace file."""
    import json

    trace = json.loads(path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    return trace["traceEvents"]


class TestTrainTrace:
    """``train --format chrome``: the run report on stdout, the run's
    Chrome trace-event timeline in ``--out``."""

    ARGS = ["--net", "mnist", "--epochs", "1", "--samples", "8",
            "--batch", "4", "--scale", "0.2", "--threads", "1"]

    def test_cifar_trace_writes_every_span_gauge_and_event(self, tmp_path):
        out = tmp_path / "trace.json"
        code, text = run([
            "train", "--net", "cifar", "--epochs", "2", "--samples", "16",
            "--batch", "8", "--scale", "0.25", "--threads", "2",
            "--format", "chrome", "--out", str(out),
        ])
        assert code == 0
        assert "run report: cifar-10" in text
        assert f"wrote {out}" in text
        events = _chrome(out)
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        # Per-layer FP and BP spans from the conv layers.
        assert any(n.endswith("/fp") and n.startswith("conv") for n in names)
        assert any(n.endswith("/bp") and n.startswith("conv") for n in names)
        # Per-worker task spans from the threaded runtime.
        task_workers = {e["args"]["worker"] for e in spans
                        if e["name"] == "pool/task"}
        assert task_workers == {0, 1}
        # Goodput gauges (Eqs. 9-10) as counter tracks.
        assert any(e["ph"] == "C" and e["name"].startswith("goodput.")
                   for e in events)
        # Engines are deployed by host measurement: FP is measured once
        # in optimize, BP after the first step (at its error sparsity)
        # and at each recheck, and whether anything was retuned is this
        # host's business.  On one core the two GEMM names share a price.
        (optimize,) = [e for e in spans if e["name"] == "spg/optimize"]
        replans = [e for e in spans if e["name"] == "spg/replan"]
        assert len(replans) == 3           # first plan + --recheck 1 x 2
        assert replans[0]["args"]["batch"] == 0
        assert optimize["args"]["measured"] == 4          # 2 convs x 2 FP
        assert replans[0]["args"]["measured"] == 4        # 2 convs x 2 BP
        retunes = [e for e in events
                   if e["ph"] == "i" and e["name"] == "retune"]
        assert f"retunes: {len(retunes)}" in text
        for event in retunes:
            assert event["args"]["new_engine"] != event["args"]["old_engine"]

    def test_cores_flag_is_gone(self):
        # Nothing reads a core count once the Xeon model left this path.
        with pytest.raises(SystemExit) as excinfo:
            run(["train", "--cores", "4"])
        assert excinfo.value.code == 2

    def test_trace_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["trace", *self.ARGS])
        assert excinfo.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_mnist_trace_single_threaded(self, tmp_path):
        out = tmp_path / "trace.json"
        code, text = run(["train", *self.ARGS, "--format", "chrome",
                          "--out", str(out)])
        assert code == 0
        assert "batches: 2" in text
        names = {e["name"] for e in _chrome(out) if e["ph"] == "X"}
        assert names >= {"train/epoch", "sgd/fp"}

    def test_chrome_format_writes_trace_event_json(self, tmp_path):
        out = tmp_path / "chrome.json"
        code, text = run(["train", *self.ARGS, "--format", "chrome",
                          "--out", str(out)])
        assert code == 0
        # Stdout is the table output; the file is the timeline.
        assert "run report: mnist" in text and "tuning: " in text
        events = _chrome(out)
        assert events
        for event in events:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event
        assert {e["ph"] for e in events} >= {"X", "C", "M"}

    def test_process_trace_has_worker_tracks_and_flows(self, tmp_path):
        out = tmp_path / "process.json"
        code, _ = run([
            "train", "--net", "cifar", "--epochs", "1", "--samples", "16",
            "--batch", "8", "--threads", "3", "--backend", "process",
            "--format", "chrome", "--out", str(out),
        ])
        assert code == 0
        events = _chrome(out)
        # The parent runs shard 0 of every step itself, unshipped.
        parent = [e["name"] for e in events if e["ph"] == "X"
                  and e["pid"] == PARENT_PID]
        assert parent.count("worker/step_shard") == parent.count(
            "step/dispatch") > 0
        tracks = {e["pid"]: e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "process_name"}
        workers = {pid: name for pid, name in tracks.items()
                   if name.startswith("worker-")}
        # One pid track per helper process, beside the parent's.
        assert sorted(name.split(" ")[0] for name in workers.values()) \
            == ["worker-0", "worker-1"]
        assert all(f"(pid {pid})" in name for pid, name in workers.items())
        # Dispatch -> execution -> collection, one chain per job.
        flows = [e for e in events if e.get("cat") == "flow"]
        assert flows
        by_job: dict = {}
        for e in flows:
            by_job.setdefault(e["id"], {})[e["ph"]] = e
        for chain in by_job.values():
            assert set(chain) == {"s", "t", "f"}
            assert chain["s"]["pid"] not in workers
            assert chain["t"]["pid"] in workers
            assert chain["f"]["pid"] not in workers

    def test_dag_trace_has_node_spans(self, tmp_path):
        out = tmp_path / "dag.json"
        code, _ = run([
            "train", "--net", "mnist", "--epochs", "1", "--samples", "8",
            "--batch", "4", "--scale", "0.2", "--threads", "2",
            "--scheduler", "dag", "--format", "chrome", "--out", str(out),
        ])
        assert code == 0
        nodes = [e for e in _chrome(out)
                 if e["ph"] == "X" and e["name"] == "dag/node"]
        assert nodes and all("node" in e["args"] for e in nodes)


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
        # The goodput counters (total vs useful flops, Eqs. 9-10).
        totals = file_report["totals"]
        assert 0 < totals["flops_useful"] < totals["flops_total"]

    @needs_cc
    def test_one_epoch_trains_on_sparse_bp(self, tmp_path):
        # BP is planned after the first step, so all but that step of a
        # one-epoch run run the sparse kernels this host measures faster.
        out = tmp_path / "trace.json"
        code, text = run(["train", "--net", "cifar", "--scale", "1.0",
                          "--batch", "8", "--samples", "64", "--epochs", "1",
                          "--format", "chrome", "--out", str(out)])
        assert code == 0
        events = _chrome(out)
        for conv in ("conv0", "conv3"):
            engines = [e["args"]["engine"] for e in events
                       if e["ph"] == "X" and e["name"] == f"{conv}/bp"]
            assert len(engines) == 8
            assert engines.count("sparse") >= 7, (conv, engines)
        switches = sorted((e["args"]["layer"], e["args"]["new_engine"])
                          for e in events
                          if e["ph"] == "i" and e["name"] == "retune")
        assert switches == [("conv0", "sparse"), ("conv3", "sparse")]
        assert "retunes: 2" in text

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
        # Every layer that ran is in the report; the plan rows are its
        # conv layers, in network order.
        assert [row["layer"] for row in report["plan"]] == [
            name for name in report["layers"] if name.startswith("conv")]
        assert "dense7" in report["layers"]
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
            assert (row["fp_lowering"] in ("c", "reference")) \
                == (row["fp_engine"] == "stencil")
            assert (row["bp_lowering"] in ("c", "reference")) \
                == (row["bp_engine"] == "sparse")
        totals = report["totals"]
        assert totals["tuning_seconds"] > 0
        assert totals["tuning_measured"] >= 8           # 2 convs x (2 + 2)
        assert totals["tuning_memo_hits"] >= 0
        assert totals["retunes"] == len(report["retunes"])

    def test_without_a_compiler_the_plan_says_why(self, monkeypatch):
        """The generated engines are timed on the reference like any
        candidate, and every plan row names why they ran there.  (Which
        one deploys is the measurement's: the reference ties GEMM within
        noise on some small convs' dW, so no engine is pinned here.)"""
        import json

        from repro import native

        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native._resolved.cache_clear()
        try:
            code, text = run(["train", "--net", "cifar", "--scale", "0.25",
                              "--epochs", "1", "--format", "json"])
        finally:
            native._resolved.cache_clear()
        assert code == 0
        report = json.loads(text.splitlines()[0])
        generated = {"fp": "stencil", "bp": "sparse"}
        for row in report["plan"]:
            assert set(row["lowering_reasons"]) == {"stencil", "sparse"}
            assert all("no C compiler" in why
                       for why in row["lowering_reasons"].values())
            for phase, engine in generated.items():
                deployed = row[f"{phase}_engine"] == engine
                assert row[f"{phase}_lowering"] == \
                    ("reference" if deployed else "")
                assert not row["fused"]

    def test_json_report_keys(self):
        # Scripts read these keys (the host book's cifar_spg workload
        # reads epochs[*].train_loss / skipped_batches and retunes).
        import json

        code, text = run(["train", *self.ARGS, "--format", "json"])
        assert code == 0
        report = json.loads(text.splitlines()[0])
        assert set(report) == {"epochs", "layers", "retunes", "resilience",
                               "totals", "plan"}
        (epoch,) = report["epochs"]
        assert {"epoch", "train_loss", "skipped_batches"} <= set(epoch)

    def test_table_output_has_the_tuning_line(self):
        code, text = run(["train", *self.ARGS])
        assert code == 0
        assert "tuning: " in text and "candidates measured" in text

    def test_monitor_alias_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["monitor", *self.ARGS])
        assert excinfo.value.code == 2

    def test_live_table_every_batch(self):
        code, text = run(["train", *self.ARGS, "--every", "1"])
        assert code == 0
        assert "[monitor] epoch 1 batch 1" in text


class TestCheckOutput:
    def test_out_writes_findings_json(self, tmp_path):
        out = tmp_path / "check.json"
        code, text = run(["check", "--only", "graph",
                          "--out", str(out)])
        assert code == 0
        import json

        assert "findings" in json.loads(out.read_text())

    def test_json_format_prints_report(self):
        code, text = run(["check", "--only", "graph",
                          "--format", "json"])
        assert code == 0
        import json

        payload = json.loads(text.splitlines()[0])
        assert payload["meta"]["ok"] is True


class TestShmCommand:
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

    def test_list_without_segments(self):
        code, text = run(["shm", "list"])
        assert code == 0
        assert "no segments" in text

    def test_list_live_segment_exits_zero(self):
        import os

        import numpy as np

        from repro.runtime.shm import SharedArray

        seg = SharedArray.create((2,), np.float32)
        try:
            code, text = run(["shm", "list"])
            assert code == 0
            row = next(line for line in text.splitlines()
                       if seg.name in line)
            assert str(os.getpid()) in row and "yes" in row
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
        assert name not in shm.host_segments()
        payload = json.loads(out_path.read_text())
        assert payload["reaped"] == [name]

    def test_json_format(self):
        import json

        code, text = run(["shm", "list", "--format", "json"])
        assert code == 0
        payload = json.loads(text.splitlines()[0])
        assert payload["action"] == "list"
        assert payload["segments"] == []


class TestWorkersCommand:
    def test_table_reports_ok(self):
        code, text = run(["workers", "--workers", "1"])
        assert code == 0
        assert "process-backend workers" in text
        assert "supervisor: deadline 5.0s, respawns 0" in text
        assert "workers: OK" in text

    def test_json_payload(self, tmp_path):
        import json

        out_path = tmp_path / "workers.json"
        code, text = run(["workers", "--workers", "2", "--format", "json",
                          "--out", str(out_path)])
        assert code == 0
        payload = json.loads(text.splitlines()[0])
        assert payload["ok"] is True
        workers = payload["state"]["workers"]
        assert len(workers) == 2
        # Every job answered: nobody owes work, so nobody is timed.
        assert all(w["outstanding"] == 0 and w["silent"] is None
                   and not w["booting"] for w in workers)
        assert "supervisor_alive" not in payload["state"]
        assert len(payload["diagnostics"]) == 2
        assert all("engines_cached" in d for d in payload["diagnostics"])
        assert json.loads(out_path.read_text())["ok"] is True

    def test_json_reports_the_measured_deadline(self):
        # The diagnostics broadcast is the pool's first completed work:
        # short tasks, so the floor is the deadline.
        import json

        from repro.runtime.backends import DEADLINE_FLOOR

        code, text = run(["workers", "--workers", "2", "--format", "json"])
        assert code == 0
        assert json.loads(text)["state"]["task_deadline"] == DEADLINE_FLOOR
