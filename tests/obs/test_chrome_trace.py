"""Validity of the Chrome trace-event export."""

import json
import threading

import numpy as np

from repro import telemetry
from repro.obs import chrome_trace_dict, chrome_trace_events, write_chrome_trace
from repro.telemetry.collector import Span


def _sample_collector() -> telemetry.TelemetryCollector:
    tel = telemetry.TelemetryCollector()
    with tel.span("epoch", epoch=0):
        with tel.span("conv0/fp", layer="conv0", phase="fp", engine="gemm"):
            pass
        with tel.span("conv0/bp", layer="conv0", phase="bp",
                      sparsity=np.float32(0.75), images=np.int64(8)):
            pass
    tel.gauge("goodput.conv0", 120.0)
    tel.gauge("goodput.conv0", 140.0)
    tel.event("retune", layer="conv0", old_engine="gemm",
              new_engine="sparse")
    return tel


class TestEventValidity:
    def test_every_event_has_required_keys(self):
        for event in chrome_trace_events(_sample_collector()):
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event, f"{event['ph']!r} event missing {key}"

    def test_trace_round_trips_through_json(self):
        trace = chrome_trace_dict(_sample_collector())
        restored = json.loads(json.dumps(trace))
        assert restored["displayTimeUnit"] == "ms"
        assert len(restored["traceEvents"]) == len(trace["traceEvents"])

    def test_numpy_attrs_become_json_scalars(self):
        events = chrome_trace_events(_sample_collector())
        bp = next(e for e in events if e["name"] == "conv0/bp")
        assert isinstance(bp["args"]["sparsity"], float)
        assert isinstance(bp["args"]["images"], int)

    def test_timestamps_are_relative_microseconds(self):
        events = chrome_trace_events(_sample_collector())
        assert all(e["ts"] >= 0 for e in events)
        # The earliest record defines the origin, so some ts is ~0.
        spans = [e for e in events if e["ph"] == "X"]
        assert min(s["ts"] for s in spans) < 1.0
        assert all(s["dur"] >= 0 for s in spans)


class TestEventKinds:
    def test_spans_become_complete_events_with_phase_category(self):
        events = chrome_trace_events(_sample_collector())
        fp = next(e for e in events if e["name"] == "conv0/fp")
        assert fp["ph"] == "X"
        assert fp["cat"] == "fp"
        epoch = next(e for e in events if e["name"] == "epoch")
        assert epoch["cat"] == "span"  # no phase attr -> generic category

    def test_unfinished_spans_are_skipped(self):
        tel = _sample_collector()
        tel.spans.append(Span(name="leaked", span_id=999, thread_id=0,
                              start=0.0, end=None))
        names = [e["name"] for e in chrome_trace_events(tel)]
        assert "leaked" not in names

    def test_gauge_history_becomes_counter_events(self):
        events = chrome_trace_events(_sample_collector())
        counters = [e for e in events if e["ph"] == "C"]
        assert [c["args"]["value"] for c in counters] == [120.0, 140.0]
        assert all(c["name"] == "goodput.conv0" for c in counters)

    def test_point_events_become_global_instants(self):
        events = chrome_trace_events(_sample_collector())
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["name"] == "retune"
        assert instant["s"] == "g"
        assert instant["args"]["new_engine"] == "sparse"

    def test_thread_metadata_per_thread(self):
        tel = _sample_collector()

        def worker():
            with tel.span("worker-span"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        events = chrome_trace_events(tel)
        metadata = [e for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(metadata) == 2
        assert sorted(e["tid"] for e in metadata) == [1, 2]
        worker_span = next(e for e in events if e["name"] == "worker-span")
        main_span = next(e for e in events if e["name"] == "epoch")
        assert worker_span["tid"] != main_span["tid"]


def _process_collector() -> telemetry.TelemetryCollector:
    """A synthetic merged process-backend run: parent dispatch spans
    plus worker-process execution spans linked by job ids."""
    tel = telemetry.TelemetryCollector()
    tel.record_span("pool/dispatch", 0.0, 1.0,
                    attrs={"job": 1, "task": "call"})
    tel.record_span("pool/dispatch", 1.0, 2.0,
                    attrs={"job": 2, "task": "call"})
    tel.record_span("worker/forward", 0.2, 0.8, thread_id=4001,
                    attrs={"process_pid": 4001, "worker_slot": 0, "job": 1})
    tel.record_span("worker/forward", 1.2, 1.8, thread_id=4002,
                    attrs={"process_pid": 4002, "worker_slot": 1, "job": 2})
    return tel


class TestWorkerProcessTracks:
    def test_worker_spans_render_on_their_own_pid_track(self):
        events = chrome_trace_events(_process_collector())
        spans = [e for e in events if e["ph"] == "X"]
        worker_pids = {e["pid"] for e in spans
                       if e["name"].startswith("worker/")}
        dispatch_pids = {e["pid"] for e in spans
                         if e["name"] == "pool/dispatch"}
        assert dispatch_pids == {1}
        assert worker_pids == {4001, 4002}

    def test_process_name_metadata_labels_each_track(self):
        events = chrome_trace_events(_process_collector())
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names[1] == "parent"
        assert names[4001] == "worker-0 (pid 4001)"
        assert names[4002] == "worker-1 (pid 4002)"

    def test_tids_restart_per_pid(self):
        events = chrome_trace_events(_process_collector())
        spans = [e for e in events if e["ph"] == "X"]
        for span in spans:
            assert span["tid"] == 1  # one logical writer per process


class TestFlowEvents:
    def test_each_job_gets_a_start_step_finish_chain(self):
        events = chrome_trace_events(_process_collector())
        flows = [e for e in events if e.get("cat") == "flow"]
        by_job = {}
        for e in flows:
            by_job.setdefault(e["id"], []).append(e)
        assert set(by_job) == {1, 2}
        for job, chain in by_job.items():
            assert [e["ph"] for e in chain] == ["s", "t", "f"]
            start, step, finish = chain
            assert start["pid"] == 1  # dispatch originates in the parent
            assert step["pid"] in (4001, 4002)  # received by the worker
            assert finish["pid"] == 1  # terminated at result collection
            assert finish["bp"] == "e"
            assert start["ts"] <= step["ts"] <= finish["ts"]
            assert all(e["name"] == "job" for e in chain)

    def test_unmatched_jobs_emit_no_flow(self):
        tel = _process_collector()
        # A dispatch whose job brought no worker span home.
        tel.record_span("pool/dispatch", 2.0, 3.0,
                        attrs={"job": 3, "task": "call"})
        events = chrome_trace_events(tel)
        flow_ids = {e["id"] for e in events if e.get("cat") == "flow"}
        assert flow_ids == {1, 2}

    def test_single_process_trace_has_no_flows(self):
        events = chrome_trace_events(_sample_collector())
        assert not [e for e in events if e.get("cat") == "flow"]


class TestWrite:
    def test_write_chrome_trace_produces_loadable_file(self, tmp_path):
        path = write_chrome_trace(_sample_collector(),
                                  tmp_path / "sub" / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"]

    def test_empty_collector_writes_empty_trace(self, tmp_path):
        tel = telemetry.TelemetryCollector()
        path = write_chrome_trace(tel, tmp_path / "empty.json")
        assert json.loads(path.read_text())["traceEvents"] == []
