"""Cross-process telemetry: the worker's job records and their merge."""

import pickle

import pytest

from repro import telemetry
from repro.telemetry import remote
from repro.telemetry.remote import (
    KIND_COUNTER,
    KIND_EVENT,
    KIND_GAUGE,
    KIND_SPAN,
    merge_records,
)


@pytest.fixture
def worker_records():
    """This process's recorder set listening, as a spawned worker's is
    for a job the parent asked to record."""
    remote.WORKER.records = []
    try:
        yield remote.WORKER.records
    finally:
        remote.WORKER.records = None


class TestEnabledGate:
    def test_no_record_list_suppresses_worker_helpers(self):
        assert remote.WORKER.records is None
        with telemetry.span("worker/forward") as span:
            span.annotate(lo=0)
        telemetry.add("c")
        telemetry.gauge("g", 1.0)
        telemetry.event("e")
        assert remote.WORKER.records is None  # nothing listening: no-ops

    def test_a_record_list_takes_every_call(self, worker_records):
        with telemetry.span("worker/forward"):
            pass
        telemetry.add("c")
        assert [r[1] for r in worker_records] == ["worker/forward", "c"]

    def test_point_records_stamp_one_instant(self, worker_records):
        telemetry.add("c", 2.0)
        telemetry.gauge("g", 3.0)
        telemetry.event("e", why="test")
        for _, _, start, end, _, _ in worker_records:
            assert start == end

    def test_a_span_left_by_an_exception_is_recorded(self, worker_records):
        with pytest.raises(ValueError):
            with telemetry.span("task/doomed", lo=0):
                raise ValueError("boom")
        ((kind, name, start, end, _, attrs),) = worker_records
        assert (kind, name, attrs) == (KIND_SPAN, "task/doomed", {"lo": 0})
        assert start <= end


class TestOneSink:
    def test_every_helper_reaches_the_records(self, worker_records):
        with telemetry.span("conv0/bp", phase="bp") as span:
            span.annotate(sparsity=0.5)
        telemetry.add("conv.flops.total", 8.0)
        telemetry.gauge("goodput.conv0", 2.0)
        telemetry.event("engine.fallback", layer="conv0")
        assert [(r[0], r[1]) for r in worker_records] == [
            (KIND_SPAN, "conv0/bp"), (KIND_COUNTER, "conv.flops.total"),
            (KIND_GAUGE, "goodput.conv0"), (KIND_EVENT, "engine.fallback")]
        kind, name, start, end, value, attrs = worker_records[0]
        assert attrs == {"phase": "bp", "sparsity": 0.5}
        assert start <= end
        assert worker_records[1][4] == 8.0 and worker_records[2][4] == 2.0
        assert worker_records[3][5] == {"layer": "conv0"}

    def test_records_survive_the_result_pipe(self, worker_records):
        with telemetry.span("conv0/fp", code="007", scale=0.3):
            telemetry.event("engine.fallback", layer="conv0")
        telemetry.gauge("goodput.conv0", 2.5)
        assert pickle.loads(pickle.dumps(worker_records)) == worker_records

    def test_an_active_collector_takes_the_records(self, worker_records):
        with telemetry.collect() as tel:
            with telemetry.span("conv0/fp"):
                telemetry.add("c")
        assert worker_records == []
        assert [s.name for s in tel.spans] == ["conv0/fp"]
        assert tel.counters == {"c": 1.0}


class TestMergeRecords:
    def _records(self):
        base = 1000.0
        return [
            (KIND_SPAN, "conv0/fp", base + 0.012, base + 0.018, 0.0,
             {"phase": "fp"}),
            (KIND_SPAN, "worker/forward", base + 0.010, base + 0.020, 0.0,
             {"engine": "gemm"}),
            (KIND_COUNTER, "worker.cache_misses", 0.0, 0.0, 2.0, {}),
            (KIND_GAUGE, "worker.mem", base + 0.021, base + 0.021, 64.0, {}),
            (KIND_EVENT, "worker.note", base + 0.022, base + 0.022, 0.0, {}),
        ]

    def test_merge_keeps_worker_stamps_and_tags(self):
        collector = telemetry.TelemetryCollector()
        merged = merge_records(self._records(), (collector,), pid=4242,
                               slot=1, job=3)
        assert merged == 5
        (span,) = collector.find_spans("worker/forward")
        assert (span.start, span.end) == (1000.010, 1000.020)
        assert span.attrs == {"engine": "gemm", "process_pid": 4242,
                              "worker_slot": 1, "job": 3}
        assert span.thread_id == 4242
        # The inner span arrived first and was adopted by its enclosure.
        (inner,) = collector.find_spans("conv0/fp")
        assert inner.parent_id == span.span_id
        assert collector.counters["worker.cache_misses"] == 2.0
        assert collector.gauges["worker.mem"] == 64.0
        (event,) = [e for e in collector.events if e.name == "worker.note"]
        assert event.time == 1000.022
        assert event.attrs == {"process_pid": 4242, "worker_slot": 1,
                               "job": 3}

    def test_one_pass_links_every_span_to_its_enclosure(self):
        # Exit order of root > (mid > (leaf_a, leaf_b), tail), then a
        # second root that encloses nothing before it.
        def span(name, start, end):
            return (KIND_SPAN, name, start, end, 0.0, {})

        records = [span("leaf_a", 2, 3), span("leaf_b", 4, 5),
                   span("mid", 1, 6), span("tail", 7, 8),
                   span("root", 0, 9), span("root2", 10, 11)]
        collector = telemetry.TelemetryCollector()
        merge_records(records, (collector,), pid=1, slot=0, job=1)
        ids = {s.name: s.span_id for s in collector.spans}
        parents = {s.name: s.parent_id for s in collector.spans}
        assert parents == {"leaf_a": ids["mid"], "leaf_b": ids["mid"],
                           "mid": ids["root"], "tail": ids["root"],
                           "root": None, "root2": None}

    def test_an_overlapping_span_is_not_adopted(self):
        records = [(KIND_SPAN, "early", 0.0, 2.0, 0.0, {}),
                   (KIND_SPAN, "late", 1.0, 3.0, 0.0, {})]
        collector = telemetry.TelemetryCollector()
        merge_records(records, (collector,), pid=1, slot=0, job=1)
        assert [s.parent_id for s in collector.spans] == [None, None]

    def test_merge_feeds_every_active_collector(self):
        a, b = telemetry.TelemetryCollector(), telemetry.TelemetryCollector()
        merge_records(self._records(), (a, b), pid=1, slot=0, job=1)
        assert a.find_spans("worker/forward")
        assert b.find_spans("worker/forward")

    def test_unknown_kind_is_skipped_not_fatal(self):
        records = self._records()
        future = (99, "future", 0.0, 0.0, 0.0, {})
        collector = telemetry.TelemetryCollector()
        merged = merge_records(records + [future], (collector,), pid=1,
                               slot=0, job=1)
        assert merged == len(records)
