"""Edge cases of span recording in the telemetry collector.

A span's duration is stored once, in the span, and every report reads
``collector.spans``: the run report's per-layer times and BP p95 and
the Chrome trace.  So how the collector records
irregular inputs -- recursive same-name nesting, spans from worker
threads, mismatched closes, spans merged in from another process -- is
contract, not accident.
"""

import threading

import pytest

from repro import telemetry
from repro.errors import ReproError


class TestNestedSameName:
    def test_recursive_same_name_spans_are_both_recorded(self):
        tel = telemetry.TelemetryCollector()
        with tel.span("recurse"):
            with tel.span("recurse"):
                pass
        inner, outer = tel.find_spans("recurse")
        # The outer span's duration includes the inner's.
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert outer.seconds >= inner.seconds

    def test_nested_same_name_parent_linkage(self):
        tel = telemetry.TelemetryCollector()
        with tel.span("recurse") as outer:
            with tel.span("recurse") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None


class TestCrossThreadLinkage:
    def test_worker_thread_spans_do_not_adopt_main_thread_parent(self):
        tel = telemetry.TelemetryCollector()
        child_holder = {}

        def worker():
            with tel.span("child") as child:
                child_holder["span"] = child

        with tel.span("parent"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        child = child_holder["span"]
        # Parent linkage is per-thread: the worker's stack was empty, so
        # its span is a root even though "parent" was open on the main
        # thread the whole time.
        assert child.parent_id is None
        assert child.thread_id != tel.find_spans("parent")[0].thread_id

    def test_spans_from_many_threads_are_all_recorded(self):
        tel = telemetry.TelemetryCollector()

        def worker():
            with tel.span("shared"):
                pass

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with tel.span("shared"):
            pass
        shared = tel.find_spans("shared")
        assert len(shared) == 4
        assert len({s.span_id for s in shared}) == 4
        assert len({s.thread_id for s in shared}) >= 2


class TestMismatchedClose:
    def test_closing_an_outer_span_drops_the_ones_opened_after_it(self):
        tel = telemetry.TelemetryCollector()
        outer = tel.start_span("outer")
        tel.start_span("leaked")            # never finished
        tel.finish_span(outer)
        # The leaked span left the stack with its parent, so the next
        # span is a root rather than a child of a dead span.
        with tel.span("next") as following:
            pass
        assert following.parent_id is None
        assert [s.name for s in tel.spans] == ["outer", "next"]

    def test_finishing_a_span_twice_keeps_the_stack_consistent(self):
        tel = telemetry.TelemetryCollector()
        with tel.span("root") as root:
            opened = tel.start_span("inner")
            tel.finish_span(opened)
            tel.finish_span(opened)
            with tel.span("sibling") as sibling:
                pass
        assert sibling.parent_id == root.span_id


class TestRecordedSpans:
    def test_end_before_start_is_rejected(self):
        tel = telemetry.TelemetryCollector()
        with pytest.raises(ReproError, match="precedes start"):
            tel.record_span("worker/forward", 2.0, 1.0)
        assert tel.spans == []

    def test_recorded_span_keeps_its_thread_parent_and_attrs(self):
        tel = telemetry.TelemetryCollector()
        recorded = tel.record_span("worker/forward", 1.0, 1.5,
                                   thread_id=4001, parent_id=7,
                                   attrs={"pid": 12, "job_id": 3})
        assert tel.spans == [recorded]
        assert recorded.seconds == 0.5
        assert (recorded.thread_id, recorded.parent_id) == (4001, 7)
        assert recorded.attrs == {"pid": 12, "job_id": 3}

    def test_recorded_span_does_not_disturb_open_linkage(self):
        tel = telemetry.TelemetryCollector()
        with tel.span("step") as step:
            tel.record_span("worker/forward", 0.0, 1.0)
            with tel.span("after") as after:
                pass
        assert after.parent_id == step.span_id
        merged = tel.find_spans("worker/forward")[0]
        assert merged.parent_id is None
        # Span ids stay unique across live and merged spans.
        assert len({s.span_id for s in tel.spans}) == 3

    def test_events_and_gauges_keep_their_given_timestamps(self):
        tel = telemetry.TelemetryCollector()
        tel.record_event_at("worker/respawn", 3.0, {"pid": 12})
        tel.gauge_at("queue.depth", 2, 1.0)
        tel.gauge_at("queue.depth", 5, 2.0)
        assert [(e.name, e.time, e.attrs) for e in tel.events] == [
            ("worker/respawn", 3.0, {"pid": 12})]
        assert tel.gauges["queue.depth"] == 5.0
        assert tel.gauge_series["queue.depth"] == [(1.0, 2.0), (2.0, 5.0)]
