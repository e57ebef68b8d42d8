"""Tests for the telemetry collector and the active-collector stack."""

import threading

import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.telemetry import TelemetryCollector


class TestSpans:
    def test_span_records_duration_and_thread(self):
        tel = TelemetryCollector()
        with tel.span("work", engine="stencil") as s:
            pass
        assert tel.spans == [s]
        assert s.seconds >= 0
        assert s.thread_id == threading.get_ident()
        assert s.attrs == {"engine": "stencil"}

    def test_nested_spans_link_parents(self):
        tel = TelemetryCollector()
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Inner finishes (and is recorded) first.
        assert [s.name for s in tel.spans] == ["inner", "outer"]

    def test_sibling_threads_do_not_nest(self):
        tel = TelemetryCollector()
        done = threading.Barrier(2, timeout=5)

        def work(name):
            with tel.span(name):
                done.wait()

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(s.parent_id is None for s in tel.spans)
        assert len({s.thread_id for s in tel.spans}) == 2

    def test_unfinished_span_has_no_duration(self):
        tel = TelemetryCollector()
        opened = tel.start_span("open")
        with pytest.raises(ReproError):
            _ = opened.seconds
        tel.finish_span(opened)
        assert opened.seconds >= 0

    def test_find_spans_filters_by_name_and_attrs(self):
        tel = TelemetryCollector()
        with tel.span("conv/fp", layer="conv", phase="fp"):
            pass
        with tel.span("conv/bp", layer="conv", phase="bp"):
            pass
        assert len(tel.find_spans("conv/fp")) == 1
        assert len(tel.find_spans(layer="conv")) == 2
        assert len(tel.find_spans(phase="bp")) == 1
        assert tel.find_spans(phase="nope") == []
        assert tel.total_seconds("conv/fp") >= 0


class TestCountersGaugesEvents:
    def test_counters_accumulate(self):
        tel = TelemetryCollector()
        tel.add("images", 4)
        tel.add("images", 2)
        tel.add("steps")
        assert tel.counters == {"images": 6.0, "steps": 1.0}

    def test_counters_are_monotonic(self):
        tel = TelemetryCollector()
        with pytest.raises(ReproError):
            tel.add("images", -1)

    def test_gauge_keeps_latest(self):
        tel = TelemetryCollector()
        tel.gauge("queue", 4)
        tel.gauge("queue", 2)
        assert tel.gauges == {"queue": 2.0}

    def test_events_record_attrs_in_order(self):
        tel = TelemetryCollector()
        tel.event("retune", layer="conv1", new_engine="sparse")
        tel.event("retune", layer="conv2", new_engine="gemm")
        assert [e.attrs["layer"] for e in tel.events] == ["conv1", "conv2"]

    def test_thread_safety_of_counters(self):
        tel = TelemetryCollector()

        def bump():
            for _ in range(1000):
                tel.add("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.counters["n"] == 4000


class TestActiveStack:
    def test_emission_is_noop_without_collector(self):
        # Must not raise, and span() must still work as a context manager.
        with telemetry.span("nobody-listening"):
            telemetry.add("counter")
            telemetry.gauge("gauge", 1.0)
            telemetry.event("event")

    def test_annotate_adds_attrs_known_only_after_the_work(self):
        with telemetry.span("nobody-listening") as quiet:
            quiet.annotate(measured=3)              # a no-op, not an error
        with telemetry.collect() as outer, telemetry.collect() as inner:
            with telemetry.span("tune", epoch=1) as span:
                span.annotate(measured=3, memo_hits=9)
        for tel in (outer, inner):
            assert tel.spans[0].attrs == {"epoch": 1, "measured": 3,
                                          "memo_hits": 9}

    def test_collect_records_module_level_emission(self):
        with telemetry.collect() as tel:
            with telemetry.span("work", phase="fp"):
                telemetry.add("images", 8)
            telemetry.gauge("queue", 3)
            telemetry.event("retune", layer="c")
        assert [s.name for s in tel.spans] == ["work"]
        assert tel.counters == {"images": 8.0}
        assert tel.gauges == {"queue": 3.0}
        assert [e.name for e in tel.events] == ["retune"]
        # Deactivated after the block.
        telemetry.add("images", 100)
        assert tel.counters == {"images": 8.0}

    def test_nested_collectors_both_record(self):
        with telemetry.collect() as outer:
            with telemetry.span("outer-only"):
                pass
            with telemetry.collect() as inner:
                with telemetry.span("both"):
                    pass
                telemetry.add("n")
        assert [s.name for s in outer.spans] == ["outer-only", "both"]
        assert [s.name for s in inner.spans] == ["both"]
        assert outer.counters == {"n": 1.0} and inner.counters == {"n": 1.0}

    def test_collect_accepts_existing_collector(self):
        tel = TelemetryCollector()
        with telemetry.collect(tel) as got:
            assert got is tel
            telemetry.add("n")
        assert tel.counters == {"n": 1.0}

    def test_spans_from_worker_threads_land_in_active_collector(self):
        def work():
            with telemetry.span("worker"):
                pass

        with telemetry.collect() as tel:
            t = threading.Thread(target=work)
            t.start()
            t.join()
        assert [s.name for s in tel.spans] == ["worker"]
