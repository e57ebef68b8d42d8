"""The cross-process telemetry ring: publication, loss, merge."""

import os

import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.telemetry import remote
from repro.telemetry.remote import (
    KIND_COUNTER,
    KIND_EVENT,
    KIND_GAUGE,
    KIND_SPAN,
    RingBoard,
    TelemetryRing,
    decode_attrs,
    encode_attrs,
    merge_records,
    ring_bytes,
)


class TestAttrCodec:
    def test_round_trip_with_type_recovery(self):
        attrs = {"engine": "gemm", "lo": 0, "hi": 8, "scale": 0.25}
        assert decode_attrs(encode_attrs(attrs)) == attrs

    def test_separator_characters_are_sanitised(self):
        decoded = decode_attrs(encode_attrs({"k": "a=b;c"}))
        assert decoded == {"k": "a:b,c"}

    def test_oversized_pair_is_dropped_whole(self):
        attrs = {"keep": 1, "huge": "x" * 500, "also": 2}
        assert decode_attrs(encode_attrs(attrs)) == {"keep": 1, "also": 2}


class TestRingRoundTrip:
    def test_all_record_kinds_survive(self):
        ring = TelemetryRing.local(capacity=16)
        assert ring.try_record(KIND_SPAN, "worker/forward", start=1.0,
                               end=2.0, job=7, slot=1,
                               attrs={"engine": "gemm", "lo": 0})
        assert ring.try_record(KIND_COUNTER, "worker.cache_misses", value=3.0)
        assert ring.try_record(KIND_GAUGE, "worker.mem", start=2.5, end=2.5,
                               value=128.0)
        assert ring.try_record(KIND_EVENT, "worker.note", start=3.0, end=3.0,
                               attrs={"why": "test"})
        records = ring.drain()
        assert [r.kind for r in records] == [KIND_SPAN, KIND_COUNTER,
                                             KIND_GAUGE, KIND_EVENT]
        span = records[0]
        assert span.name == "worker/forward"
        assert (span.start, span.end, span.job, span.slot) == (1.0, 2.0, 7, 1)
        assert span.attrs == {"engine": "gemm", "lo": 0}
        assert ring.pending == 0

    def test_drain_is_incremental(self):
        ring = TelemetryRing.local(capacity=8)
        ring.try_record(KIND_COUNTER, "a", value=1.0)
        assert [r.name for r in ring.drain()] == ["a"]
        ring.try_record(KIND_COUNTER, "b", value=1.0)
        assert [r.name for r in ring.drain()] == ["b"]
        assert ring.drain() == []

    def test_wraparound_keeps_records_intact(self):
        ring = TelemetryRing.local(capacity=4)
        for round_no in range(5):
            for i in range(3):
                assert ring.try_record(KIND_COUNTER, f"c{round_no}.{i}",
                                       value=float(i))
            names = [r.name for r in ring.drain()]
            assert names == [f"c{round_no}.{i}" for i in range(3)]
        assert ring.dropped == 0

    def test_long_names_truncate_rather_than_corrupt(self):
        ring = TelemetryRing.local(capacity=4)
        ring.try_record(KIND_COUNTER, "n" * 200, value=1.0)
        (record,) = ring.drain()
        assert record.name == "n" * remote.NAME_BYTES


class TestOverflow:
    def test_full_ring_drops_and_counts_without_blocking(self):
        ring = TelemetryRing.local(capacity=2)
        assert ring.try_record(KIND_COUNTER, "a", value=1.0)
        assert ring.try_record(KIND_COUNTER, "b", value=1.0)
        # Deliberately tiny ring: further writes are refused, counted,
        # and must not corrupt the published records.
        assert not ring.try_record(KIND_COUNTER, "c", value=1.0)
        assert not ring.try_record(KIND_COUNTER, "d", value=1.0)
        assert ring.dropped == 2
        assert [r.name for r in ring.drain()] == ["a", "b"]
        # Space reclaimed: subsequent writes succeed again.
        assert ring.try_record(KIND_COUNTER, "e", value=1.0)
        assert [r.name for r in ring.drain()] == ["e"]
        assert ring.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            ring_bytes(0)


class TestTornRecords:
    def test_unvalidated_record_is_skipped_and_counted(self):
        """A producer killed mid-write leaves the ring drainable.

        Simulates SIGKILL between the body write and publication by
        zeroing a published record's ``seq`` validation field.
        """
        ring = TelemetryRing.local(capacity=8)
        ring.try_record(KIND_COUNTER, "ok1", value=1.0)
        ring.try_record(KIND_COUNTER, "torn", value=1.0)
        ring.try_record(KIND_COUNTER, "ok2", value=1.0)
        ring._records[1]["seq"] = 0  # the torn write
        records = ring.drain()
        assert [r.name for r in records] == ["ok1", "ok2"]
        assert ring.torn == 1
        # The ring is past the torn record, not wedged on it.
        ring.try_record(KIND_COUNTER, "after", value=1.0)
        assert [r.name for r in ring.drain()] == ["after"]
        assert ring.torn == 1


@pytest.fixture
def worker_ring():
    """This process's writer given a private ring, as a spawned worker's
    is given its slot of the board."""
    ring = TelemetryRing.local(capacity=8)
    remote.WORKER.ring = ring
    try:
        yield ring
    finally:
        remote.WORKER.ring = None
        remote.WORKER.job = 0


class TestEnabledGate:
    def test_disabled_ring_suppresses_worker_helpers(self, worker_ring):
        remote.set_current_job(5)
        with telemetry.span("worker/forward"):
            pass
        telemetry.add("c")
        assert worker_ring.written == 0  # never enabled -> all no-ops
        worker_ring.set_enabled(True)
        with telemetry.span("worker/forward"):
            pass
        telemetry.add("c")
        assert worker_ring.written == 2
        assert all(r.job == 5 for r in worker_ring.drain())


class TestOneSink:
    def test_every_helper_reaches_the_ring(self, worker_ring):
        worker_ring.set_enabled(True)
        with telemetry.span("conv0/bp", phase="bp") as span:
            span.annotate(sparsity=0.5)
        telemetry.add("conv.flops.total", 8.0)
        telemetry.gauge("goodput.conv0", 2.0)
        telemetry.event("engine.fallback", layer="conv0")
        records = worker_ring.drain()
        assert [(r.kind, r.name) for r in records] == [
            (KIND_SPAN, "conv0/bp"), (KIND_COUNTER, "conv.flops.total"),
            (KIND_GAUGE, "goodput.conv0"), (KIND_EVENT, "engine.fallback")]
        assert records[0].attrs == {"phase": "bp", "sparsity": 0.5}
        assert records[0].start <= records[0].end
        assert records[1].value == 8.0 and records[2].value == 2.0
        assert records[3].attrs == {"layer": "conv0"}

    def test_an_active_collector_takes_the_records(self, worker_ring):
        worker_ring.set_enabled(True)
        with telemetry.collect() as tel:
            with telemetry.span("conv0/fp"):
                telemetry.add("c")
        assert worker_ring.written == 0
        assert [s.name for s in tel.spans] == ["conv0/fp"]
        assert tel.counters == {"c": 1.0}


class TestMergeRecords:
    def _drain(self):
        ring = TelemetryRing.local(capacity=16)
        ring.set_enabled(True)
        base = 1000.0
        ring.try_record(KIND_SPAN, "worker/forward", start=base + 0.010,
                        end=base + 0.020, job=3, slot=1,
                        attrs={"engine": "gemm"})
        ring.try_record(KIND_COUNTER, "worker.cache_misses", value=2.0)
        ring.try_record(KIND_GAUGE, "worker.mem", start=base + 0.021,
                        end=base + 0.021, value=64.0)
        ring.try_record(KIND_EVENT, "worker.note", start=base + 0.022,
                        end=base + 0.022)
        return ring.drain()

    def test_merge_keeps_worker_stamps_and_tags(self):
        records = self._drain()
        collector = telemetry.TelemetryCollector()
        assert merge_records(records, (collector,), pid=4242) == 4
        (span,) = collector.find_spans("worker/forward")
        assert (span.start, span.end) == (1000.010, 1000.020)
        assert span.attrs["process_pid"] == 4242
        assert span.attrs["worker_slot"] == 1
        assert span.attrs["job"] == 3
        assert span.thread_id == 4242
        assert collector.counters["worker.cache_misses"] == 2.0
        assert collector.gauges["worker.mem"] == 64.0
        (event,) = [e for e in collector.events if e.name == "worker.note"]
        assert event.time == 1000.022

    def test_merge_feeds_every_active_collector(self):
        records = self._drain()
        a, b = telemetry.TelemetryCollector(), telemetry.TelemetryCollector()
        merge_records(records, (a, b), pid=1)
        assert a.find_spans("worker/forward")
        assert b.find_spans("worker/forward")

    def test_unknown_kind_is_skipped_not_fatal(self):
        records = self._drain()
        future = remote.RemoteRecord(kind=99, slot=0, job=0, start=0.0,
                                     end=0.0, value=0.0, name="future")
        collector = telemetry.TelemetryCollector()
        merged = merge_records(records + [future], (collector,), pid=1)
        assert merged == len(records)


class TestRingBoard:
    def test_create_attach_drain_unlink(self):
        board = RingBoard.create(slots=2, capacity=8)
        try:
            attached = RingBoard.attach(board.descriptor)
            try:
                board.set_enabled(True)
                writer = attached.ring(1)
                assert writer.enabled
                writer.set_pid(os.getpid())
                writer.try_record(KIND_COUNTER, "x", value=1.0)
                reader = board.ring(1)
                assert reader.pid > 0
                assert [r.name for r in reader.drain()] == ["x"]
                assert board.ring(0).pending == 0
            finally:
                attached.close()
        finally:
            board.unlink()

    def test_slot_bounds_checked(self):
        board = RingBoard.create(slots=1, capacity=4)
        try:
            with pytest.raises(ReproError):
                board.ring(1)
        finally:
            board.unlink()
