"""End-to-end worker-process telemetry: job records, merge, gauges,
supervisor.

These tests drive real spawned workers through the process backend and
assert the cross-process observability contract: in-worker execution
spans arrive in the parent collector with ``process_pid``/``job``
linkage, exactly as the worker recorded them and only from the attempt
whose result the parent took, per-worker in-flight gauges drain to
zero, supervisor recovery renders as events, and disabling telemetry
changes nothing about the computed results.  The tasks shipped to a
worker are module-level functions: they are pickled by reference.
"""

import functools
import math
import operator
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.runtime import shm
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool


def _spec() -> ConvSpec:
    return ConvSpec(nc=2, ny=6, nx=6, nf=3, fy=3, fx=3, name="convT")


@pytest.fixture(scope="module")
def process_executor():
    """One spawned two-worker executor shared across this module."""
    executor = ParallelExecutor("reference", _spec(), backend="process",
                                pool=WorkerPool(2, backend="process"))
    yield executor
    executor.close()
    executor.pool.shutdown()


#: A span name and attrs past any fixed-size record budget: 70
#: characters, and attrs whose ``k=v;k=v`` form runs well over 112 bytes,
#: with a string that reads as a number and a float.
_LONG_NAME = "worker/" + "long_span_name_" * 4 + "x" * 3
_LONG_ATTRS = {"code": "007", "scale": 0.1 + 0.2, "sep": "a=b;c",
               "note": "n" * 100}


def _long_span_task(i: int) -> int:
    with telemetry.span(_LONG_NAME, **_LONG_ATTRS):
        pass
    return i


def _span_pid_task() -> int:
    with telemetry.span("task/probe"):
        pass
    return os.getpid()


def _counting_task(i: int) -> int:
    telemetry.add("task.items", 3.0)
    telemetry.gauge("task.level", 0.5)
    return i


def _failing_task(i: int) -> int:
    telemetry.event("task.note", stage="before")
    with telemetry.span("task/doomed"):
        pass
    raise ValueError("task failed on purpose")


def _die_once(marker: str, i: int) -> int:
    """Records a span, then dies on the first attempt (no marker yet);
    the redispatched attempt finds the marker and returns its pid."""
    with telemetry.span("task/attempt"):
        pass
    path = Path(marker)
    if not path.exists():
        path.write_text("died")
        os._exit(1)
    return os.getpid()


def _own_host_segments() -> set[str]:
    """The host shm segments this process created (another suite on the
    host may be creating its own meanwhile)."""
    mine = f"{shm.SEGMENT_PREFIX}{os.getpid():x}-"
    return {name for name in shm.host_segments() if name.startswith(mine)}


def _worker_spans(tel, name: str) -> list:
    return [s for s in tel.find_spans(name) if "process_pid" in s.attrs]


def _forward(executor: ParallelExecutor, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    spec = executor.spec
    x = rng.standard_normal((4,) + spec.input_shape).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape).astype(np.float32)
    return executor.forward(x, w)


class TestWorkerSpans:
    def test_worker_spans_merge_with_job_linkage(self, process_executor):
        with telemetry.collect() as tel:
            _forward(process_executor)
        worker_spans = [s for s in tel.spans if s.name == "worker/forward"]
        assert worker_spans, "no worker-side spans merged"
        parent_pid = os.getpid()
        dispatch_jobs = {
            s.attrs["job"] for s in tel.find_spans("pool/dispatch")
        }
        for span in worker_spans:
            assert span.attrs["process_pid"] != parent_pid
            assert span.attrs["worker_slot"] in (0, 1)
            assert span.attrs["engine"] == "reference"
            assert span.attrs["job"] in dispatch_jobs
            # Calibrated onto the parent timeline: the worker execution
            # nests inside its dispatch span's bounds.
            dispatch = next(s for s in tel.find_spans("pool/dispatch")
                            if s.attrs["job"] == span.attrs["job"])
            assert dispatch.start <= span.start
            assert span.end <= dispatch.end

    def test_worker_stamps_fall_between_the_parent_reads(
            self, process_executor):
        # Workers and parent read one clock (perf_counter), and records
        # merge without any correction: every worker stamp must lie
        # between the parent's reads around the round trip.
        _forward(process_executor)  # workers up before the bracket opens
        with telemetry.collect() as tel:
            before = time.perf_counter()
            _forward(process_executor, seed=3)
            after = time.perf_counter()
        stamps = [t for s in tel.spans if "process_pid" in s.attrs
                  for t in (s.start, s.end)]
        stamps += [e.time for e in tel.events if "process_pid" in e.attrs]
        assert stamps, "no worker-side records merged"
        assert all(before <= t <= after for t in stamps)

    def test_spans_cover_all_three_methods(self, process_executor):
        rng = np.random.default_rng(1)
        spec = process_executor.spec
        x = rng.standard_normal((4,) + spec.input_shape).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        with telemetry.collect() as tel:
            out = process_executor.forward(x, w)
            err = np.ones_like(out)
            process_executor.backward_data(err, w)
            process_executor.backward_weights(err, x)
        names = {s.name for s in tel.spans if "process_pid" in s.attrs}
        assert {"worker/forward", "worker/backward_data",
                "worker/backward_weights"} <= names

    def test_no_collector_means_no_records_and_same_results(
            self, process_executor):
        with telemetry.collect() as tel:
            observed = _forward(process_executor, seed=7)
        silent = _forward(process_executor, seed=7)
        # Telemetry off => bit-identical results.
        np.testing.assert_array_equal(observed, silent)
        assert tel.find_spans("pool/dispatch")
        # With no collector active no job asks for records, so the
        # second run left nothing behind for the next merge to deliver.
        with telemetry.collect() as after:
            _forward(process_executor, seed=7)
        merged = [s for s in after.spans if "process_pid" in s.attrs]
        dispatched = after.find_spans("pool/dispatch")
        assert len(merged) == len(dispatched)


class TestInflightGauges:
    def test_inflight_gauges_drain_to_zero_after_batch(self,
                                                       process_executor):
        with telemetry.collect() as tel:
            _forward(process_executor)
        backend = process_executor.pool._require_backend()
        gauges = {slot: tel.gauges.get(f"pool.inflight.w{slot}")
                  for slot in range(backend.num_workers)}
        observed = {s for s, v in gauges.items() if v is not None}
        assert observed, "dispatcher never published in-flight gauges"
        for slot in observed:
            assert gauges[slot] == 0.0
        series = [v for slot in observed
                  for _, v in tel.gauge_series[f"pool.inflight.w{slot}"]]
        assert max(series) >= 1.0  # the dispatch itself was observable

    def test_a_preempted_dispatcher_cannot_strand_the_gauge(
            self, process_executor, monkeypatch):
        # Hold every increment back long enough for the worker to answer:
        # the collector's decrement must still publish after it.
        publish = telemetry.gauge

        def late_increment(name, value):
            if (value > 0 and threading.current_thread().name
                    != "repro-shm-collector"):
                time.sleep(0.2)
            publish(name, value)

        _forward(process_executor)  # spawn before collecting
        monkeypatch.setattr(telemetry, "gauge", late_increment)
        with telemetry.collect() as tel:
            _forward(process_executor)
        finals = {name: value for name, value in tel.gauges.items()
                  if name.startswith("pool.inflight.")}
        assert finals
        assert set(finals.values()) == {0.0}

    def test_inflight_gauges_drain_to_zero_after_a_worker_crash(self):
        pool = WorkerPool(2, backend="process")
        try:
            pool.map_items(math.factorial, 2)  # spawn before collecting
            with telemetry.collect() as tel:
                with pytest.raises(Exception):
                    pool.map_items(os._exit, 1)
                pool.map_items(math.factorial, 2)
            assert "supervisor.worker_dead" in [e.name for e in tel.events]
            finals = {name: value for name, value in tel.gauges.items()
                      if name.startswith("pool.inflight.")}
            assert finals
            assert set(finals.values()) == {0.0}
        finally:
            pool.shutdown()


class TestRecordsRideTheResult:
    @pytest.mark.parametrize("collecting", [False, True])
    def test_a_pool_start_publishes_no_segment(self, collecting):
        before = _own_host_segments()
        pool = WorkerPool(2, backend="process")
        try:
            if collecting:
                with telemetry.collect():
                    assert pool.map_items(math.factorial, 2) == [1, 1]
            else:
                assert pool.map_items(math.factorial, 2) == [1, 1]
            assert _own_host_segments() == before
        finally:
            pool.shutdown()

    def test_records_cross_the_boundary_exactly(self, process_executor):
        with telemetry.collect() as inline:
            _long_span_task(0)
        (expected,) = inline.find_spans(_LONG_NAME)
        pool = process_executor.pool
        with telemetry.collect() as tel:
            assert pool.map_items(_long_span_task, 1) == [0]
        (span,) = _worker_spans(tel, _LONG_NAME)
        (dispatch,) = tel.find_spans("pool/dispatch")
        assert span.name == _LONG_NAME and len(span.name) == 70
        assert span.attrs["process_pid"] != os.getpid()
        assert span.attrs["worker_slot"] in (0, 1)
        assert span.attrs["job"] == dispatch.attrs["job"]
        assert span.attrs == {**expected.attrs,
                              "process_pid": span.attrs["process_pid"],
                              "worker_slot": span.attrs["worker_slot"],
                              "job": span.attrs["job"]}
        assert span.attrs["code"] == "007"

    def test_broadcast_merges_each_workers_records(self, process_executor):
        backend = process_executor.pool._require_backend()
        with telemetry.collect() as tel:
            pids = backend.broadcast(_span_pid_task)
        spans = _worker_spans(tel, "task/probe")
        assert sorted(s.attrs["process_pid"] for s in spans) == sorted(pids)
        assert len({s.attrs["job"] for s in spans}) == len(pids) == 2
        assert {s.attrs["worker_slot"] for s in spans} == {0, 1}

    def test_counters_and_gauges_cross_the_boundary(self, process_executor):
        pool = process_executor.pool
        with telemetry.collect() as tel:
            assert pool.map_items(_counting_task, 1) == [0]
        assert tel.counters["task.items"] == 3.0
        assert tel.gauges["task.level"] == 0.5

    def test_a_failing_job_still_brings_its_records(self, process_executor):
        pool = process_executor.pool
        with telemetry.collect() as tel:
            with pytest.raises(ValueError, match="on purpose"):
                pool.map_items(_failing_task, 1)
        (dispatch,) = tel.find_spans("pool/dispatch")
        job = dispatch.attrs["job"]
        (span,) = _worker_spans(tel, "task/doomed")
        assert span.attrs["job"] == job
        (note,) = [e for e in tel.events if e.name == "task.note"]
        assert note.attrs["job"] == job
        assert note.attrs["stage"] == "before"
        assert note.attrs["process_pid"] == span.attrs["process_pid"]

    def test_one_job_reports_one_attempt(self, tmp_path):
        pool = WorkerPool(2, backend="process")
        try:
            pool.map_items(math.factorial, 2)  # spawn before collecting
            task = functools.partial(_die_once, str(tmp_path / "marker"))
            with telemetry.collect() as tel:
                (returned_by,) = pool.map_items(task, 1)
            (dispatch,) = tel.find_spans("pool/dispatch")
            spans = [s for s in _worker_spans(tel, "task/attempt")
                     if s.attrs["job"] == dispatch.attrs["job"]]
            assert len(spans) == 1
            assert spans[0].attrs["process_pid"] == returned_by
            assert "supervisor.redispatch" in [e.name for e in tel.events]
        finally:
            pool.shutdown()


class TestSupervisorEvents:
    def test_worker_death_and_respawn_render_as_events(self):
        pool = WorkerPool(2, backend="process")
        try:
            pool.map_items(math.factorial, 2)  # spawn before collecting
            with telemetry.collect() as tel:
                with pytest.raises(Exception):
                    pool.map_items(os._exit, 1)
                pool.map_items(math.factorial, 2)
            names = [e.name for e in tel.events]
            assert "supervisor.worker_dead" in names
            assert "supervisor.respawn" in names
            dead = next(e for e in tel.events
                        if e.name == "supervisor.worker_dead")
            assert dead.attrs["slot"] in (0, 1)
        finally:
            pool.shutdown()

    def test_worker_errors_do_not_emit_supervisor_events(self):
        pool = WorkerPool(2, backend="process")
        try:
            with telemetry.collect() as tel:
                with pytest.raises(ZeroDivisionError):
                    pool.map_items(functools.partial(operator.floordiv, 1), 2)
            assert "supervisor.worker_dead" not in [e.name
                                                    for e in tel.events]
        finally:
            pool.shutdown()
