"""End-to-end worker-process telemetry: rings, merge, gauges, supervisor.

These tests drive real spawned workers through the process backend and
assert the cross-process observability contract: in-worker execution
spans arrive in the parent collector with ``process_pid``/``job``
linkage, per-worker in-flight gauges drain to zero, supervisor recovery
renders as events, and disabling telemetry changes nothing about the
computed results.
"""

import functools
import math
import operator
import os
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.runtime.backends import worker_diagnostics
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

    def test_no_collector_means_no_ring_traffic_and_same_results(
            self, process_executor):
        with telemetry.collect() as tel:
            observed = _forward(process_executor, seed=7)
        silent = _forward(process_executor, seed=7)
        # Telemetry off => bit-identical results.
        np.testing.assert_array_equal(observed, silent)
        assert tel.find_spans("pool/dispatch")
        # With no collector active the rings are gated off, so the
        # second run wrote nothing the next drain would deliver.
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


class TestWorkerDiagnostics:
    def test_diagnostics_report_ring_stats(self, process_executor):
        with telemetry.collect():
            _forward(process_executor)
            backend = process_executor.pool._require_backend()
            diag = backend.call(worker_diagnostics)
        assert diag["installed"] == 1
        assert diag["written"] >= 0
        assert diag["dropped"] == 0


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
