"""Tests for the concurrency lint: seeded hazards are caught, the real
package is clean."""

import textwrap

from repro.check.concurrency import lint_package, lint_source


def _lint(code: str):
    return lint_source("mod.py", textwrap.dedent(code))


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


class TestMutableDefaults:
    def test_list_default_is_an_error(self):
        findings = _lint("def f(x=[]):\n    return x\n")
        assert any("mutable default" in f.message for f in findings)

    def test_dict_call_default_is_an_error(self):
        findings = _lint("def f(x=dict()):\n    return x\n")
        assert any("mutable default" in f.message for f in findings)

    def test_kwonly_default_is_checked(self):
        findings = _lint("def f(*, x={}):\n    return x\n")
        assert any("mutable default" in f.message for f in findings)

    def test_immutable_defaults_are_fine(self):
        assert _lint("def f(x=(), y=0, z=None):\n    return x\n") == []


class TestSharedMutation:
    POOLED = """
    from repro.runtime.pool import WorkerPool

    RESULTS = []

    def run(pool):
        def task(i):
            RESULTS.append(i)
        pool.map(task, range(4))
    """

    def test_closure_mutation_without_lock_is_an_error(self):
        findings = _lint(self.POOLED)
        assert any("worker-pool threads race" in f.message
                   for f in findings), findings

    def test_lock_guard_suppresses_the_finding(self):
        code = """
        import threading
        from repro.runtime.pool import WorkerPool

        RESULTS = []
        _LOCK = threading.Lock()

        def run(pool):
            def task(i):
                with _LOCK:
                    RESULTS.append(i)
            pool.map(task, range(4))
        """
        assert _errors(_lint(code)) == []

    def test_module_without_pool_usage_is_not_flagged(self):
        code = """
        RESULTS = []

        def run():
            def task(i):
                RESULTS.append(i)
            task(0)
        """
        assert _lint(code) == []

    def test_top_level_function_mutation_is_not_a_closure(self):
        # Mutation directly in a top-level function (not a closure handed
        # to the pool) is the collector-style idiom and stays legal.
        code = """
        from repro.runtime.pool import WorkerPool

        RESULTS = []

        def record(i):
            RESULTS.append(i)
        """
        assert _lint(code) == []

    def test_subscript_assignment_in_closure_is_an_error(self):
        code = """
        from repro.runtime.pool import WorkerPool

        STATE = {}

        def run(pool):
            def task(i):
                STATE[i] = i
            pool.map(task, range(4))
        """
        findings = _lint(code)
        assert any("item-assigned" in f.message for f in findings)


class TestTelemetryApi:
    def test_private_attribute_access_is_an_error(self):
        code = """
        from repro import telemetry

        def f():
            return telemetry._ACTIVE
        """
        findings = _lint(code)
        assert any("private telemetry attribute" in f.message
                   for f in findings)

    def test_typoed_helper_is_an_error(self):
        code = """
        from repro import telemetry

        def f():
            telemetry.guage("x", 1.0)
        """
        findings = _lint(code)
        assert any("not a public telemetry helper" in f.message
                   for f in findings)

    def test_import_time_emission_is_a_warning(self):
        code = """
        from repro import telemetry

        telemetry.add("boot", 1)
        """
        findings = _lint(code)
        assert any("import time" in f.message and f.severity == "warning"
                   for f in findings)

    def test_guarded_emission_in_function_is_fine(self):
        code = """
        from repro import telemetry

        def f():
            telemetry.add("x", 1)
            with telemetry.span("region"):
                pass
        """
        assert _lint(code) == []

    def test_aliased_import_is_tracked(self):
        code = """
        from repro import telemetry as tel

        def f():
            tel.guage("x", 1.0)
        """
        findings = _lint(code)
        assert any("not a public telemetry helper" in f.message
                   for f in findings)

    def test_unrelated_module_attribute_is_ignored(self):
        code = """
        import numpy as np

        def f():
            return np._private_thing
        """
        assert _lint(code) == []


class TestSpanLeak:
    def test_span_outside_with_is_an_error(self):
        code = """
        from repro import telemetry

        def f():
            span = telemetry.span("region")
            do_work()
        """
        findings = _lint(code)
        assert any("never finished and leaks" in f.message
                   and f.severity == "error" for f in findings)

    def test_span_as_with_item_is_fine(self):
        code = """
        from repro import telemetry

        def f():
            with telemetry.span("region") as s:
                do_work(s)
            with telemetry.span("a"), telemetry.span("b"):
                do_work()
        """
        assert _lint(code) == []

    def test_aliased_span_leak_is_caught(self):
        code = """
        from repro import telemetry as tel

        def f():
            tel.span("region")
        """
        findings = _lint(code)
        assert any("never finished and leaks" in f.message for f in findings)


class TestHotLoopEmission:
    def test_emitter_in_nested_loop_is_a_warning(self):
        code = """
        from repro import telemetry

        def f(rows):
            for row in rows:
                for value in row:
                    telemetry.add("elements", 1)
        """
        findings = _lint(code)
        assert any("nested per-element loop" in f.message
                   and f.severity == "warning" for f in findings)

    def test_gauge_and_observe_are_also_hot_emitters(self):
        code = """
        from repro import telemetry

        def f(rows):
            for row in rows:
                while row:
                    telemetry.gauge("depth", 1.0)
                    telemetry.observe("latency", 0.1)
                    row = row[1:]
        """
        findings = _lint(code)
        hot = [f for f in findings if "per-element loop" in f.message]
        assert len(hot) == 2

    def test_single_loop_emission_is_fine(self):
        code = """
        from repro import telemetry

        def f(batches):
            for batch in batches:
                telemetry.add("batches", 1)
        """
        assert _lint(code) == []

    def test_span_in_nested_loop_is_not_a_hot_emitter(self):
        code = """
        from repro import telemetry

        def f(rows):
            for row in rows:
                for value in row:
                    with telemetry.span("cell"):
                        do_work(value)
        """
        assert _lint(code) == []


class TestPackageLint:
    def test_real_package_has_no_errors(self):
        findings, files = lint_package()
        assert files > 50  # the whole repro package was walked
        assert _errors(findings) == [], [f.location for f in _errors(findings)]

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("broken.py", "def broken(:\n")
        assert len(findings) == 1
        assert "does not parse" in findings[0].message


class TestForkSafety:
    """CHK-FORK: fork/pickle-unsafe captures in pool submissions."""

    def test_lambda_capturing_lock_is_an_error(self):
        code = """
        import threading

        def run(pool):
            lock = threading.Lock()
            return pool.run_tasks([lambda: work(lock)])
        """
        findings = _lint(code)
        assert any("threading lock" in f.message
                   and "pickle boundary" in f.message for f in findings)

    def test_nested_function_capturing_shm_handle_is_an_error(self):
        code = """
        from repro.runtime.shm import SharedArray

        def run(pool, data):
            seg = SharedArray.from_array(data)
            def task(lo, hi):
                return seg.ndarray[lo:hi].sum()
            return pool.map_batches(task, data.shape[0])
        """
        findings = _lint(code)
        assert any("shared-memory handle" in f.message for f in findings)

    def test_captured_collector_is_an_error(self):
        code = """
        from repro.telemetry import TelemetryCollector

        def run(pool):
            collector = TelemetryCollector()
            return pool.map_items(lambda i: collector.add("n", i), 4)
        """
        findings = _lint(code)
        assert any("telemetry collector" in f.message for f in findings)

    def test_open_file_from_with_block_is_an_error(self):
        code = """
        def run(pool, path):
            with open(path) as fh:
                return pool.run_tasks([lambda: fh.read()])
        """
        findings = _lint(code)
        assert any("file handle" in f.message for f in findings)

    def test_descriptor_shipping_is_clean(self):
        code = """
        import functools
        from repro.runtime.shm import SharedArray

        def run(pool, data, task):
            seg = SharedArray.from_array(data)
            try:
                return pool.map_batches(
                    functools.partial(task, seg.descriptor), data.shape[0]
                )
            finally:
                seg.unlink()
        """
        assert _lint(code) == []

    def test_unsafe_handle_outside_submission_is_clean(self):
        code = """
        import threading

        def run(pool):
            lock = threading.Lock()
            with lock:
                return pool.run_tasks([lambda: work()])
        """
        assert _lint(code) == []

    def test_safe_captures_are_clean(self):
        code = """
        def run(pool, items):
            scale = 2.0
            return pool.map_items(lambda i: items[i] * scale, len(items))
        """
        assert _lint(code) == []


class TestDagCaptureSafety:
    """CHK-DAG: node callables capturing mutable engine scratch."""

    def test_captured_engine_instance_is_an_error(self):
        code = """
        from repro.ops.engine import make_engine

        def build(graph, spec, weights, x):
            engine = make_engine("parallel-gemm", spec)
            graph.add_node("fp", lambda: engine.forward(x, weights))
        """
        findings = _lint(code)
        assert any("work-stealing scheduler" in f.message
                   and "mutable scratch" in f.message for f in findings)

    def test_captured_checked_out_engine_is_an_error(self):
        code = """
        def build(graph, executor, x, weights):
            engine = executor._checkout_engine()
            def node():
                return engine.forward(x, weights)
            graph.add_node("fp", node)
        """
        findings = _lint(code)
        assert any("graph-build time" in f.message for f in findings)

    def test_captured_workspace_is_an_error(self):
        code = """
        from repro.ops.workspace import Workspace

        def build(graph, shape):
            scratch = Workspace()
            graph.add_node("fp", lambda: scratch.request("a", shape))
        """
        findings = _lint(code)
        assert any("workspace buffer" in f.message for f in findings)

    def test_checkout_inside_node_body_is_clean(self):
        code = """
        def build(graph, executor, x, weights):
            def node():
                engine = executor._checkout_engine()
                try:
                    return engine.forward(x, weights)
                finally:
                    executor._return_engine(engine)
            graph.add_node("fp", node)
        """
        assert _lint(code) == []

    def test_engine_outside_add_node_is_clean(self):
        code = """
        from repro.ops.engine import make_engine

        def run(spec, x, weights):
            engine = make_engine("parallel-gemm", spec)
            return engine.forward(x, weights)
        """
        assert _lint(code) == []

    def test_plan_task_capture_is_clean(self):
        code = """
        def build(graph, executor, padded, weights):
            ctx = {}

            def prep():
                ctx["out"], ctx["tasks"] = executor.slice_plan(
                    "forward", padded, weights
                )

            prep_node = graph.add_node("prep", prep)
            graph.add_node("range", lambda: ctx["tasks"][0].run(),
                           (prep_node,))
        """
        assert _lint(code) == []


class TestDagWrappedCallables:
    """CHK-DAG sees through functools.partial and bound-method nodes."""

    def test_partial_shipping_an_engine_is_an_error(self):
        code = """
        import functools
        from repro.ops.engine import make_engine

        def build(graph, spec, x, weights):
            engine = make_engine("parallel-gemm", spec)
            graph.add_node(
                "fp", functools.partial(run_slice, engine, x, weights)
            )
        """
        findings = _lint(code)
        assert len(findings) == 1
        assert "functools.partial(...)" in findings[0].message

    def test_partial_shipping_safe_arguments_is_clean(self):
        code = """
        import functools

        def build(graph, spec, x, weights):
            graph.add_node(
                "fp", functools.partial(run_slice, spec, x, weights)
            )
        """
        assert _lint(code) == []

    def test_bound_method_of_workspace_is_an_error(self):
        code = """
        from repro.ops.workspace import Workspace

        def build(graph):
            scratch = Workspace()
            graph.add_node("zero", scratch.reset)
        """
        findings = _lint(code)
        assert len(findings) == 1
        assert "bound method 'scratch.reset'" in findings[0].message

    def test_bound_method_of_safe_object_is_clean(self):
        code = """
        def build(graph, recorder):
            graph.add_node("note", recorder.flush)
        """
        assert _lint(code) == []

    def test_method_call_inside_lambda_is_not_a_bound_method(self):
        code = """
        def build(graph, ctx):
            graph.add_node("run", lambda: ctx.run_all())
        """
        assert _lint(code) == []

    def test_fork_submission_keeps_descriptor_extraction_clean(self):
        # The bound-method rule is CHK-DAG only: extracting
        # seg.descriptor inside a partial is the *sanctioned* CHK-FORK
        # remediation and must stay clean (regression guard for the
        # rule gating).
        code = """
        import functools
        from repro.runtime.shm import SharedArray

        def run(pool, data, task):
            seg = SharedArray.from_array(data)
            try:
                return pool.map_batches(
                    functools.partial(task, seg.descriptor), data.shape[0]
                )
            finally:
                seg.unlink()
        """
        assert _lint(code) == []

    def test_fork_partial_shipping_unsafe_handle_is_an_error(self):
        # Partial see-through applies to CHK-FORK too: shipping the
        # handle itself (not its descriptor) through a partial is the
        # bug the descriptor pattern exists to avoid.
        code = """
        import functools
        from repro.runtime.shm import SharedArray

        def run(pool, data, task):
            seg = SharedArray.from_array(data)
            return pool.map_batches(functools.partial(task, seg),
                                    data.shape[0])
        """
        findings = _lint(code)
        assert len(findings) == 1
        assert "functools.partial(...)" in findings[0].message
