"""Overhead budget: disabled instrumentation must stay near-free.

The telemetry helpers are called on every batch, every layer pass and
every pool task.  With no active collector they must reduce to a cheap
guard (iterate an empty tuple), so production runs that never activate a
collector pay (almost) nothing.  The two wall-clock budgets below carry
the ``wallclock`` marker (tier-1 deselects them; ``-m wallclock`` runs
them): the host book's ``telemetry.overhead_share`` line is what judges
telemetry cost.  ``test_disabled_helpers_record_nothing`` is exact and
stays in tier-1.
"""

import time

import numpy as np
import pytest

from repro import telemetry

#: The ISSUE's budget: instrumented / bare < 1.5 with no collector active.
BUDGET = 1.5

#: Workload size: each iteration does roughly the work of one small
#: layer pass (the granularity the helpers actually wrap in the hot
#: path), so the measured ratio is representative and stable.
_ITERS = 100
_SIZE = 16384


def _bare_hot_path(data: np.ndarray) -> float:
    total = 0.0
    for _ in range(_ITERS):
        total += float(np.square(data).sum())
    return total


def _instrumented_hot_path(data: np.ndarray) -> float:
    total = 0.0
    for i in range(_ITERS):
        with telemetry.span("hot/iter", index=i):
            value = float(np.square(data).sum())
        telemetry.add("hot.iters")
        telemetry.gauge("hot.value", value)
        total += value
    return total


def _best_of(fn, data: np.ndarray, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn(data)
        best = min(best, time.perf_counter() - start)
    return best


class TestOverheadBudget:
    @pytest.mark.wallclock
    def test_disabled_instrumentation_within_budget(self):
        assert not telemetry.active_collectors(), (
            "test requires no ambient collector")
        data = np.ones(_SIZE, dtype=np.float32)
        # Warm both paths (allocator, attribute caches) before timing.
        _bare_hot_path(data)
        _instrumented_hot_path(data)
        bare = _best_of(_bare_hot_path, data)
        instrumented = _best_of(_instrumented_hot_path, data)
        ratio = instrumented / bare
        assert ratio < BUDGET, (
            f"disabled telemetry costs {ratio:.2f}x "
            f"(bare {bare * 1e3:.2f} ms, "
            f"instrumented {instrumented * 1e3:.2f} ms); budget {BUDGET}x"
        )

    def test_disabled_helpers_record_nothing(self):
        before = telemetry.active_collectors()
        with telemetry.span("nobody/listening"):
            telemetry.add("nobody.counter")
            telemetry.gauge("nobody.gauge", 1.0)
            telemetry.event("nobody.event")
        assert telemetry.active_collectors() == before == ()


#: Worker-side telemetry budget: a process-backend epoch with rings
#: enabled (collector active, spans merged) stays within 1.10x the
#: median epoch with rings gated off.
WORKER_BUDGET = 1.10

#: Absolute slack added to the budget: epochs this small run in tens of
#: milliseconds, where scheduler jitter alone exceeds 10%.  The ratio
#: bound does the work on any real workload; the slack keeps the test
#: honest without being flaky on a tiny denominator.
WORKER_SLACK_SECONDS = 0.25


@pytest.mark.wallclock
class TestWorkerTelemetryBudget:
    def test_enabled_worker_telemetry_within_budget(self):
        import statistics

        from repro.data.synthetic import mnist_like
        from repro.nn.training_loop import TrainingLoop
        from repro.nn.zoo import mnist_net

        rng = np.random.default_rng(0)
        network = mnist_net(scale=0.25, rng=rng, threads=2,
                            backend="process")
        data = mnist_like(16, seed=0)
        loop = TrainingLoop(network, data, batch_size=8, scheduler="dag")
        try:
            loop.run(1)  # spawn workers + warm engine caches untimed
            enabled, disabled = [], []
            for _ in range(3):  # interleave to cancel machine drift
                start = time.perf_counter()
                with telemetry.collect():
                    loop.run(1)
                enabled.append(time.perf_counter() - start)
                start = time.perf_counter()
                loop.run(1)
                disabled.append(time.perf_counter() - start)
        finally:
            for layer in network.conv_layers():
                layer.close()
        on = statistics.median(enabled)
        off = statistics.median(disabled)
        assert on <= off * WORKER_BUDGET + WORKER_SLACK_SECONDS, (
            f"worker telemetry costs {on / off:.2f}x "
            f"(enabled {on * 1e3:.1f} ms, disabled {off * 1e3:.1f} ms); "
            f"budget {WORKER_BUDGET}x + {WORKER_SLACK_SECONDS}s"
        )
