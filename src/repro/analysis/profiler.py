"""Wall-clock per-layer profiling of real training runs.

The paper's framework selects techniques from *measured* per-layer
timings; this profiler provides that measurement on a whole network: it
wraps each layer's forward/backward with telemetry spans, runs real
training steps, and reports per-layer, per-phase wall-clock totals -- the
data a user needs to see where spg-CNN's optimizations land in their
model.

The profiler is built on :mod:`repro.telemetry`: entering activates a
private :class:`~repro.telemetry.TelemetryCollector` and installs
instance-level wrappers that record one span per layer call.  The
wrappers carry a per-profiler marker attribute, so the report aggregates
only this profiler's own spans -- two profilers can nest on the same
network without corrupting each other -- and exiting restores exactly the
callables that were installed before (including any pre-existing
instance-level wrapper, e.g. an outer profiler's).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.analysis.reporting import format_table
from repro.errors import ReproError
from repro.nn.network import Network

#: Attribute key marking a span as emitted by a specific profiler.
_MARK = "profiler"

#: Sentinel: the layer had no instance-level attribute before we wrapped it.
_ABSENT = object()


@dataclass
class LayerTiming:
    """Accumulated wall-clock for one layer."""

    name: str
    kind: str
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0
    calls: int = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


@dataclass
class ProfileReport:
    """Per-layer timings of a profiled run."""

    layers: list[LayerTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(t.total_seconds for t in self.layers)

    def fraction(self, layer_name: str) -> float:
        """Fraction of total time spent in the named layer."""
        total = self.total_seconds
        if total == 0:
            return 0.0
        for timing in self.layers:
            if timing.name == layer_name:
                return timing.total_seconds / total
        raise ReproError(f"no timing recorded for layer {layer_name!r}")

    def hottest(self) -> LayerTiming:
        """The layer with the largest total time."""
        if not self.layers:
            raise ReproError("empty profile")
        return max(self.layers, key=lambda t: t.total_seconds)

    def describe(self) -> str:
        """Formatted per-layer breakdown."""
        total = self.total_seconds or 1.0
        rows = [
            [t.name, t.kind, f"{t.forward_seconds * 1e3:.2f}",
             f"{t.backward_seconds * 1e3:.2f}",
             f"{100 * t.total_seconds / total:.1f}%"]
            for t in self.layers
        ]
        return format_table(
            ["layer", "kind", "FP (ms)", "BP (ms)", "share"],
            rows,
            title=f"profile: {self.total_seconds * 1e3:.2f} ms total",
        )


class NetworkProfiler:
    """Context manager instrumenting a network's layers with span timers."""

    def __init__(self, network: Network):
        self.network = network
        #: Full trace of the profiled run (spans, counters, gauges,
        #: events), including spans emitted by the layers themselves.
        self.telemetry = telemetry.TelemetryCollector()
        self._token = f"profiler-{id(self)}"
        # (layer, saved instance 'forward', saved instance 'backward');
        # _ABSENT means the lookup fell through to the class method.
        self._originals: list[tuple] = []
        self._collecting = None
        self._entered = False

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "NetworkProfiler":
        if self._entered:
            raise ReproError("profiler is already active; cannot re-enter")
        self._entered = True
        self._collecting = telemetry.collect(self.telemetry)
        self._collecting.__enter__()
        try:
            for layer in self.network.layers:
                self._instrument(layer)
        except BaseException:
            # Partial instrumentation must not leave wrappers behind.
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        if not self._entered:
            return  # idempotent: exiting twice is a no-op
        for layer, saved_forward, saved_backward in reversed(self._originals):
            for attr, saved in (("forward", saved_forward),
                                ("backward", saved_backward)):
                if saved is _ABSENT:
                    layer.__dict__.pop(attr, None)
                else:
                    setattr(layer, attr, saved)
        self._originals.clear()
        self._collecting.__exit__(None, None, None)
        self._collecting = None
        self._entered = False

    # -- instrumentation --------------------------------------------------

    def _instrument(self, layer) -> None:
        saved_forward = layer.__dict__.get("forward", _ABSENT)
        saved_backward = layer.__dict__.get("backward", _ABSENT)
        # Call whatever is currently reachable -- a nested profiler wraps
        # the outer profiler's wrapper, not the class method.
        original_forward = layer.forward
        original_backward = layer.backward
        token = self._token
        name = layer.name

        def timed_forward(inputs, training=True):
            with telemetry.span(f"{name}/fp", layer=name, phase="fp",
                                **{_MARK: token}):
                return original_forward(inputs, training=training)

        def timed_backward(out_error, **kwargs):
            with telemetry.span(f"{name}/bp", layer=name, phase="bp",
                                **{_MARK: token}):
                return original_backward(out_error, **kwargs)

        layer.forward = timed_forward
        layer.backward = timed_backward
        self._originals.append((layer, saved_forward, saved_backward))

    # -- reporting --------------------------------------------------------

    @property
    def report(self) -> ProfileReport:
        """Per-layer timings aggregated from this profiler's spans."""
        report = ProfileReport()
        for layer in self.network.layers:
            timing = LayerTiming(name=layer.name, kind=layer.kind)
            fp = self.telemetry.find_spans(
                layer=layer.name, phase="fp", **{_MARK: self._token}
            )
            bp = self.telemetry.find_spans(
                layer=layer.name, phase="bp", **{_MARK: self._token}
            )
            timing.forward_seconds = sum(s.seconds for s in fp)
            timing.backward_seconds = sum(s.seconds for s in bp)
            timing.calls = len(fp)
            report.layers.append(timing)
        return report


def profile_training_steps(network: Network, images, labels,
                           steps: int = 1, learning_rate: float = 0.01
                           ) -> ProfileReport:
    """Profile ``steps`` SGD steps on the given minibatch."""
    from repro.nn.sgd import SGDTrainer

    if steps <= 0:
        raise ReproError(f"steps must be positive, got {steps}")
    trainer = SGDTrainer(network, learning_rate=learning_rate)
    with NetworkProfiler(network) as profiler:
        for _ in range(steps):
            trainer.step(images, labels)
    return profiler.report
