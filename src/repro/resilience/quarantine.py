"""The engine quarantine registry: bench kernels that misbehave.

When a generated stencil/sparse kernel raises, returns the wrong shape
or produces non-finite values from finite inputs, the conv layer falls
back to the reference dense path and records the failure here, keyed by
``(layer, phase, engine)``.  The autotuner consults the same registry so
its next planning round never re-deploys a benched engine onto the layer
it failed on -- the failure is contained to one (layer, phase) pair
without giving up the technique elsewhere.

A process-wide default registry serves the common case; tests and
multi-tenant callers can pass their own instance around instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import telemetry
from repro.errors import ReproError

_PHASES = ("fp", "bp")


@dataclass(frozen=True)
class QuarantineRecord:
    """One benched engine and why it was benched."""

    layer: str
    phase: str
    engine: str
    reason: str = ""


class QuarantineRegistry:
    """Thread-safe set of benched ``(layer, phase, engine)`` triples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[tuple[str, str, str], QuarantineRecord] = {}

    # A registry is process-wide infrastructure, not per-network state:
    # copying a network (copy.deepcopy) must share the original
    # registry, not clone its lock.
    def __copy__(self) -> "QuarantineRegistry":
        return self

    def __deepcopy__(self, memo) -> "QuarantineRegistry":
        return self

    def quarantine(self, layer: str, phase: str, engine: str,
                   reason: str = "") -> QuarantineRecord:
        """Bench an engine for one layer/phase; idempotent."""
        if phase not in _PHASES:
            raise ReproError(f"phase must be one of {_PHASES}, got {phase!r}")
        record = QuarantineRecord(layer=layer, phase=phase, engine=engine,
                                  reason=reason)
        key = (layer, phase, engine)
        with self._lock:
            fresh = key not in self._records
            self._records[key] = record
        if fresh:
            telemetry.add("quarantine.engines", 1)
            telemetry.event("quarantine", layer=layer, phase=phase,
                            engine=engine, reason=reason)
        return record

    def is_quarantined(self, layer: str, phase: str, engine: str) -> bool:
        """True when the engine is benched for this layer/phase."""
        with self._lock:
            return (layer, phase, engine) in self._records

    def filter(self, candidates: tuple[str, ...], layer: str,
               phase: str) -> tuple[str, ...]:
        """The candidates not benched for this layer/phase, in order."""
        with self._lock:
            benched = {
                engine for (rec_layer, rec_phase, engine) in self._records
                if rec_layer == layer and rec_phase == phase
            }
        return tuple(c for c in candidates if c not in benched)

    def records(self) -> tuple[QuarantineRecord, ...]:
        """All quarantine records, in insertion order."""
        with self._lock:
            return tuple(self._records.values())

    def clear(self) -> None:
        """Forget every quarantine (new process, new chances)."""
        with self._lock:
            self._records.clear()


_DEFAULT = QuarantineRegistry()


def default_registry() -> QuarantineRegistry:
    """The process-wide registry the layer and autotuner share."""
    return _DEFAULT
