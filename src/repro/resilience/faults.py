"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a named set of :class:`FaultSpec` entries, each
bound to an injection *site* -- a string naming an instrumented point in
the runtime.  Instrumented code calls the module-level helpers
(:func:`perturb`, :func:`corrupt_array`), which are no-ops unless a
plan has been activated with :func:`inject`; the active
injector counts invocations per site and fires each spec at its
configured invocation indices (and/or at a seeded random rate), so a
given plan + seed reproduces the same faults run after run.

Instrumented sites:

========================  ====================================================
site                      instrumented at
========================  ====================================================
``pool.task``             every worker-pool task attempt (raise)
``pool.result``           every array-returning pool task result (corrupt)
``engine.fp``             every non-fallback conv-engine FP call (raise)
``engine.bp``             every non-fallback conv-engine BP call (raise)
``sgd.gradient``          the loss gradient of every SGD step (corrupt)
========================  ====================================================

A pooled network's training step runs its layers in worker replicas
(:class:`repro.runtime.parallel.ShardedStep`), which visit no site.  The
parent visits ``engine.fp`` / ``engine.bp`` for them before dispatch,
once per engine call of the step as inline would (also on a step the
NaN guard then skips, whose BP inline never runs), and a fired raise
degrades the layer before the replicas are built -- the same under
every backend.  ``sgd.gradient`` corrupts the parent's copy of the loss
gradient there: it gates the skip, but the shards have back-propagated
their own rows by then, so a corruption that stays finite does not
reach the parameter gradients as it does inline.

Fault kinds: ``"raise"`` (throw :class:`~repro.errors.InjectedFault`)
and ``"corrupt"`` (write ``value``, NaN by default, into a seeded
fraction of an array).  There is no injected hang: every site runs in
the parent, where a sleep is judged by nothing.  The ``hang`` chaos
plan SIGSTOPs a live worker instead (:data:`REAL_KILL_PLANS`).

Invocation counters are process-local and reset with every
:func:`inject` activation: a resumed run starts counting from zero.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro import telemetry
from repro.errors import InjectedFault, ReproError

FAULT_KINDS = ("raise", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what to do, where, and when to trigger."""

    site: str
    kind: str
    #: 1-based invocation indices of the site at which to trigger.
    at: tuple[int, ...] = ()
    #: Additional seeded random trigger probability per invocation.
    rate: float = 0.0
    #: Value written by ``"corrupt"`` faults (NaN by default).
    value: float = float("nan")
    #: Fraction of array elements a ``"corrupt"`` fault overwrites.
    fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not self.site:
            raise ReproError("fault site must be a non-empty string")
        if any(n <= 0 for n in self.at):
            raise ReproError(f"invocation indices are 1-based: {self.at}")
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(f"rate must be in [0, 1], got {self.rate}")
        if not 0.0 < self.fraction <= 1.0:
            raise ReproError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of faults."""

    name: str
    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        """The specs bound to one injection site."""
        return tuple(s for s in self.specs if s.site == site)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan reseeded (used by ``repro chaos --seed``)."""
        return FaultPlan(name=self.name, specs=self.specs, seed=seed)


@dataclass(frozen=True)
class Injection:
    """Record of one fired fault (for reports and assertions)."""

    site: str
    kind: str
    invocation: int
    attrs: dict[str, Any] = field(default_factory=dict)


class FaultInjector:
    """Counts site invocations and fires the plan's faults on cue.

    Thread-safe: worker-pool threads share one injector, and the
    per-site invocation counters and the trigger RNG are guarded by a
    lock so a plan's ``at`` indices fire exactly once each.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._rng = np.random.default_rng(plan.seed)
        self.injections: list[Injection] = []

    # -- bookkeeping ------------------------------------------------------

    def _tick(self, site: str) -> int:
        """Next 1-based invocation index of ``site``."""
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            return count

    def _triggers(self, spec: FaultSpec, invocation: int) -> bool:
        if invocation in spec.at:
            return True
        if spec.rate > 0.0:
            with self._lock:
                return bool(self._rng.random() < spec.rate)
        return False

    def _record(self, spec: FaultSpec, invocation: int,
                attrs: dict[str, Any]) -> None:
        fired = Injection(site=spec.site, kind=spec.kind,
                          invocation=invocation, attrs=dict(attrs))
        with self._lock:
            self.injections.append(fired)
        telemetry.add("faults.injected", 1)
        telemetry.add(f"faults.{spec.kind}", 1)
        telemetry.event("fault", site=spec.site, kind=spec.kind,
                        invocation=invocation, **attrs)

    def invocations(self, site: str) -> int:
        """How many times ``site`` has been visited so far."""
        with self._lock:
            return self._counts.get(site, 0)

    def fired(self, site: str | None = None,
              kind: str | None = None) -> list[Injection]:
        """The injections fired so far, optionally filtered."""
        with self._lock:
            fired = list(self.injections)
        return [
            f for f in fired
            if (site is None or f.site == site)
            and (kind is None or f.kind == kind)
        ]

    # -- injection points -------------------------------------------------

    def perturb(self, site: str, **attrs: Any) -> None:
        """Visit a raise site: may raise InjectedFault."""
        specs = self.plan.for_site(site)
        if not specs:
            return
        invocation = self._tick(site)
        for spec in specs:
            if spec.kind != "raise" or not self._triggers(spec, invocation):
                continue
            self._record(spec, invocation, attrs)
            raise InjectedFault(site, invocation)

    def corrupt_array(self, site: str, array: np.ndarray) -> np.ndarray:
        """Visit a corrupt site: returns the array, possibly poisoned.

        Non-ndarray values pass through untouched, so array sites can sit
        on generic code paths.
        """
        specs = [s for s in self.plan.for_site(site) if s.kind == "corrupt"]
        if not specs or not isinstance(array, np.ndarray) or array.size == 0:
            return array
        invocation = self._tick(site)
        out = array
        for spec in specs:
            if not self._triggers(spec, invocation):
                continue
            self._record(spec, invocation, {"shape": list(array.shape)})
            if out is array:
                out = array.copy()
            count = max(1, int(round(out.size * spec.fraction)))
            with self._lock:
                flat_idx = self._rng.choice(out.size, size=count,
                                            replace=False)
            out.reshape(-1)[flat_idx] = spec.value
        return out


# -- the active injector stack ---------------------------------------------
#
# Global (not thread-local) on purpose, mirroring the telemetry collector
# stack: faults must fire in worker-pool threads even though the plan was
# activated on the main thread.

_ACTIVE: list[FaultInjector] = []
_ACTIVE_LOCK = threading.Lock()


def active_injector() -> FaultInjector | None:
    """The innermost active injector, or None outside any inject()."""
    with _ACTIVE_LOCK:
        return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def inject(plan: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Activate a fault plan for the duration of the ``with`` block."""
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    with _ACTIVE_LOCK:
        _ACTIVE.append(injector)
    try:
        yield injector
    finally:
        with _ACTIVE_LOCK:
            for i in range(len(_ACTIVE) - 1, -1, -1):
                if _ACTIVE[i] is injector:
                    del _ACTIVE[i]
                    break


def perturb(site: str, **attrs: Any) -> None:
    """Raise site hook; no-op when no injector is active."""
    injector = active_injector()
    if injector is not None:
        injector.perturb(site, **attrs)


def corrupt_array(site: str, array):
    """Corrupt site hook; returns the input unchanged when inactive."""
    injector = active_injector()
    if injector is None:
        return array
    return injector.corrupt_array(site, array)


# -- named plans -----------------------------------------------------------


def _none_plan() -> FaultPlan:
    """No faults at all (baseline for A/B chaos comparisons)."""
    return FaultPlan(name="none")


def _smoke_plan() -> FaultPlan:
    """The CI smoke plan: two worker crashes and one NaN batch.

    The ``at`` indices land inside the first epoch of the chaos CLI's
    default job (mnist, batch 8, threads 2), so a 3-epoch run exercises
    retry and the NaN-batch guard, then finishes clean.
    """
    return FaultPlan(name="smoke", specs=(
        FaultSpec(site="pool.task", kind="raise", at=(3, 11)),
        FaultSpec(site="sgd.gradient", kind="corrupt", at=(4,)),
    ))


def _workers_plan() -> FaultPlan:
    """Heavier worker chaos: repeated and random crashes."""
    return FaultPlan(name="workers", specs=(
        FaultSpec(site="pool.task", kind="raise", at=(2, 7, 19, 31)),
        FaultSpec(site="pool.task", kind="raise", rate=0.01),
    ))


def _numeric_plan() -> FaultPlan:
    """Numeric chaos: NaN gradients plus a mis-behaving engine call."""
    return FaultPlan(name="numeric", specs=(
        FaultSpec(site="sgd.gradient", kind="corrupt", at=(2, 9)),
        FaultSpec(site="engine.fp", kind="raise", at=(5,)),
        FaultSpec(site="engine.bp", kind="raise", at=(6,)),
    ))


_PLAN_BUILDERS = {
    "none": _none_plan,
    "smoke": _smoke_plan,
    "workers": _workers_plan,
    "numeric": _numeric_plan,
}

#: Plans the chaos harness realizes with *real signals* against live
#: worker processes -- ``kill9`` SIGKILLs and ``hang`` SIGSTOPs a worker
#: mid-step -- instead of Python-level fault specs.  They have no
#: :class:`FaultPlan` (there is nothing to inject at a call site) and
#: are handled by :func:`repro.resilience.chaos.run_chaos` directly.
REAL_KILL_PLANS = ("hang", "kill9")


def plan_names() -> tuple[str, ...]:
    """The registered injection-based plans, sorted.

    The real-kill plans (:data:`REAL_KILL_PLANS`) are deliberately not
    listed here: they are chaos-harness modes, not injectable plans.
    """
    return tuple(sorted(_PLAN_BUILDERS))


def get_plan(name: str, seed: int = 0) -> FaultPlan:
    """Build a named plan with the given trigger seed."""
    if name in REAL_KILL_PLANS:
        raise ReproError(
            f"plan {name!r} uses real process signals and has no "
            f"injectable FaultPlan; run it through "
            f"repro.resilience.chaos.run_chaos"
        )
    try:
        builder = _PLAN_BUILDERS[name]
    except KeyError:
        raise ReproError(
            f"unknown fault plan {name!r}; known: {plan_names()}"
        ) from None
    return builder().with_seed(seed)
