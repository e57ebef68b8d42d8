"""The spg-CNN autotuner: pick the fastest technique per layer and phase.

:class:`MeasuredCostBackend` prices candidates by wall-clock
micro-benchmarks of the actual engine implementations on the host (the
paper's approach: "it runs each layer with [each technique] ... and
based on the measured performance, chooses the fastest technique to
deploy"), memoised and probe-gated so that measuring is cheap enough to
be what ``repro train`` deploys by.  The paper book prices them with
the analytical model of the paper's machine instead (``ModelCostBackend``,
beside that model), which this module does not import.

Selections follow Sec. 4.4: FP chooses among Parallel-GEMM,
GEMM-in-Parallel and Stencil-Kernel; BP among Parallel-GEMM,
GEMM-in-Parallel and Sparse-Kernel, with the BP choice depending on the
current error sparsity.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro.core.convspec import ConvSpec
from repro.core.plan import (
    BP_CANDIDATES,
    FALLBACK_ENGINE,
    FP_CANDIDATES,
    LayerPlan,
)
from repro.errors import PlanError
from repro.resilience.quarantine import QuarantineRegistry, default_registry
from repro.ops.engine import make_engine


class CostBackend(ABC):
    """Produces a time estimate for (technique, phase) on one layer."""

    #: Fraction by which a challenger must undercut the deployed engine
    #: to replace it.  Zero for a deterministic model; a measuring
    #: backend sets its noise margin.
    hysteresis = 0.0
    #: Candidates priced by running engines / answered from a memo
    #: (only a measuring backend ever counts).
    measured = 0
    memo_hits = 0

    @abstractmethod
    def time(self, technique: str, phase: str, spec: ConvSpec,
             sparsity: float) -> float:
        """Seconds for one batch of the layer's phase under ``technique``."""

    def rank(self, candidates: Sequence[str], phase: str, spec: ConvSpec,
             sparsity: float, incumbent: str | None = None,
             input_error: bool = True, crop: int = 0) -> dict[str, float]:
        """Seconds per candidate.

        ``incumbent`` names the engine the layer runs now,
        ``input_error=False`` says BP-data will not be called (the conv
        fed by the images) and ``crop`` is the pad border the layer
        crops from its input error (``ConvEngine.backward``'s); a model
        prices every candidate alike and ignores all three.
        """
        return {tech: self.time(tech, phase, spec, sparsity)
                for tech in candidates}


def _check_phase(technique: str, phase: str) -> None:
    if technique == "stencil" and phase != "fp":
        raise PlanError(f"{technique} kernels serve forward propagation only")
    if technique == "sparse" and phase != "bp":
        raise PlanError("sparse kernels serve backward propagation only")


class MeasuredCostBackend(CostBackend):
    """Wall-clock micro-benchmarks of the real engines on this host.

    Measuring is made cheap enough to be the training path's default:

    * every result is memoised per (technique, phase, spec, sparsity
      bucket) -- engines other than ``sparse`` do dense work and are
      keyed sparsity-free -- so a recheck inside a known bucket calls no
      engine;
    * a challenger is first *probed* on one image and only timed on the
      measuring batch when the probe is within :attr:`probe_gate` times
      the incumbent's per-image time; a probe beyond the gate is taken
      once more and the faster reading kept, so one slow reading cannot
      pin a price for the bucket, and a kernel that is 20x slower costs
      two images, once per bucket;
    * on one core ``parallel-gemm`` splits the rows into one slice and
      issues exactly the ``np.matmul`` that ``gemm-in-parallel`` issues,
      so the two share one price (a tie keeps the incumbent);
    * :attr:`hysteresis` keeps engines that measure within noise of each
      other from flapping.

    Buckets halve the error density (sparsity 0, 0.5, 0.75, 0.875, ...):
    sparse-kernel work is proportional to the non-zero count, so a
    bucket spans at most the 2x the gate already tolerates.  The error
    a bucket is measured on is drawn at the bucket's geometric-mean
    density (:meth:`bucket_sparsity`), not at whatever sparsity the
    first query inside it happened to carry: the memoised price is then
    a property of the key, within sqrt(2) of every query it answers.
    The operands are drawn once per spec: inputs, weights, a dense error
    and a uniform field, and a bucket's error is the dense one zeroed
    where the field is below the bucket's sparsity.
    ``clock`` and ``engine_factory`` are injection points for tests.

    Engines are timed bare and single-threaded.  A network built with
    ``threads > 1`` shards each training step: every worker's inline
    replica calls the chosen engine directly on its B/N images, so the
    ranking is that of the kernel each shard runs.  What this does not
    price is the split itself -- the per-worker minibatch and the
    dispatch and reduce around it.
    """

    hysteresis = 0.10
    probe_gate = 2.0

    def __init__(self, batch: int = 2, repeats: int = 2, num_cores: int = 1,
                 seed: int = 0,
                 clock: Callable[[], float] = time.perf_counter,
                 engine_factory: Callable[..., object] = make_engine):
        if batch <= 0 or repeats <= 0:
            raise PlanError(f"batch and repeats must be positive: {batch}, {repeats}")
        self.batch = batch
        self.repeats = repeats
        self.num_cores = num_cores
        self._rng = np.random.default_rng(seed)
        self._clock = clock
        self._engine_factory = engine_factory
        #: spec -> (inputs, weights, dense error, uniform field)
        self._draws: dict[ConvSpec, tuple[np.ndarray, ...]] = {}
        #: key -> (seconds, priced by the one-image probe only)
        self._memo: dict[tuple, tuple[float, bool]] = {}
        self.measured = 0
        self.memo_hits = 0

    @staticmethod
    def sparsity_bucket(sparsity: float) -> int:
        """Index of the density octave ``sparsity`` falls in."""
        density = max(1.0 - sparsity, 2.0 ** -16)
        return int(-math.log2(density) + 1e-9)

    @staticmethod
    def bucket_sparsity(bucket: int) -> float:
        """Sparsity at the geometric mean of the bucket's density range
        ``(2^-(bucket+1), 2^-bucket]``."""
        return 1.0 - 2.0 ** -(bucket + 0.5)

    def _key(self, technique: str, phase: str, spec: ConvSpec,
             sparsity: float, input_error: bool, crop: int) -> tuple:
        if technique == "parallel-gemm" and self.num_cores == 1:
            technique = "gemm-in-parallel"      # the same one BLAS call
        bucket = self.sparsity_bucket(sparsity) if technique == "sparse" else None
        # The crop only shapes BP-data: FP and dW-only BP ignore it.
        bp_data = phase == "bp" and input_error
        return (technique, phase, phase == "fp" or input_error,
                crop if bp_data else 0, spec, bucket)

    def _operands(self, phase: str, spec: ConvSpec, sparsity: float):
        """Random (primary, weights, inputs) at the measuring batch; a BP
        error is zeroed at the density of ``sparsity``'s bucket."""
        draws = self._draws.get(spec)
        if draws is None:
            rng = self._rng
            out_shape = (self.batch,) + spec.output_shape
            draws = self._draws[spec] = (
                rng.standard_normal((self.batch,) + spec.input_shape,
                                    dtype=np.float32),
                rng.standard_normal(spec.weight_shape, dtype=np.float32),
                rng.standard_normal(out_shape, dtype=np.float32),
                rng.random(out_shape, dtype=np.float32))
        inputs, weights, error, field = draws
        if phase == "fp":
            return inputs, weights, inputs
        measured_at = self.bucket_sparsity(self.sparsity_bucket(sparsity))
        out_error = error.copy()
        out_error[field < measured_at] = 0.0
        return out_error, weights, inputs

    def _measure(self, technique: str, phase: str, spec: ConvSpec,
                 operands, input_error: bool, crop: int,
                 limit: float | None) -> tuple[float, bool]:
        """Seconds per measuring batch, and whether the probe gated it.

        BP is timed as the layer runs it: one ``backward`` call at the
        layer's ``crop`` (which selects the GEMM engines' BP-data form).

        ``limit`` is the per-image time beyond which the one-image probe
        ends the measurement once a second probe agrees (the price is
        then the faster probe's estimate).
        Engines are called directly -- no layer, no guard, no quarantine
        -- and scratch is released afterwards.
        """
        engine = self._engine_factory(technique, spec,
                                      num_cores=self.num_cores)
        primary, weights, inputs = operands

        def run(n: int) -> float:
            start = self._clock()
            if phase == "fp":
                engine.forward(primary[:n], weights)
            else:
                engine.backward(primary[:n], inputs[:n], weights, crop,
                                input_error)
            return self._clock() - start

        try:
            probe = run(1)
            if limit is not None and probe > limit:
                probe = min(probe, run(1))
                if probe > limit:
                    return probe * self.batch, True
            return min(run(self.batch) for _ in range(self.repeats)), False
        finally:
            release = getattr(engine, "release_workspace", None)
            if release is not None:
                release()

    def rank(self, candidates: Sequence[str], phase: str, spec: ConvSpec,
             sparsity: float, incumbent: str | None = None,
             input_error: bool = True, crop: int = 0) -> dict[str, float]:
        for tech in candidates:
            _check_phase(tech, phase)
        # The incumbent goes first and ungated: it is the yardstick.
        order = sorted(candidates, key=lambda tech: tech != incumbent)
        timings: dict[str, float] = {}
        operands = None
        limit = None
        for tech in order:
            key = self._key(tech, phase, spec, sparsity, input_error, crop)
            cached = self._memo.get(key)
            # A probe-only price stands while it is still beyond the gate
            # (dense keys outlive the incumbent that gated them).
            if cached is not None and cached[1] and (
                    limit is None or cached[0] <= limit * self.batch):
                cached = None
            if cached is None:
                if operands is None:
                    operands = self._operands(phase, spec, sparsity)
                cached = self._measure(tech, phase, spec, operands,
                                       input_error, crop, limit)
                self._memo[key] = cached
                self.measured += 1
            else:
                self.memo_hits += 1
            timings[tech] = cached[0]
            if tech == incumbent:
                limit = self.probe_gate * cached[0] / self.batch
        return {tech: timings[tech] for tech in candidates}

    def time(self, technique: str, phase: str, spec: ConvSpec,
             sparsity: float) -> float:
        return self.rank((technique,), phase, spec, sparsity)[technique]


class Autotuner:
    """Selects the fastest technique per layer/phase via a cost backend.

    Selection is quarantine-aware: engines benched for a layer/phase by
    the runtime's numeric guards (see :mod:`repro.resilience.quarantine`)
    are excluded from that layer's candidate set, and if every candidate
    is benched the plan degrades to the dense reference fallback rather
    than re-deploying a known-bad kernel.
    """

    def __init__(self, backend: CostBackend,
                 quarantine: QuarantineRegistry | None = None):
        self.backend = backend
        self.quarantine = quarantine or default_registry()

    def _pick(self, candidates: tuple[str, ...], phase: str, spec: ConvSpec,
              sparsity: float, layer_name: str = "",
              incumbent: str | None = None,
              input_error: bool = True,
              crop: int = 0) -> tuple[str, dict[str, float]]:
        eligible = self.quarantine.filter(candidates, layer_name, phase)
        if not eligible:
            # Every candidate is benched for this layer/phase; degrade to
            # the reference path (infinitely slow on paper, but correct).
            return FALLBACK_ENGINE, {FALLBACK_ENGINE: float("inf")}
        timings = self.backend.rank(eligible, phase, spec, sparsity,
                                    incumbent=incumbent,
                                    input_error=input_error, crop=crop)
        chosen = min(timings, key=timings.get)
        held = timings.get(incumbent)
        if held is not None and (
                timings[chosen] >= held * (1.0 - self.backend.hysteresis)):
            chosen = incumbent
        return chosen, timings

    def plan_layer(self, spec: ConvSpec, layer_name: str = "",
                   sparsity: float = 0.0,
                   deployed: tuple[str, str] | None = None,
                   input_error: bool = True, crop: int = 0) -> LayerPlan:
        """Plan one convolution layer at the given error sparsity.

        ``spec`` should describe the engine-facing (pre-padded) geometry.
        ``deployed`` names the (FP, BP) engines the layer runs now: the
        incumbents a challenger must beat by the backend's hysteresis.
        ``input_error=False`` marks the conv fed by the images, whose
        training BP is dW only; ``crop`` is the layer's pad border, which
        its BP-data crops.
        """
        fp_held, bp_held = deployed or (None, None)
        fp_engine, fp_timings = self._pick(FP_CANDIDATES, "fp", spec,
                                           sparsity, layer_name, fp_held)
        bp_engine, bp_timings = self._pick(BP_CANDIDATES, "bp", spec,
                                           sparsity, layer_name, bp_held,
                                           input_error, crop)
        return LayerPlan(
            layer_name=layer_name or spec.name or "conv",
            spec=spec,
            fp_engine=fp_engine,
            bp_engine=bp_engine,
            fp_timings=fp_timings,
            bp_timings=bp_timings,
            sparsity=sparsity,
        )

    def plan_fp(self, spec: ConvSpec, layer_name: str,
                deployed: tuple[str, str]) -> LayerPlan:
        """Plan FP only; BP stays on the ``deployed`` engine.

        What a framework does before training has produced an error
        gradient: the BP choice waits for :meth:`replan_bp` and a
        measured sparsity, so the plan carries no BP timings yet.
        """
        fp_held, bp_held = deployed
        fp_engine, fp_timings = self._pick(FP_CANDIDATES, "fp", spec,
                                           0.0, layer_name, fp_held)
        return LayerPlan(
            layer_name=layer_name or spec.name or "conv",
            spec=spec,
            fp_engine=fp_engine,
            bp_engine=bp_held,
            fp_timings=fp_timings,
        )

    def replan_bp(self, plan: LayerPlan, sparsity: float,
                  input_error: bool = True, crop: int = 0) -> LayerPlan:
        """Re-select only the BP technique at a new sparsity level.

        This is the periodic re-check of Sec. 4.4: error-gradient sparsity
        drifts during training, so the BP choice is revisited while the FP
        choice (sparsity-independent) is kept.  The plan's BP engine is
        the incumbent.
        """
        bp_engine, bp_timings = self._pick(BP_CANDIDATES, "bp", plan.spec,
                                           sparsity, plan.layer_name,
                                           plan.bp_engine, input_error, crop)
        return LayerPlan(
            layer_name=plan.layer_name,
            spec=plan.spec,
            fp_engine=plan.fp_engine,
            bp_engine=bp_engine,
            fp_timings=plan.fp_timings,
            bp_timings=bp_timings,
            sparsity=sparsity,
        )
