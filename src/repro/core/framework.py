"""spg-CNN: the top-level optimization framework (paper Sec. 4).

:class:`SpgCNN` attaches to a trainable :class:`repro.nn.network.Network`,
plans every convolution layer's FP with the autotuner, deploys the
chosen engines onto the layers, plans BP at the error-gradient sparsity
of the first training step, and periodically re-checks that choice as
the sparsity drifts (Sec. 4.4).

Every entry point opens a telemetry span (``spg/optimize``, or
``spg/replan`` for the first BP plan and each recheck) carrying how many
candidates the cost backend priced by running them (``measured``) and
how many it answered from its memo (``memo_hits``), so the cost of
tuning can be read off a run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

from repro import telemetry
from repro.core.autotuner import Autotuner, CostBackend
from repro.core.plan import (
    BP_CANDIDATES,
    FALLBACK_ENGINE,
    FP_CANDIDATES,
    ExecutionPlan,
    LayerPlan,
)
from repro.errors import PlanError
from repro.nn.network import Network
from repro.nn.sgd import StepResult
from repro.ops.engine import make_engine


@dataclass(frozen=True)
class RetuneEvent:
    """Record of one BP re-selection during training."""

    epoch: int
    layer_name: str
    old_engine: str
    new_engine: str
    sparsity: float


class SpgCNN:
    """Deploys and maintains the fastest per-layer engine configuration."""

    def __init__(
        self,
        network: Network,
        backend: CostBackend,
        recheck_epochs: int = 2,
    ):
        if recheck_epochs <= 0:
            raise PlanError(f"recheck_epochs must be positive, got {recheck_epochs}")
        self.network = network
        self.autotuner = Autotuner(backend)
        self.recheck_epochs = recheck_epochs
        self._plans: dict[str, LayerPlan] = {}
        #: Layer -> candidate -> why it runs on the reference.
        self._reasons: dict[str, dict[str, str]] = {}
        self.retune_events: list[RetuneEvent] = []
        self._bp_planned = False

    # -- planning and deployment ------------------------------------------

    def _needs_input_error(self, layer) -> bool:
        """Whether training reads the layer's input error: the SGD step
        discards the image gradient, so the first layer's BP is dW only."""
        return layer is not self.network.layers[0]

    @contextmanager
    def _tuning_span(self, name: str, **attrs) -> Iterator[None]:
        """A span annotated with what the backend did inside it."""
        backend = self.autotuner.backend
        measured, memo_hits = backend.measured, backend.memo_hits
        with telemetry.span(name, **attrs) as span:
            yield
            span.annotate(measured=backend.measured - measured,
                          memo_hits=backend.memo_hits - memo_hits)

    def _deployed(self, layer, plan: LayerPlan) -> LayerPlan:
        """``plan`` as it now runs on ``layer``: with the lowerings of
        the engines the layer actually built, why any candidate was
        timed on the reference, and the fused unit its FP runs as, if
        any -- resolved here, so a cold build is set-up."""
        pool = self.network.run_pool(layer)
        unit = layer.fused_unit(pool) if pool is not None else None
        return replace(plan, fp_lowering=layer.fp_lowering or "",
                       bp_lowering=layer.bp_lowering or "",
                       fused=unit.artifact if unit is not None else "",
                       lowering_reasons=self._reasons[layer.name])

    def optimize(self) -> ExecutionPlan:
        """Plan FP for every conv layer and deploy the chosen engines.

        BP stays on each layer's engine until :meth:`after_batch` plans
        it at the error sparsity the first training step measured.  Only
        a BP engine the plan cannot carry (one outside the BP
        candidates) is replaced up front, planned for a dense error.

        Every candidate is constructed once here, and so is the fused
        conv + ReLU + max-pool unit of a layer whose FP is deployed on
        the C stencil kernel, so whatever their generated kernels need --
        a cold C compile and its self-check, the load -- is paid during
        set-up and neither a recheck between two training steps nor the
        first step finds it unbuilt.  Why a candidate's kernels run on
        the reference instead, if they do, is recorded in every plan.
        """
        conv_layers = self.network.conv_layers()
        if not conv_layers:
            raise PlanError("network has no convolution layers to optimize")
        plans = []
        with self._tuning_span("spg/optimize", layers=len(conv_layers)):
            for layer in conv_layers:
                engines = [make_engine(name, layer.padded_spec) for name
                           in dict.fromkeys(FP_CANDIDATES + BP_CANDIDATES)]
                self._reasons[layer.name] = {
                    engine.name: engine.lowering_reason for engine in engines
                    if engine.lowering == "reference"}
                deployed = (layer.fp_engine_name, layer.bp_engine_name)
                if deployed[1] in BP_CANDIDATES + (FALLBACK_ENGINE,):
                    plan = self.autotuner.plan_fp(
                        layer.padded_spec, layer.name, deployed)
                else:
                    plan = self.autotuner.plan_layer(
                        layer.padded_spec,
                        layer_name=layer.name,
                        deployed=deployed,
                        input_error=self._needs_input_error(layer),
                        crop=layer.spec.pad,
                    )
                if plan.fp_engine != deployed[0]:
                    layer.set_fp_engine(plan.fp_engine)
                if plan.bp_engine != deployed[1]:
                    layer.set_bp_engine(plan.bp_engine)
                plan = self._plans[layer.name] = self._deployed(layer, plan)
                plans.append(plan)
        return ExecutionPlan(layers=tuple(plans))

    @property
    def plan(self) -> ExecutionPlan:
        """The currently deployed plan."""
        if not self._plans:
            raise PlanError("optimize() has not been called yet")
        return ExecutionPlan(layers=tuple(self._plans.values()))

    # -- BP planning and periodic re-tuning ---------------------------------

    def after_batch(self, epoch: int, batch: int,
                    result: StepResult) -> list[RetuneEvent]:
        """Hook for :meth:`TrainingLoop.add_batch_hook
        <repro.nn.training_loop.TrainingLoop.add_batch_hook>`.

        After the first step that was applied (a skipped step measured
        nothing), plans the BP technique of each conv layer at the error
        sparsity that step measured and re-deploys any changed choice,
        between that step and the next, as :meth:`after_epoch` does.
        Every later call returns at once.  Returns the changes made.
        """
        if not self._plans:
            raise PlanError("optimize() has not been called yet")
        if self._bp_planned or result.skipped:
            return []
        self._bp_planned = True
        return self._replan_bp(epoch, batch=batch)

    def after_epoch(self, epoch: int) -> list[RetuneEvent]:
        """Hook to call after each training epoch (1-based).

        Every ``recheck_epochs`` epochs, re-evaluates the BP technique of
        each conv layer at its *measured* error sparsity and re-deploys
        any changed choice.  Returns the changes made this call.
        """
        if epoch <= 0:
            raise PlanError(f"epoch must be positive, got {epoch}")
        if not self._plans:
            raise PlanError("optimize() has not been called yet")
        if epoch % self.recheck_epochs != 0:
            return []
        return self._replan_bp(epoch)

    def _replan_bp(self, epoch: int, **attrs) -> list[RetuneEvent]:
        """Re-select every conv layer's BP at its measured sparsity."""
        events = []
        with self._tuning_span("spg/replan", epoch=epoch, **attrs):
            for layer in self.network.conv_layers():
                old_plan = self._plans[layer.name]
                sparsity = layer.last_error_sparsity
                new_plan = self.autotuner.replan_bp(
                    old_plan, sparsity,
                    input_error=self._needs_input_error(layer),
                    crop=layer.spec.pad)
                retuned = new_plan.bp_engine != old_plan.bp_engine
                if retuned:
                    layer.set_bp_engine(new_plan.bp_engine)
                self._plans[layer.name] = self._deployed(layer, new_plan)
                if retuned:
                    events.append(
                        RetuneEvent(
                            epoch=epoch,
                            layer_name=layer.name,
                            old_engine=old_plan.bp_engine,
                            new_engine=new_plan.bp_engine,
                            sparsity=sparsity,
                        )
                    )
        for ev in events:
            telemetry.event(
                "retune",
                epoch=ev.epoch,
                layer=ev.layer_name,
                old_engine=ev.old_engine,
                new_engine=ev.new_engine,
                sparsity=ev.sparsity,
            )
        telemetry.add("retune.checks", 1)
        telemetry.add("retune.count", len(events))
        self.retune_events.extend(events)
        return events
