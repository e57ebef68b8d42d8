"""The convolution layer, with pluggable execution engines.

This is where spg-CNN attaches: the layer's FP and BP computations are
delegated to :class:`repro.ops.engine.ConvEngine` instances that can be
swapped independently for each phase (``set_fp_engine`` /
``set_bp_engine``), exactly as the paper's framework deploys the fastest
technique per layer and per phase (Sec. 4.4).

The layer also measures the sparsity of the incoming error gradients on
every backward pass, which both reproduces Fig. 3b and drives the
autotuner's periodic BP re-selection.

When constructed with ``threads > 1`` (a private
:class:`repro.runtime.pool.WorkerPool`) or ``pool=`` (one shared by the
whole network -- what :func:`repro.nn.netdef.build_network` passes) the
layer executes its engines through a
:class:`repro.runtime.parallel.ParallelExecutor`, so a direct
``forward``/``backward`` call runs the paper's image-level parallel
schedule on real workers.  A *training step* of a pooled network does
not come through here at all: the trainer shards the whole step over the
same pool (:class:`repro.runtime.parallel.ShardedStep`) and each worker
runs an inline replica of this layer built from :meth:`structure`.

Padding: engines see the padded geometry only.  The training forward
copies the batch into a persistent zero-bordered buffer (the border is
written once, at allocation) which is also what ``backward`` later
differentiates against; an evaluation forward pads into a fresh array so
it can never overwrite that cache.  On the way back the layer asks the
BP engine for the input error *without* the pad border
(``backward_data(..., crop=pad)``), which the GEMM engines compute as a
forward correlation that never materialises the border (see
:mod:`repro.ops.gemm_conv`).

Handed the max-pool after its ReLU (``pool=``, what
:class:`repro.nn.network.Network` does for every ``conv -> ReLU ->
max-pool`` run) the layer computes ``pool(relu(conv(x)))`` and its
backward: one C pass and one C scatter where :meth:`ConvLayer.fused_unit`
has a unit (bitwise the chain, which is what admits it), the chain
itself otherwise or when a value is not finite.  On the C stencil FP
kernel the unit computes the conv too; on a GEMM FP engine it is the
*epilogue* of the engine's guarded output (bias, ReLU, pool, argmax).

Every FP/BP pass emits a telemetry span (``<name>/fp``, ``<name>/bp``)
and the backward pass additionally records total/useful flop counters
and a measured goodput gauge (Eqs. 9-10) -- no-ops unless a collector is
active (see :mod:`repro.telemetry`).

Every engine call runs behind a numeric guard: if a generated kernel
raises, returns the wrong shape, or produces non-finite values from
finite inputs, the engine is quarantined for this layer/phase (see
:mod:`repro.resilience.quarantine`), the pass is transparently re-run on
the dense reference path, and an ``engine.fallback`` telemetry event
records the degradation.  The autotuner consults the same quarantine
registry, so a benched kernel is never re-deployed onto the layer it
failed on.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, cast

import numpy as np

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.core.goodput import measure_sparsity, nonzero_conv_flops
from repro.core.plan import FALLBACK_ENGINE
from repro.errors import InjectedFault, ShapeError
from repro.nn.layers.base import Layer, LayerStructure
from repro.nn.layers.pool import MaxPoolLayer
from repro.ops.engine import ConvEngine, NativeLowering, make_engine
from repro.ops.workspace import Workspace
from repro.resilience import faults
from repro.resilience.quarantine import QuarantineRegistry, default_registry
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool
from repro.sparse.engine import SparseBPEngine
from repro.stencil.loopir import PoolWindow

# Engine modules register themselves on import.
import repro.ops.gemm_conv  # noqa: F401
import repro.ops.reference_engine  # noqa: F401
import repro.stencil.engine  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - loaded only where a unit is built
    from repro.stencil.emit_c import NativeEpilogueKernels, NativeStencilKernels

    FusedUnit = NativeStencilKernels | NativeEpilogueKernels

DEFAULT_FP_ENGINE = "gemm-in-parallel"
DEFAULT_BP_ENGINE = "gemm-in-parallel"
#: FP engines whose conv output a GEMM epilogue unit pools.
_GEMM_ENGINES = ("parallel-gemm", "gemm-in-parallel")


class ConvLayer(Layer):
    """2-D convolution with bias, padding handled internally."""

    kind = "conv"

    def __init__(
        self,
        spec: ConvSpec,
        name: str = "",
        fp_engine: str = DEFAULT_FP_ENGINE,
        bp_engine: str = DEFAULT_BP_ENGINE,
        num_cores: int = 1,
        threads: int | None = None,
        backend: str = "thread",
        rng: np.random.Generator | None = None,
        quarantine: QuarantineRegistry | None = None,
        pool: WorkerPool | None = None,
    ):
        super().__init__(name or spec.name or self.kind)
        self.spec = spec
        # Engines operate on the padded geometry.
        self.padded_spec = spec.pre_padded()
        self.num_cores = num_cores
        self.threads = pool.num_workers if pool is not None else threads
        self.backend = pool.backend_name if pool is not None else backend
        # One pool serves the FP and BP executors (and, when the network
        # passed it in, every other layer and the sharded step); engines
        # swapped by the autotuner reuse it rather than spawning workers.
        self._pool = pool if pool is not None else self._build_pool()
        rng = rng or np.random.default_rng(0)
        fan_in = spec.nc * spec.fy * spec.fx
        scale = np.sqrt(2.0 / fan_in)
        self.weights = (rng.standard_normal(spec.weight_shape) * scale).astype(np.float32)
        self.bias = np.zeros(spec.nf, dtype=np.float32)
        self.d_weights = np.zeros_like(self.weights)
        self.d_bias = np.zeros_like(self.bias)
        self._quarantine = quarantine or default_registry()
        self._fp_engine = self._build_engine(fp_engine)
        self._bp_engine = self._build_engine(bp_engine)
        self._cached_padded_input: np.ndarray | None = None
        # What the last training forward given a pool keeps for the
        # backward given it: ``(unit, pooled out, argmax)`` when it ran
        # fused, ``(None, ReLU mask, None)`` when it ran the chain.
        self._pooled: tuple | None = None
        # ``(FP engine, {pool window: fused unit or None})``: resolved
        # once per deployed FP engine.
        self._fusion: tuple[object, dict] = (None, {})
        # Holds the training path's zero-bordered batch (``_pad_batch``)
        # and the fused unit's scratch.
        self._workspace = Workspace()
        #: Sparsity of the most recent incoming error gradient.
        self.last_error_sparsity: float = 0.0

    # -- engine management ----------------------------------------------

    def _build_pool(self) -> WorkerPool | None:
        if self.threads and self.threads > 1:
            return WorkerPool(self.threads, backend=self.backend)
        return None

    def _build_engine(self, engine_name: str) -> ConvEngine | ParallelExecutor:
        # The reference fallback takes no tuning knobs.
        kwargs = {} if engine_name == FALLBACK_ENGINE else {"num_cores": self.num_cores}
        if self._pool is not None:
            return ParallelExecutor(
                engine_name, self.padded_spec, pool=self._pool, **kwargs
            )
        return make_engine(engine_name, self.padded_spec, **kwargs)

    @staticmethod
    def _retire_engine(engine: ConvEngine | ParallelExecutor | None) -> None:
        """Free a replaced engine's workspaces (shm segments, scratch)."""
        release = getattr(engine, "release_workspace", None)
        if release is not None:
            release()

    def close(self) -> None:
        """Release engine workspaces and shut down the worker pool.

        Idempotent, and enough on its own for a shared pool: shutting it
        down also releases what the sharded step keeps there (parameter,
        batch and gradient segments, see ``WorkerPool.at_shutdown``).
        """
        self._retire_engine(self._fp_engine)
        self._retire_engine(self._bp_engine)
        if self._pool is not None:
            self._pool.shutdown()

    def structure(self) -> LayerStructure:
        return (self.kind, self.name, (
            ("spec", self.spec),
            ("fp_engine", self.fp_engine_name),
            ("bp_engine", self.bp_engine_name),
            ("num_cores", self.num_cores),
            ("fp_artifact", self.fp_artifact),
            ("bp_artifact", self.bp_artifact),
        ))

    @property
    def fp_engine_name(self) -> str:
        """Name of the engine currently serving forward propagation."""
        return self._fp_engine.name

    @property
    def bp_engine_name(self) -> str:
        """Name of the engine currently serving backward propagation."""
        return self._bp_engine.name

    def _lowered(self, phase: str, what: str) -> str | None:
        """``what`` of ``phase``'s engine, if it describes the kernels
        that engine runs in this phase (stencil: FP only; sparse: BP)."""
        engine = getattr(self, f"_{phase}_engine")
        return getattr(engine, what) if phase in engine.lowered_phases \
            else None

    @property
    def fp_lowering(self) -> str | None:
        """What the FP engine's generated FP kernels were lowered to
        (``"c"`` / ``"reference"``); ``None`` where they have one form."""
        return self._lowered("fp", "lowering")

    @property
    def bp_lowering(self) -> str | None:
        """The same for the BP engine's BP kernels."""
        return self._lowered("bp", "lowering")

    @property
    def fp_artifact(self) -> str | None:
        """Which compiled unit the FP engine computes FP with, if any.

        Part of :meth:`structure`: a step shard's replica must compute
        with the same machine code (same summation order) as every other
        shard, so it is told which and reports a mismatch as an engine
        failure (:class:`ReplicaConvLayer`).
        """
        return self._lowered("fp", "artifact")

    @property
    def bp_artifact(self) -> str | None:
        """The same for the BP engine's BP kernels."""
        return self._lowered("bp", "artifact")

    def _admitted(self, phase: str, engine_name: str) -> str:
        """The engine to actually deploy: benched engines become fallback."""
        if (engine_name != FALLBACK_ENGINE
                and self._quarantine.is_quarantined(self.name, phase,
                                                    engine_name)):
            telemetry.event("engine.deploy_blocked", layer=self.name,
                            phase=phase, engine=engine_name)
            return FALLBACK_ENGINE
        return engine_name

    def set_fp_engine(self, engine_name: str) -> None:
        """Swap the forward-propagation engine (spg-CNN deployment)."""
        self._retire_engine(self._fp_engine)
        self._fp_engine = self._build_engine(self._admitted("fp", engine_name))

    def set_bp_engine(self, engine_name: str) -> None:
        """Swap the backward-propagation engine (spg-CNN deployment)."""
        self._retire_engine(self._bp_engine)
        self._bp_engine = self._build_engine(self._admitted("bp", engine_name))

    # -- guarded execution ------------------------------------------------

    def _expected_shape(self, method: str, batch: int) -> tuple[int, ...]:
        if method == "forward":
            return (batch,) + self.padded_spec.output_shape
        if method == "backward_data":
            # The engines crop the pad border (``crop=spec.pad``).
            return (batch,) + self.spec.input_shape
        return self.padded_spec.weight_shape

    def _numeric_failure(self, method: str, batch: int,
                         out: np.ndarray) -> str | None:
        """Why the output fails the guard, or None when it is sound."""
        expected = self._expected_shape(method, batch)
        if not isinstance(out, np.ndarray) or tuple(out.shape) != expected:
            got = tuple(out.shape) if isinstance(out, np.ndarray) else type(out)
            return f"{method} returned shape {got}, expected {expected}"
        if not np.isfinite(out).all():
            return f"{method} produced non-finite values"
        return None

    def degrade(self, phase: str, engine_name: str, reason: str) -> None:
        """Quarantine a misbehaving engine and deploy the fallback.

        Called by the guard below, and by the sharded step for a failure
        one of this layer's worker-side replicas reported.
        """
        self._quarantine.quarantine(self.name, phase, engine_name,
                                    reason=reason)
        telemetry.add("engine.fallbacks", 1)
        telemetry.event("engine.fallback", layer=self.name, phase=phase,
                        engine=engine_name, reason=reason)
        self._deploy_fallback(phase)

    def _deploy_fallback(self, phase: str) -> None:
        fallback = self._build_engine(FALLBACK_ENGINE)
        if phase == "fp":
            self._retire_engine(self._fp_engine)
            self._fp_engine = fallback
        else:
            self._retire_engine(self._bp_engine)
            self._bp_engine = fallback

    def _run_engine(self, phase: str, method: str, primary: np.ndarray,
                    shared: np.ndarray, visited: bool = False,
                    out: np.ndarray | None = None) -> np.ndarray:
        """One engine call behind the numeric guard and fault site.

        ``backward_data`` is asked for the input error without the pad
        border, the only part the layer returns.  ``visited``: a fused
        unit or the sparse unit's pooled export already visited the fault
        site for this call; ``out``: and the export computed its result,
        which only the guard is left to judge.

        A raising engine, a wrong-shape result, or non-finite output from
        finite inputs quarantines the engine and re-runs the call on the
        reference fallback.  Non-finite *inputs* are passed through -- the
        engine is not at fault for poison it was fed, and upstream guards
        (the SGD NaN-batch skip) own that case.
        """
        engine = self._fp_engine if phase == "fp" else self._bp_engine
        options = ({"crop": self.spec.pad} if method == "backward_data"
                   else {})
        if engine.name == FALLBACK_ENGINE:
            return getattr(engine, method)(primary, shared, **options)
        batch = int(primary.shape[0])
        try:
            if out is None:
                if not visited:
                    self._visit_fault_site(phase, method, engine.name)
                out = getattr(engine, method)(primary, shared, **options)
            failure = self._guard(method, batch, out, primary, shared)
            if failure is None:
                return out
        except Exception as error:  # noqa: BLE001 -- any engine failure degrades
            failure = f"{type(error).__name__}: {error}"
        self.degrade(phase, engine.name, failure)
        fallback = self._fp_engine if phase == "fp" else self._bp_engine
        return getattr(fallback, method)(primary, shared, **options)

    def _guard(self, method: str, batch: int, out: np.ndarray,
               primary: np.ndarray, shared: np.ndarray) -> str | None:
        """Why ``out`` of ``method(primary, shared)`` fails the guard, or
        None: it is sound, or the inputs were poisoned -- the engine is
        not at fault for poison it was fed."""
        failure = self._numeric_failure(method, batch, out)
        if failure is None or not (np.isfinite(primary).all()
                                   and np.isfinite(shared).all()):
            return None
        return failure

    def _run_backward(self, out_error: np.ndarray, need_input_error: bool,
                      visited: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """dW and (``need_input_error``) the cropped input error, from
        one :meth:`ConvEngine.backward` call behind the guard.

        The ``engine.bp`` fault site is visited for dW (unless
        ``visited``) and then for BP-data, as the two separate calls
        visit it, and each output is judged as :meth:`_run_engine` judges
        it.  A raise at dW's visit, a raising engine or a failed dW
        degrades the engine and the fallback computes both; a raise at
        BP-data's visit or a failed input error, BP-data only.
        """
        engine = self._bp_engine
        padded, crop = self._cached_padded_input, self.spec.pad
        if engine.name == FALLBACK_ENGINE:
            return engine.backward(out_error, padded, self.weights, crop,
                                   need_input_error)
        batch = int(out_error.shape[0])
        data_fault = None
        try:
            if not visited:
                self._visit_fault_site("bp", "backward_weights", engine.name)
            if need_input_error:
                try:
                    self._visit_fault_site("bp", "backward_data",
                                           engine.name)
                except Exception as error:  # noqa: BLE001 -- BP-data's own
                    data_fault = f"{type(error).__name__}: {error}"
            if data_fault is None:
                d_weights, in_error = engine.backward(
                    out_error, padded, self.weights, crop, need_input_error)
            else:
                d_weights = engine.backward_weights(out_error, padded)
            failure = self._guard("backward_weights", batch, d_weights,
                                  out_error, padded)
        except Exception as error:  # noqa: BLE001 -- as in _run_engine
            failure = f"{type(error).__name__}: {error}"
        if failure is not None:
            self.degrade("bp", engine.name, failure)
            return self._bp_engine.backward(out_error, padded, self.weights,
                                            crop, need_input_error)
        if data_fault is not None:
            self.degrade("bp", engine.name, data_fault)
            in_error = self._bp_engine.backward_data(out_error, self.weights,
                                                     crop=crop)
        elif need_input_error:
            in_error = self._run_engine("bp", "backward_data", out_error,
                                        self.weights, visited=True,
                                        out=in_error)
        return d_weights, in_error

    def _visit_fault_site(self, phase: str, method: str,
                          engine_name: str) -> None:
        faults.perturb(f"engine.{phase}", layer=self.name,
                       engine=engine_name, method=method)

    def rehearse_engine_faults(self, phase: str,
                               need_input_error: bool = True) -> None:
        """Visit the ``engine.<phase>`` fault site as one step's engine
        calls of that phase would, without running them.

        For a sharded step, whose engine calls run in worker replicas
        that visit no site: the parent rehearses them before dispatch,
        once per call as inline, so a plan fires at the same invocation
        under every backend.  A fired raise degrades the engine exactly
        as the guard above does; the step's replicas are then built with
        the fallback.
        """
        methods = ("forward",) if phase == "fp" else (
            ("backward_weights", "backward_data") if need_input_error
            else ("backward_weights",))
        for method in methods:
            engine = self._fp_engine if phase == "fp" else self._bp_engine
            if engine.name == FALLBACK_ENGINE:
                return
            try:
                self._visit_fault_site(phase, method, engine.name)
            except InjectedFault as error:
                self.degrade(phase, engine.name,
                             f"{type(error).__name__}: {error}")

    # -- fusion with the ReLU + max-pool that follow ------------------------

    def fused_unit(self, pool: MaxPoolLayer) -> FusedUnit | None:
        """The compiled unit that ``forward(..., pool=pool)`` runs its
        bias + ReLU + max-pool in, or ``None``: the chain runs.

        A unit serves where the chain's conv runs inline (a pooled layer
        maps its FP over the workers instead; its step shards' inline
        replicas fuse, see :meth:`fused_artifact`) on the C stencil
        kernel -- the fused unit, which computes the conv too
        (:func:`repro.stencil.emit_c.load_stencil_kernels`) -- or on a
        GEMM engine -- the epilogue of its output
        (:func:`repro.stencil.emit_c.load_epilogue_kernels`) -- and the
        unit of ``(padded spec, pool window)`` resolves: either was
        admitted only bitwise equal to the chain it replaces, forward
        and backward.  Resolved once per deployed FP engine.
        """
        return self._fused(pool) if self._pool is None else None

    def fused_artifact(self, pool: MaxPoolLayer) -> str | None:
        """Which fused unit an inline copy of this layer runs for
        ``pool``'s window, if any: what a step shard's replica must load
        (:meth:`repro.nn.network.Network.structure`)."""
        unit = self._fused(pool)
        return unit.artifact if unit is not None else None

    def _fused(self, pool: MaxPoolLayer) -> FusedUnit | None:
        """:meth:`fused_unit` of this layer run inline."""
        engine, units = self._fusion
        if engine is not self._fp_engine:
            engine, units = self._fusion = (self._fp_engine, {})
        window = PoolWindow(pool.kernel, pool.stride)
        if window not in units:
            units[window] = self._load_fused(window)
        return units[window]

    def _load_fused(self, window: PoolWindow) -> FusedUnit | None:
        from repro import native
        from repro.stencil import emit_c

        if self.fp_engine_name == "stencil" and self.fp_lowering == "c":
            return native.kernels_for(emit_c.load_stencil_kernels,
                                      self.padded_spec, window)[0]
        if self.fp_engine_name in _GEMM_ENGINES:
            return native.kernels_for(emit_c.load_epilogue_kernels,
                                      self.padded_spec, window)[0]
        return None

    def _run_fused(self, unit: NativeStencilKernels, padded: np.ndarray,
                   training: bool) -> np.ndarray | None:
        """The fused unit's pooled output behind the FP fault site and
        guard, or ``None`` where the chain must run instead: the unit
        raised (degraded here, as the guard degrades a raising engine) or
        read a non-finite conv output (the guard then judges the chain's
        conv: an engine fault, or poison in the input)."""
        engine = self.fp_engine_name
        try:
            self._visit_fault_site("fp", "forward", engine)
            out, argmax, nonfinite = unit.fused_forward(
                padded, self.weights, self.bias,
                unit.scratch(self._workspace))
        except Exception as error:  # noqa: BLE001 -- as in _run_engine
            self.degrade("fp", engine, f"{type(error).__name__}: {error}")
            return None
        if nonfinite:
            return None
        if training:
            self._pooled = (unit, out, argmax)
        return out

    def _run_epilogue(self, unit: NativeEpilogueKernels, out: np.ndarray,
                      training: bool) -> np.ndarray | None:
        """The epilogue's pooled output of the guarded conv output
        ``out``, or ``None`` where the chain must run instead: ``out``
        is not an array the unit reads, or holds a value that is not
        finite once biased (the chain's ``np.maximum`` keeps a NaN)."""
        if not NativeLowering._native_operands(out):
            return None
        pooled, argmax, nonfinite = unit.pool(out, self.bias)
        if nonfinite:
            return None
        if training:
            self._pooled = (unit, pooled, argmax)
        return pooled

    def _relu_pool(self, out: np.ndarray, pool: MaxPoolLayer,
                   training: bool) -> np.ndarray:
        """``pool(relu(out))`` as the chain's layers compute it."""
        if training:
            self._pooled = (None, out > 0, None)
        return pool.forward(np.maximum(out, 0), training)

    def _unpool(self, out_error: np.ndarray,
                pool: MaxPoolLayer) -> np.ndarray:
        """The conv-shaped error of ``pool``'s output error: the ReLU +
        max-pool backward of the last training ``forward(..., pool=)``."""
        if self._pooled is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        unit, out, argmax = self._pooled
        if unit is not None:
            conv_error, rejected = unit.unpool(
                out, argmax, np.ascontiguousarray(out_error))
            if not rejected:
                return conv_error
            # A non-finite error, which the chain's backward spreads over
            # its whole window: rebuild the chain's caches and run it.
            act = self._fp_engine.forward(self._cached_padded_input,
                                          self.weights)
            act += self.bias[None, :, None, None]
            self._relu_pool(act, pool, training=True)
        return pool.backward(out_error) * self._pooled[1]

    def _pooled_backward(self, out_error: np.ndarray, pool: MaxPoolLayer
                         ) -> tuple[np.ndarray, np.ndarray | None,
                                    int | None, bool]:
        """:meth:`_unpool` of ``out_error`` and, where the sparse unit's
        pooled export serves, the dW and non-zero count it computed from
        the pooled error in the same C pass.

        The export serves after a fused forward, with the BP engine the
        inline sparse one lowered to C and a window that does not
        overlap; it stands in for ``backward_weights`` at the ``engine.bp``
        fault site (visited once, then not again by that call) and a
        raise there degrades the engine.  A poisoned error replays the
        chain, as :meth:`_unpool` does.  Returns ``(conv error, dW or
        None, non-zeros or None, whether the fault site was visited)``.
        """
        engine = self._bp_engine
        if (self._pooled is None or self._pooled[0] is None
                or not isinstance(engine, SparseBPEngine)):
            return self._unpool(out_error, pool), None, None, False
        _, out, argmax = self._pooled
        try:
            self._visit_fault_site("bp", "backward_weights", engine.name)
            served = engine.pooled_backward(
                out, argmax, np.ascontiguousarray(out_error),
                PoolWindow(pool.kernel, pool.stride),
                self._cached_padded_input)
        except Exception as error:  # noqa: BLE001 -- as in _run_engine
            self.degrade("bp", engine.name, f"{type(error).__name__}: {error}")
            served = None
        if served is None or served[3]:
            return self._unpool(out_error, pool), None, None, True
        return served[0], served[1], served[2], True

    # -- Layer interface -------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weights": self.d_weights, "bias": self.d_bias}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if tuple(input_shape) != self.spec.input_shape:
            raise ShapeError(
                f"layer {self.name}: input shape {input_shape} != "
                f"spec {self.spec.input_shape}"
            )
        return self.spec.output_shape

    def _pad_batch(self, inputs: np.ndarray,
                   training: bool = False) -> np.ndarray:
        """The batch at the engines' (padded) geometry.

        A training forward fills the interior of one persistent
        zero-bordered buffer -- the array ``_cached_padded_input`` then
        points at until the next training forward.  Any other caller
        gets a fresh array, so an evaluation pass in between leaves the
        cached activations intact.
        """
        if self.spec.pad == 0:
            return inputs
        p = self.spec.pad
        if not training:
            return np.pad(inputs, ((0, 0), (0, 0), (p, p), (p, p)))
        buf = self._workspace.zeroed_once(
            "padded_batch", (inputs.shape[0],) + self.padded_spec.input_shape,
            inputs.dtype)
        buf[:, :, p:-p, p:-p] = inputs
        return buf

    def forward(self, inputs: np.ndarray, training: bool = True,
                pool: MaxPoolLayer | None = None) -> np.ndarray:
        """The layer's output or, given ``pool`` (the max-pool after this
        layer's ReLU), ``pool(relu(output))``: fused where
        :meth:`fused_unit` has a unit, else as the chain."""
        if inputs.ndim != 4 or inputs.shape[1:] != self.spec.input_shape:
            raise ShapeError(
                f"layer {self.name}: batch input shape {inputs.shape} != "
                f"(B, *{self.spec.input_shape})"
            )
        padded = self._pad_batch(inputs, training)
        if training:
            self._cached_padded_input = padded
            self._pooled = None
        unit = self.fused_unit(pool) if pool is not None else None
        if unit is not None and not NativeLowering._native_operands(
                padded, self.weights, self.bias):
            unit = None
        fused = unit is not None and not unit.takes_conv_output
        with telemetry.span(f"{self.name}/fp", layer=self.name, phase="fp",
                            engine=self.fp_engine_name,
                            batch=int(inputs.shape[0]),
                            lowering=self.fp_lowering,
                            **({} if unit is None else {"fused": "relu+pool"})):
            if fused:
                pooled = self._run_fused(
                    cast("NativeStencilKernels", unit), padded, training)
                if pooled is not None:
                    return pooled
            out = self._run_engine("fp", "forward", padded, self.weights,
                                   visited=fused)
            if unit is not None and not fused:
                pooled = self._run_epilogue(
                    cast("NativeEpilogueKernels", unit), out, training)
                if pooled is not None:
                    return pooled
            out += self.bias[None, :, None, None]
        return out if pool is None else self._relu_pool(out, pool, training)

    def backward(self, out_error: np.ndarray, need_input_error: bool = True,
                 pool: MaxPoolLayer | None = None) -> np.ndarray | None:
        """Accumulate dW/db and return the input error.

        With ``need_input_error=False`` the BP-data call is skipped and
        ``None`` returned: nothing consumes the error of the layer the
        images feed (see :meth:`repro.nn.network.Network.backward`).
        Given ``pool``, ``out_error`` is the pool's output error and the
        ReLU + max-pool backward of the last ``forward(..., pool=pool)``
        runs first.
        """
        if self._cached_padded_input is None:
            raise ShapeError(f"layer {self.name}: backward before forward")
        batch = int(out_error.shape[0])
        in_error = d_weights = nonzero = None
        visited = False
        start = time.perf_counter()
        with telemetry.span(f"{self.name}/bp", layer=self.name, phase="bp",
                            engine=self.bp_engine_name, batch=batch,
                            lowering=self.bp_lowering) as span:
            if pool is not None:
                out_error, d_weights, nonzero, visited = \
                    self._pooled_backward(out_error, pool)
            if nonzero is None:
                sparsity = measure_sparsity(out_error)
            else:
                # measure_sparsity's count, from the export's.
                sparsity = (out_error.size - nonzero) / out_error.size
                span.annotate(fused="relu+pool")
            self.last_error_sparsity = sparsity
            span.annotate(sparsity=sparsity)
            if d_weights is None:
                d_weights, in_error = self._run_backward(
                    out_error, need_input_error, visited)
            else:
                # The pooled export computed dW; only the guard judges it.
                d_weights = self._run_engine(
                    "bp", "backward_weights", out_error,
                    self._cached_padded_input, visited=True, out=d_weights)
                if need_input_error:
                    in_error = self._run_engine(
                        "bp", "backward_data", out_error, self.weights)
            self.d_weights += d_weights
            self.d_bias += out_error.sum(axis=(0, 2, 3))
        elapsed = max(time.perf_counter() - start, 1e-9)
        # dW (+ EI when computed) at the engine-facing (padded)
        # geometry, dense count.
        total_flops = ((2.0 if need_input_error else 1.0)
                       * batch * self.padded_spec.flops)
        useful_flops = nonzero_conv_flops(total_flops, sparsity)
        telemetry.add("conv.flops.total", total_flops)
        telemetry.add("conv.flops.useful", useful_flops)
        telemetry.gauge(f"goodput.{self.name}", useful_flops / elapsed)
        telemetry.gauge(f"throughput.{self.name}", total_flops / elapsed)
        return in_error


class ReplicaConvLayer(ConvLayer):
    """A conv layer inside a step shard's replica of the network.

    Its numeric guard still swaps a failed engine for the fallback and
    re-runs the call, but the failure is *reported*, not recorded: the
    quarantine registry and the telemetry are the parent's, which applies
    :meth:`ConvLayer.degrade` to the layer this one replicates.  It
    visits no fault site either: the parent rehearsed this step's
    (:meth:`ConvLayer.rehearse_engine_faults`).
    """

    def __init__(self, *args, fp_artifact: str | None = None,
                 bp_artifact: str | None = None,
                 fused_artifact: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._failures: list[tuple[str, str, str]] = []
        self._fused_artifact = fused_artifact
        for phase, planned in (("fp", fp_artifact), ("bp", bp_artifact)):
            loaded = getattr(self, f"{phase}_artifact")
            if loaded != planned:
                # Not the machine code the parent's structure names (no
                # compiler here, an unloadable cache entry, another host):
                # computing on would silently put this shard in another
                # summation order than its siblings.
                self.degrade(
                    phase, getattr(self, f"{phase}_engine_name"),
                    f"replica loaded {phase.upper()} artefact {loaded!r}, "
                    f"the step was planned on {planned!r}")

    def _load_fused(self, window: PoolWindow) -> FusedUnit | None:
        """The planned fused unit, or ``None``: the chain runs.  A unit
        the step was planned on but this replica cannot load the same is
        an FP failure (unless the FP engine already failed over)."""
        unit = super()._load_fused(window)
        loaded = unit.artifact if unit is not None else None
        planned = self._fused_artifact
        if loaded == planned:
            return unit
        if planned is not None and self.fp_engine_name != FALLBACK_ENGINE:
            self._failures.append((
                "fp", self.fp_engine_name,
                f"replica loaded fused artefact {loaded!r}, the step was "
                f"planned on {planned!r}"))
        return None

    def _visit_fault_site(self, phase: str, method: str,
                          engine_name: str) -> None:
        pass

    def degrade(self, phase: str, engine_name: str, reason: str) -> None:
        self._failures.append((phase, engine_name, reason))
        self._deploy_fallback(phase)

    def take_failures(self) -> list[tuple[str, str, str]]:
        """``(phase, engine, reason)`` of each swap since the last call."""
        failures, self._failures = self._failures, []
        return failures
