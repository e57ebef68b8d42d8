"""The fused conv+ReLU+max-pool layer (schedulable loop IR payoff).

Georganas et al.'s anatomy of SIMD convolutions prescribes operator
fusion as the single biggest memory-traffic win: conv, ReLU and pooling
emitted as *one* kernel mean the full-size activation and pre-pool
tensors never reach memory.  This layer executes exactly that kernel --
the ``fuse`` schedule pass applied to the conv+ReLU+pool nest
(:func:`repro.stencil.loopir.fused_fp_nest`) and emitted by
:func:`repro.stencil.emit.emit_fused_forward_kernel`.

Bit-exactness contract: the fused forward is bitwise identical to the
unfused chain ``ConvLayer(stencil FP) -> ReLULayer -> MaxPoolLayer``,
because the emission accumulates the same taps in the same order over
row blocks (spatial blocking of the accumulating ``np.tensordot`` is
bit-exact) and reduces pool windows with a strided-view / ``argmax`` /
``take_along_axis`` sequence that selects the same element (the first
maximum in row-major window order) as ``MaxPoolLayer``'s tap walk.

The kernel also exists as C (:mod:`repro.stencil.emit_c`;
:class:`repro.ops.engine.NativeLowering` chooses) and the contract holds
lowering by lowering: the C unit runs the conv code of the chain's C
kernel; one of each lowering agrees to rounding only.

Training caches shrink accordingly: the unfused chain keeps the padded
input, the ReLU mask (activation-sized) and the pool argmax; the fused
layer keeps only the padded input, the *pooled* output and the argmax --
the ReLU mask at each window's argmax is recoverable as ``out > 0``, so
the backward pass is also bit-identical (masking the pooled error before
the scatter equals masking the scattered error after it).

The backward convolution reuses the standard engine machinery (stencil
kernels by default, behind a :class:`~repro.runtime.parallel.
ParallelExecutor` when the layer runs on a worker pool), so the fused
layer executes on all three backends -- serial, thread, process -- with
the forward batch partitioned over workers via ``map_batches``.  As for
:class:`~repro.nn.layers.conv.ConvLayer`, that is the path of a direct
``forward``/``backward`` call; a training step of a pooled network runs
inline replicas of this layer inside the sharded step's workers.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.core.goodput import measure_sparsity
from repro.errors import ReproError, ShapeError
from repro.nn.layers.base import Layer, LayerStructure
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.pool import MaxPoolLayer
from repro.ops.engine import ConvEngine, NativeLowering, make_engine
from repro.ops.workspace import Workspace
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.pool import WorkerPool
from repro.stencil.emit import emit_fused_forward_kernel
from repro.stencil.loopir import PoolWindow, chain_estimate, estimate_nest
from repro.stencil.passes import SchedulePipeline, default_pipeline

# Engine modules register themselves on import.
import repro.ops.reference_engine  # noqa: F401
import repro.stencil.engine  # noqa: F401

DEFAULT_BP_ENGINE = "stencil"


def _fused_forward_range(
    spec: ConvSpec, pool: PoolWindow, pipeline: SchedulePipeline | None,
    artifact: str | None, inputs: np.ndarray, weights: np.ndarray,
    bias: np.ndarray, lo: int, hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the fused kernel over images ``[lo, hi)`` (picklable for spawn).

    ``artifact`` names the C unit the layer computes with (``None``: the
    Python lowering); a worker that cannot load that very unit refuses
    rather than compute its range in another summation order.  The
    emitters' and the loader's memos make the lookup free after the
    first call.
    """
    if artifact is not None:
        from repro import native
        from repro.stencil.emit_c import load_stencil_kernels

        kernels, reason = native.kernels_for(load_stencil_kernels, spec,
                                             pipeline, pool)
        if kernels is None or kernels.artifact != artifact:
            raise ReproError(f"fused kernel: the layer computes with artefact "
                             f"{artifact!r}, this worker cannot ({reason})")
        return kernels.fused_forward(inputs[lo:hi], weights, bias,
                                     kernels.scratch(Workspace()))
    kernel = emit_fused_forward_kernel(spec, pool.kernel, pool.stride, pipeline)
    shape = (hi - lo, spec.nf, pool.out_extent(spec.out_ny),
             pool.out_extent(spec.out_nx))
    out = np.zeros(shape, dtype=inputs.dtype)
    argmax = np.zeros(shape, dtype=np.int64)
    for i in range(lo, hi):
        kernel(inputs[i], weights, bias, out[i - lo], argmax[i - lo])
    return out, argmax


class FusedConvReluPool(NativeLowering, Layer):
    """Conv + ReLU + max-pool executed as one generated kernel."""

    kind = "fused-conv-relu-pool"

    def __init__(
        self,
        spec: ConvSpec,
        pool_kernel: int,
        pool_stride: int | None = None,
        name: str = "",
        bp_engine: str = DEFAULT_BP_ENGINE,
        num_cores: int = 1,
        threads: int | None = None,
        backend: str = "thread",
        rng: np.random.Generator | None = None,
        pipeline: SchedulePipeline | None = None,
        pool: WorkerPool | None = None,
    ):
        super().__init__(name or spec.name or self.kind)
        self.spec = spec
        self.padded_spec = spec.pre_padded()
        self.pool = PoolWindow(pool_kernel, pool_stride or pool_kernel)
        self.pool_ny = self.pool.out_extent(self.padded_spec.out_ny)
        self.pool_nx = self.pool.out_extent(self.padded_spec.out_nx)
        self.num_cores = num_cores
        self.threads = pool.num_workers if pool is not None else threads
        self.backend = pool.backend_name if pool is not None else backend
        self.pipeline = pipeline or default_pipeline(
            "fused_fp",
            pool_kernel=self.pool.kernel,
            pool_stride=self.pool.stride,
        )
        # Emit eagerly: a schedule outside the fusion envelope fails at
        # construction, not mid-epoch.
        emit_fused_forward_kernel(
            self.padded_spec, self.pool.kernel, self.pool.stride, self.pipeline
        )
        self._pool = pool
        if pool is None and threads and threads > 1:
            self._pool = WorkerPool(threads, backend=backend)
        rng = rng or np.random.default_rng(0)
        fan_in = spec.nc * spec.fy * spec.fx
        scale = np.sqrt(2.0 / fan_in)
        self.weights = (rng.standard_normal(spec.weight_shape) * scale).astype(
            np.float32
        )
        self.bias = np.zeros(spec.nf, dtype=np.float32)
        self.d_weights = np.zeros_like(self.weights)
        self.d_bias = np.zeros_like(self.bias)
        self._bp_engine = self._build_bp_engine(bp_engine)
        self._resolve_native()
        self._cached_padded_input: np.ndarray | None = None
        self._cached_out: np.ndarray | None = None
        self._cached_argmax: np.ndarray | None = None
        self.last_error_sparsity: float = 0.0

    # -- engine management ----------------------------------------------

    def _build_bp_engine(self, engine_name: str) -> ConvEngine | ParallelExecutor:
        kwargs = {"num_cores": self.num_cores}
        if engine_name == "reference":
            kwargs = {}
        if self._pool is not None:
            return ParallelExecutor(
                engine_name, self.padded_spec, pool=self._pool, **kwargs
            )
        return make_engine(engine_name, self.padded_spec, **kwargs)

    def _native_loader(self) -> tuple:
        from repro.stencil.emit_c import load_stencil_kernels

        return load_stencil_kernels, self.padded_spec, self.pipeline, self.pool

    @property
    def bp_engine_name(self) -> str:
        """Name of the engine serving the backward convolution."""
        return self._bp_engine.name

    @property
    def artifacts(self) -> tuple[str | None, str | None]:
        """Which compiled units the fused kernel and the BP engine's BP
        kernels compute with; shipped in :meth:`structure` so a step
        shard's replica can tell (:class:`ReplicaFusedConvReluPool`)."""
        engine = self._bp_engine
        return (self.artifact,
                engine.artifact if "bp" in engine.lowered_phases else None)

    def structure(self) -> LayerStructure:
        return (self.kind, self.name, (
            ("spec", self.spec),
            ("pool_kernel", self.pool.kernel),
            ("pool_stride", self.pool.stride),
            ("bp_engine", self.bp_engine_name),
            ("num_cores", self.num_cores),
            ("pipeline", self.pipeline),
            ("artifacts", self.artifacts),
        ))

    def close(self) -> None:
        """Release engine workspaces and shut down the worker pool."""
        release = getattr(self._bp_engine, "release_workspace", None)
        if release is not None:
            release()
        if self._pool is not None:
            self._pool.shutdown()

    # -- traffic accounting ----------------------------------------------

    def work_estimates(self) -> dict[str, object]:
        """Fused vs unfused-chain work estimates (per image).

        The fused estimate must show strictly lower private+shared
        traffic than the chain -- that is the machine-model payoff the
        autotuner prices when it considers the fused schedule.
        """
        fused = estimate_nest(self.pipeline.build_nest(self.padded_spec))
        chain = chain_estimate(
            self.padded_spec, self.pool.kernel, self.pool.stride
        )
        return {"fused": fused, "chain": chain}

    # -- Layer interface --------------------------------------------------

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
        return (self.spec.nf, self.pool_ny, self.pool_nx)

    def _pad_batch(self, inputs: np.ndarray) -> np.ndarray:
        if self.spec.pad == 0:
            return inputs
        p = self.spec.pad
        return np.pad(inputs, ((0, 0), (0, 0), (p, p), (p, p)))

    def _run_fused(self, padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        batch = padded.shape[0]
        task = functools.partial(
            _fused_forward_range,
            self.padded_spec,
            self.pool,
            self.pipeline,
            # Operands the C kernel cannot read take the Python path.
            self.artifact if self._native_operands(
                padded, self.weights, self.bias) else None,
            padded,
            self.weights,
            self.bias,
        )
        if self._pool is None:
            return task(0, batch)
        chunks = self._pool.map_batches(task, batch)
        out = np.concatenate([c[0] for c in chunks], axis=0)
        argmax = np.concatenate([c[1] for c in chunks], axis=0)
        return out, argmax

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1:] != self.spec.input_shape:
            raise ShapeError(
                f"layer {self.name}: batch input shape {inputs.shape} != "
                f"(B, *{self.spec.input_shape})"
            )
        padded = self._pad_batch(inputs)
        with telemetry.span(f"{self.name}/fp", layer=self.name, phase="fp",
                            engine="fused-stencil", lowering=self.lowering,
                            batch=int(inputs.shape[0])):
            out, argmax = self._run_fused(padded)
        if training:
            self._cached_padded_input = padded
            self._cached_out = out
            self._cached_argmax = argmax
        return out

    def backward(self, out_error: np.ndarray) -> np.ndarray:
        if (self._cached_padded_input is None or self._cached_out is None
                or self._cached_argmax is None):
            raise ShapeError(f"layer {self.name}: backward before forward")
        expected = self._cached_out.shape
        if out_error.shape != expected:
            raise ShapeError(
                f"layer {self.name}: backward shape {out_error.shape} != "
                f"{expected}"
            )
        self.last_error_sparsity = measure_sparsity(out_error)
        batch = int(out_error.shape[0])
        with telemetry.span(f"{self.name}/bp", layer=self.name, phase="bp",
                            engine=self.bp_engine_name, batch=batch):
            # ReLU mask at each window's argmax == pooled output > 0, so
            # premasking the pooled error before the argmax scatter is
            # bit-identical to the chain's scatter-then-mask.
            masked = np.where(self._cached_out > 0, out_error, 0).astype(
                out_error.dtype, copy=False
            )
            conv_error = np.zeros(
                (batch,) + self.padded_spec.output_shape, dtype=out_error.dtype
            )
            ky, kx = np.divmod(self._cached_argmax, self.pool.kernel)
            bi, ci, yi, xi = np.indices(masked.shape, sparse=False)
            np.add.at(
                conv_error,
                (bi, ci, yi * self.pool.stride + ky,
                 xi * self.pool.stride + kx),
                masked,
            )
            self.d_weights += self._bp_engine.backward_weights(
                conv_error, self._cached_padded_input
            )
            self.d_bias += conv_error.sum(axis=(0, 2, 3))
            return self._bp_engine.backward_data(
                conv_error, self.weights, crop=self.spec.pad
            )


class ReplicaFusedConvReluPool(FusedConvReluPool):
    """The fused layer inside a step shard's replica.  It has no
    fallback to degrade to, so a replica that did not load the machine
    code the step was planned on refuses to be built: the shard fails
    loudly instead of computing in another summation order."""

    def __init__(self, *args, artifacts=(None, None), **kwargs):
        super().__init__(*args, **kwargs)
        if self.artifacts != tuple(artifacts):
            raise ReproError(
                f"replica of {self.name} loaded artefacts {self.artifacts!r}"
                f" ({self.lowering_reason or 'ok'}), the step was planned "
                f"on {tuple(artifacts)!r}")


def fuse_conv_relu_pool(
    conv: ConvLayer,
    pool: MaxPoolLayer,
    name: str = "",
    pipeline: SchedulePipeline | None = None,
) -> FusedConvReluPool:
    """Build the fused layer equivalent to ``conv -> ReLU -> pool``.

    Copies the conv layer's parameters (weights, bias) so the fused
    layer's forward is bitwise comparable against the unfused chain.
    The fused layer runs on the conv layer's worker pool, if it has one.
    """
    fused = FusedConvReluPool(
        conv.spec,
        pool_kernel=pool.kernel,
        pool_stride=pool.stride,
        name=name or f"{conv.name}+relu+pool",
        num_cores=conv.num_cores,
        pipeline=pipeline,
        pool=conv._pool,
    )
    fused.weights = conv.weights.copy()
    fused.bias = conv.bias.copy()
    fused.d_weights = np.zeros_like(fused.weights)
    fused.d_bias = np.zeros_like(fused.bias)
    return fused
