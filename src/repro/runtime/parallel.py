"""Parallel execution over a pluggable backend: per layer, and per step.

Two units of parallel work live here.  :class:`ParallelExecutor` slices
*one conv engine call* over the workers -- what a direct
``forward``/``backward`` of a pooled layer (evaluation, the DAG
scheduler) runs.  :class:`ShardedStep` slices *a whole training step*:
one task per worker runs ``Network.forward``, the loss gradient and
``Network.backward`` on an inline replica of the network for its image
range -- fusion and the pooled export included, its layers' telemetry
reaching the parent from whichever process they ran in -- and only
gradients meet in the parent: what ``SGDTrainer.step`` runs on a pooled
network (bottom of this file).

The executor wraps any registered single-threaded :class:`repro.ops.engine.ConvEngine`
and executes its batch methods with image-level parallelism on a
:class:`repro.runtime.pool.WorkerPool` -- the executable counterpart of
the machine model's GEMM-in-Parallel scheduling.  Each attempt processes
a contiguous slice of the batch with an engine checked out of a
free-list, so mutable engine scratch is never shared between attempts
running at once -- not even when straggler reassignment makes a backup
attempt overlap its still-running original.

Memory behavior: the executor pre-allocates **one** output array per
call and workers write their ``[lo, hi)`` slice in place -- there is no
per-worker chunk list and no final ``np.concatenate``/``np.stack``.
Under the process backend the batch operands are published once into
shared-memory segments (:mod:`repro.runtime.shm`) that workers attach
zero-copy; segments are owned by a per-executor arena and *reused*
across calls while shapes are stable, then unlinked on ``close()`` (or
by the arena's finalizer -- never leaked, even when a task faults).

Weight gradients are accumulated per worker and reduced in the parent
in fixed range order, so results are bit-identical across the serial,
thread and process backends for a given worker count.

Neither unit sets a hang deadline: the process backend derives its own
from the task times its workers report (see
:func:`repro.runtime.backends.measured_deadline`).
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.core.convspec import ConvSpec
from repro.errors import ReproError
from repro.ops.engine import ConvEngine, make_engine
from repro.resilience.policy import RetryPolicy
from repro.runtime.backends import (
    ArrayHandle,
    ParamSlot,
    ReplicaCache,
    ShardJob,
    ShardReport,
    param_views,
    run_engine_slice,
    run_step_shard,
    worker_ready,
)
from repro.runtime.pool import WorkerPool
from repro.runtime.shm import SharedArray, ShmArena


@dataclass(frozen=True)
class SliceTask:
    """One schedulable engine slice over images ``[lo, hi)``.

    The shared currency between the barrier path (which wraps ``run``
    into :meth:`WorkerPool.run_tasks` thunks) and the task-graph runtime
    (:mod:`repro.runtime.dag`, which wraps it into graph nodes) -- both
    execute the identical callable, so the two paths cannot diverge
    numerically.  ``run`` is idempotent: it writes only its own output
    slice (or returns a fresh partial), so retries and straggler
    duplicates are safe.
    """

    index: int
    lo: int
    hi: int
    run: Callable[[], np.ndarray]


def adopt_slice(out: np.ndarray, task: SliceTask, result: object) -> None:
    """Copy a task result into ``out`` unless it already lives there.

    Covers slices coming back from shared memory and arrays the fault
    layer replaced with corrupted copies; thread-backend results are
    views into ``out`` and are left alone.
    """
    if isinstance(result, np.ndarray) and result.base is not out:
        out[task.lo:task.hi] = result


class ParallelExecutor:
    """Run a named engine's FP/BP over a batch on the pool's backend."""

    def __init__(self, engine_name: str, spec: ConvSpec,
                 pool: WorkerPool | None = None,
                 policy: RetryPolicy | None = None,
                 backend: str = "thread", **engine_kwargs: Any) -> None:
        self.spec = spec
        self.engine_name = engine_name
        self.pool = pool or WorkerPool(policy=policy, backend=backend)
        self._owns_pool = pool is None
        self._engine_kwargs = dict(engine_kwargs)
        self._arena = ShmArena()
        # One engine per concurrent attempt: engines hold mutable scratch
        # (unfold workspace, GEMM out= panels, CT-CSR buffers) that must
        # never be shared between two attempts running at once.  A fixed
        # index->engine mapping is not enough under a RetryPolicy with
        # straggler reassignment -- a backup attempt for an index can run
        # concurrently with its still-running original -- so attempts
        # check an engine out of a free-list and check it back in, and
        # the list grows on demand when duplicates overlap.  Under the
        # process backend the engines live in the worker processes
        # instead (cached per construction key).
        self._engine_lock = threading.Lock()
        self._engines: list[ConvEngine] = []
        self._free_engines: list[ConvEngine] = []
        first = make_engine(engine_name, spec, **engine_kwargs)
        #: The wrapped engine's lowering and compiled artefact, as built
        #: in this process (ConvEngine-compatible; the workers of the
        #: process backend build theirs from the same cache).
        self.lowering = first.lowering
        self.artifact = first.artifact
        self.lowered_phases = first.lowered_phases
        if self.pool.backend_name != "process":
            self._engines = [first] + [
                make_engine(engine_name, spec, **engine_kwargs)
                for _ in range(self.pool.num_workers - 1)
            ]
            self._free_engines = list(self._engines)

    @property
    def name(self) -> str:
        """The wrapped engine's registry name (ConvEngine-compatible)."""
        return self.engine_name

    def release_workspace(self) -> None:
        """Unlink this executor's shared-memory segments now."""
        self._arena.release()

    def close(self) -> None:
        """Release segments; shut the pool down if this executor made it."""
        self.release_workspace()
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _checkout_engine(self) -> ConvEngine:
        """An engine no other in-flight attempt is using."""
        with self._engine_lock:
            if self._free_engines:
                return self._free_engines.pop()
        # All engines busy: an original attempt and its reassigned
        # duplicate overlap.  Engines are deterministic, so results do
        # not depend on which instance an attempt lands on.
        engine = make_engine(self.engine_name, self.spec,
                             **self._engine_kwargs)
        with self._engine_lock:
            self._engines.append(engine)
        return engine

    def _checkin_engine(self, engine: ConvEngine) -> None:
        with self._engine_lock:
            self._free_engines.append(engine)

    # -- shared-memory dispatch (process backend) -------------------------

    def _publish(self, role: str, array: np.ndarray) -> SharedArray:
        """Copy ``array`` into the arena's reusable segment for ``role``."""
        seg = self._arena.ensure(role, array.shape, array.dtype)
        seg.ndarray[...] = array
        return seg

    def _shipped_thunks(
        self, method: str, primary: np.ndarray, shared: np.ndarray,
        out_shape: tuple[int, ...], out_dtype: np.dtype,
        ranges: list[tuple[int, int]], per_worker_out: bool,
        options: tuple[tuple[str, Any], ...] = (),
    ) -> list[Callable[[], np.ndarray]]:
        """Thunks that run the engine slices inside worker processes."""
        backend = self.pool._require_backend()
        primary_seg = self._publish(f"{method}/primary", primary)
        shared_seg = self._publish(f"{method}/shared", shared)
        out_seg = self._arena.ensure(f"{method}/out", out_shape, out_dtype)
        kwargs_items = tuple(sorted(self._engine_kwargs.items()))
        out_view = out_seg.ndarray

        def make(index: int, lo: int, hi: int) -> Callable[[], np.ndarray]:
            slot = index if per_worker_out else None

            def thunk() -> np.ndarray:
                backend.call(
                    run_engine_slice, self.engine_name, self.spec,
                    kwargs_items, method, primary_seg.descriptor,
                    shared_seg.descriptor, out_seg.descriptor, lo, hi, slot,
                    options,
                )
                # Return the freshly written region: the pool's
                # ``pool.result`` corrupt site applies to it, and the
                # caller copies it out of shared memory.
                return out_view[slot] if per_worker_out else out_view[lo:hi]

            return thunk

        return [make(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]

    # -- sliced execution -------------------------------------------------

    def slice_plan(self, method: str, primary: np.ndarray,
                   shared: np.ndarray,
                   crop: int = 0) -> tuple[np.ndarray, list[SliceTask]]:
        """Preallocate the output and build one :class:`SliceTask` per range.

        ``crop`` is ``backward_data``'s (see :class:`ConvEngine`): every
        slice is asked for the cropped input error and the output (and
        its shared-memory segment) is sized for it, so the sliced call
        runs the same BP-data form as the inline engine.

        Each task's engine is checked out of the free-list at run time
        (never captured), so concurrent tasks -- barrier siblings, DAG
        nodes or straggler duplicates -- never share mutable engine
        scratch.  Under the process backend this also publishes the
        operands into the executor's shared-memory arena, so building
        the plan is itself the prefetch step the DAG overlaps with
        other layers' GEMMs.  Task results that may live outside ``out``
        must be adopted via :func:`adopt_slice`.
        """
        batch = primary.shape[0]
        if batch == 0:
            raise ReproError("empty batch")
        ranges = self.pool.assignment(batch)
        options = {} if method == "forward" else {"crop": crop}
        item_shape = (self.spec.output_shape if method == "forward"
                      else self.spec.cropped_input_shape(crop))
        dtype = np.result_type(primary, shared)
        out = np.empty((batch,) + item_shape, dtype=dtype)

        if self.pool.backend_name == "process":
            thunks = self._shipped_thunks(
                method, primary, shared, out.shape, dtype, ranges,
                per_worker_out=False, options=tuple(options.items()),
            )
        else:
            def make(lo: int, hi: int) -> Callable[[], np.ndarray]:
                def thunk() -> np.ndarray:
                    engine = self._checkout_engine()
                    try:
                        out[lo:hi] = getattr(engine, method)(
                            primary[lo:hi], shared, **options
                        )
                    finally:
                        self._checkin_engine(engine)
                    return out[lo:hi]

                return thunk

            thunks = [make(lo, hi) for lo, hi in ranges]

        tasks = [SliceTask(i, lo, hi, thunk)
                 for i, ((lo, hi), thunk) in enumerate(zip(ranges, thunks))]
        return out, tasks

    def _run_sliced(self, method: str, primary: np.ndarray,
                    shared: np.ndarray, crop: int = 0) -> np.ndarray:
        out, tasks = self.slice_plan(method, primary, shared, crop)
        metas = [{"lo": task.lo, "hi": task.hi} for task in tasks]
        with telemetry.span(f"executor/{method}", engine=self.engine_name,
                            batch=primary.shape[0], workers=len(tasks)):
            results = self.pool.run_tasks([task.run for task in tasks], metas)
        for task, result in zip(tasks, results):
            adopt_slice(out, task, result)
        return out

    # -- batch API mirroring ConvEngine -----------------------------------

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Forward-propagate the batch across the workers."""
        return self._run_sliced("forward", inputs, weights)

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        """Back-propagate the error batch across the workers."""
        return self._run_sliced("backward_data", out_error, weights, crop)

    def backward(self, out_error: np.ndarray, inputs: np.ndarray,
                 weights: np.ndarray, crop: int = 0,
                 need_input_error: bool = True
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`ConvEngine.backward`'s two calls, each sliced as above."""
        d_weights = self.backward_weights(out_error, inputs)
        in_error = (self.backward_data(out_error, weights, crop)
                    if need_input_error else None)
        return d_weights, in_error

    def weights_plan(self, out_error: np.ndarray,
                     inputs: np.ndarray) -> list[SliceTask]:
        """One dW-partial :class:`SliceTask` per range.

        Each task returns its range's gradient partial; the caller owns
        the reduction and must accumulate the partials **in range
        order** -- the fixed order that keeps results bit-identical
        across backends, worker counts and schedulers.
        """
        batch = out_error.shape[0]
        if batch == 0:
            raise ReproError("empty batch")
        ranges = self.pool.assignment(batch)
        partial_shape = (len(ranges),) + self.spec.weight_shape
        dtype = out_error.dtype

        if self.pool.backend_name == "process":
            thunks = self._shipped_thunks(
                "backward_weights", out_error, inputs, partial_shape, dtype,
                ranges, per_worker_out=True,
            )
        else:
            def make(lo: int, hi: int) -> Callable[[], np.ndarray]:
                def thunk() -> np.ndarray:
                    engine = self._checkout_engine()
                    try:
                        return engine.backward_weights(
                            out_error[lo:hi], inputs[lo:hi]
                        )
                    finally:
                        self._checkin_engine(engine)

                return thunk

            thunks = [make(lo, hi) for lo, hi in ranges]

        return [SliceTask(i, lo, hi, thunk)
                for i, ((lo, hi), thunk) in enumerate(zip(ranges, thunks))]

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Per-worker dW partials, reduced into one gradient tensor."""
        tasks = self.weights_plan(out_error, inputs)
        metas = [{"lo": task.lo, "hi": task.hi} for task in tasks]
        with telemetry.span("executor/backward_weights",
                            engine=self.engine_name,
                            batch=out_error.shape[0],
                            workers=len(tasks)):
            partials = self.pool.run_tasks([task.run for task in tasks], metas)
        # Fixed reduction order (range order) keeps the result identical
        # across backends and worker schedules.
        total = np.zeros(self.spec.weight_shape, dtype=out_error.dtype)
        for partial in partials:
            if partial is not None:
                total += partial
        return total


class ShardedStep:
    """A training step as one whole-network task per worker.

    Dispatch and ownership::

        parent                                  worker k (of pool.num_workers)
        ------                                  ------------------------------
        engine.fp / engine.bp fault sites
        draw dropout masks (layer order)
        publish batch, labels, masks, stamp
        one task per range of assignment(B) --> replica.forward -> loss grad
                                                -> replica.backward
                                                logits[lo:hi], grads[k] written
        loss from the gathered logits      <--  zero counts, engine failures
        sgd.gradient site, non-finite guard
        reduce grads[0] + grads[1] + ...
        momentum update, in place

    The parent owns the parameters -- one flat buffer that its layers'
    arrays and every replica's are views of, so an in-place update is
    all the "broadcast" there is -- the loss, the guard, the reduction
    (fixed range order, for conv, dense and bias alike) and the update.
    A worker owns a cached replica of the network
    (:class:`repro.runtime.backends.ReplicaCache`) and its private
    gradient accumulator, nothing that outlives a step.

    The same task runs under ``serial`` (in range order), ``thread`` and
    ``process``; under ``process`` the buffers are shared-memory
    segments, otherwise plain arrays.  Results are bit-identical across
    the three *on the same split* (same worker count, hence same ranges
    and same reduction order) with the same BLAS build and thread count
    -- spawned workers run one BLAS thread unless the environment says
    otherwise, so the parent must be pinned the same way for ``process``
    to equal the in-parent backends.
    A task is a pure function of (buffers, range), so the pool's retry
    policy, the ``pool.task`` / ``pool.result`` fault sites, straggler
    duplicates and the supervisor's redispatch all apply at this one
    dispatch point.

    The buffers live as long as the pool's workers: they are released at
    ``pool.shutdown()`` (which hands the layers private copies of their
    parameters back) and rebuilt by the next step.
    """

    def __init__(self, network: Any, pool: WorkerPool) -> None:
        self.network = network
        self.pool = pool
        #: Distinguishes this step's replicas from another network's on
        #: the same pool.
        self.token = secrets.token_hex(4)
        self._arena = ShmArena()
        self._local: dict[str, np.ndarray] = {}
        self._replicas = ReplicaCache()
        #: ``(layer, key, view)`` per parameter, in layout order.
        self._bound: list[tuple[Any, str, np.ndarray]] = []
        self._layout: tuple[ParamSlot, ...] = ()
        self._nbytes = 0
        self._params: ArrayHandle = np.empty(0, dtype=np.uint8)
        self._step = 0
        #: Whether ``release`` is registered with the pool and its
        #: workers were seen booted; per pool start, cleared by release.
        self._attached = False
        #: Last dispatch: gradient partials in range order, and reports.
        self._partials: list[np.ndarray] = []
        self._reports: list[ShardReport] = []

    # -- buffers ----------------------------------------------------------

    def _buffer(self, role: str, shape: tuple[int, ...],
                dtype: Any) -> tuple[np.ndarray, ArrayHandle]:
        """The reusable array for ``role`` and what names it to a shard."""
        if self.pool.backend_name == "process":
            seg = self._arena.ensure(role, shape, dtype)
            return seg.ndarray, seg.descriptor
        array = self._local.get(role)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._local[role] = np.empty(shape, dtype=dtype)
        return array, array

    def _bind(self) -> None:
        """Move the parameters into one flat buffer the layers view."""
        entries = [(layer, key, array) for layer in self.network.layers
                   for key, array in layer.params().items()]
        layout: list[ParamSlot] = []
        nbytes = 0
        for _, _, array in entries:
            layout.append((nbytes, tuple(array.shape), array.dtype.str))
            nbytes = -(-(nbytes + array.nbytes) // 64) * 64
        flat, self._params = self._buffer("params", (nbytes,), np.uint8)
        self._layout, self._nbytes = tuple(layout), nbytes
        self._bound = []
        for (layer, key, array), view in zip(
                entries, param_views(flat, self._layout)):
            view[...] = array
            layer.bind_params({key: view})
            self._bound.append((layer, key, view))

    def _attach(self, backend: Any) -> None:
        """Tie the buffers' lifetime to the pool's workers (once per
        pool start) and wait for the workers to boot."""
        self._attached = True
        self.pool.at_shutdown(self.release)
        broadcast = getattr(backend, "broadcast", None)
        if broadcast is not None:
            # Freshly spawned workers are still importing: wait for them
            # here, not inside the first step's supervised dispatch,
            # where a retry policy's deadline would read boot as a hang.
            broadcast(worker_ready)

    def _unbind(self) -> None:
        """Hand every layer still viewing the buffer a private copy."""
        for layer, key, view in self._bound:
            if getattr(layer, key) is view:
                layer.bind_params({key: view.copy()})
        self._bound = []

    def release(self) -> None:
        """Free every buffer (idempotent); the next step rebuilds them."""
        self._attached = False
        self._unbind()
        self._partials = []
        self._local.clear()
        self._arena.release()
        self._replicas.discard(self.token)

    # -- the step ---------------------------------------------------------

    def run(self, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """FP + BP of the batch, one shard per worker; returns the logits.

        The gradient partials stay in the shards' slots until
        :meth:`reduce`.  The returned array is a buffer the next step
        overwrites.
        """
        network = self.network
        batch = int(inputs.shape[0])
        if inputs.shape[1:] != network.input_shape:
            raise ReproError(
                f"batch input shape {inputs.shape} != "
                f"(B, *{network.input_shape})"
            )
        ranges = self.pool.assignment(batch)
        backend = self.pool._require_backend()
        if any(getattr(layer, key) is not view
               for layer, key, view in self._bound):
            self._unbind()  # a parameter array was replaced under us
        if not self._bound:
            self._bind()
        if not self._attached:
            self._attach(backend)
        # The engine fault sites are the parent's: replicas visit none,
        # so rehearse this step's engine calls here, in inline's order.
        # A fired fault degrades the layer before its structure ships.
        convs = [(i, layer) for i, layer in enumerate(network.layers)
                 if hasattr(layer, "rehearse_engine_faults")]
        for _, layer in convs:
            layer.rehearse_engine_faults("fp")
        for i, layer in reversed(convs):
            layer.rehearse_engine_faults("bp", need_input_error=i > 0)
        with telemetry.span("step/publish", batch=batch, shards=len(ranges)):
            self._step += 1
            stamp, stamp_handle = self._buffer("stamp", (1,), np.int64)
            stamp[0] = self._step
            published, inputs_handle = self._buffer(
                "inputs", inputs.shape, inputs.dtype)
            published[...] = inputs
            published, labels_handle = self._buffer(
                "labels", labels.shape, labels.dtype)
            published[...] = labels
            # Stochastic layers draw for the whole batch here, in layer
            # order, exactly as an inline forward would; shards get rows.
            noise: list[tuple[int, ArrayHandle]] = []
            for i, layer in enumerate(network.layers):
                drawn = layer.draw_noise((batch,) + network.layer_shapes[i])
                if drawn is not None:
                    published, handle = self._buffer(
                        f"noise{i}", drawn.shape, drawn.dtype)
                    published[...] = drawn
                    noise.append((i, handle))
            dtype = np.result_type(
                inputs.dtype, *(view.dtype for _, _, view in self._bound))
            logits, logits_handle = self._buffer(
                "logits", (batch,) + network.output_shape, dtype)
            grads, grads_handle = self._buffer(
                "grads", (len(ranges), self._nbytes), np.uint8)
        job = ShardJob(
            token=self.token, step=self._step,
            structure=network.structure(), input_shape=network.input_shape,
            layout=self._layout, batch=batch, stamp=stamp_handle,
            params=self._params, inputs=inputs_handle, labels=labels_handle,
            noise=tuple(noise), logits=logits_handle, grads=grads_handle,
        )
        reports: list[ShardReport | None] = [None] * len(ranges)
        replicas = (None if self.pool.backend_name == "process"
                    else self._replicas)
        # The ``pool.result`` corrupt site sees the partial as numbers.
        as_numbers = np.dtype(self._layout[0][2])

        def make(index: int, lo: int, hi: int) -> Callable[[], np.ndarray]:
            def thunk() -> np.ndarray:
                reports[index] = backend.call(
                    run_step_shard, job, index, lo, hi, replicas)
                return grads[index].view(as_numbers)

            return thunk

        thunks = [make(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]
        metas = [{"lo": lo, "hi": hi} for lo, hi in ranges]
        with telemetry.span("step/dispatch", batch=batch, shards=len(ranges)):
            self._partials = self.pool.run_tasks(thunks, metas)
        self._reports = [report for report in reports if report is not None]
        if len(self._reports) < len(ranges):
            # Only an attempt abandoned steps ago reports None.
            raise ReproError("a step shard found its buffers republished")
        for report in self._reports:
            for index, phase, engine, reason in report.failures:
                layer = network.layers[index]
                if getattr(layer, f"{phase}_engine_name") == engine:
                    layer.degrade(phase, engine, reason)
        return logits

    def reduce(self) -> bool:
        """Adopt the last run's BP: reduced gradients, error sparsities.

        Sums the shards' partials **in range order** into the layers'
        gradient arrays; False when the reduced gradient is not finite
        (the caller skips the batch).
        """
        layers = self.network.layers
        with telemetry.span("step/reduce", shards=len(self._partials)):
            shards = [param_views(partial.view(np.uint8), self._layout)
                      for partial in self._partials]
            grads = [array for layer in layers
                     for array in layer.grads().values()]
            finite = True
            for slot, grad in enumerate(grads):
                grad[...] = shards[0][slot]
                for views in shards[1:]:
                    grad += views[slot]
                finite = finite and bool(np.isfinite(grad).all())
            zeros: dict[int, list[int]] = {}
            for report in self._reports:
                for index, count, size in report.zeros:
                    total = zeros.setdefault(index, [0, 0])
                    total[0] += count
                    total[1] += size
            for index, (count, size) in zeros.items():
                layers[index].last_error_sparsity = count / size
        return finite
