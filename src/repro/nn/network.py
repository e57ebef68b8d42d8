"""The network container: a stack of layers trained with SGD.

A network's direct :meth:`Network.forward` / :meth:`Network.backward`
run inline on the caller, every ``conv -> ReLU -> max-pool`` run fused
where its conv has a unit -- with or without a worker pool.  A pooled
network's pool is used by two things only: the barrier scheduler's
training step, sharded whole over it (:meth:`Network.step_sharder`),
and the DAG scheduler, which compiles each pass into a task graph that
slices every conv layer over it (:meth:`Network.dag_runner`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro import telemetry
from repro.errors import ShapeError
from repro.nn.layers.activations import FlattenLayer, ReLULayer
from repro.nn.layers.base import Layer, LayerStructure
from repro.nn.layers.conv import ConvLayer, ReplicaConvLayer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.extras import (
    AvgPoolLayer,
    DropoutLayer,
    LocalResponseNormLayer,
)
from repro.nn.layers.pool import MaxPoolLayer

if TYPE_CHECKING:  # pragma: no cover - built only for a pooled network
    from repro.runtime.parallel import ShardedStep

#: Every layer kind, by the ``kind`` its :meth:`Layer.structure` names:
#: what rebuilds a network's layer chain from its structure.
LAYER_KINDS: dict[str, type[Layer]] = {
    cls.kind: cls
    for cls in (ConvLayer, ReLULayer, MaxPoolLayer,
                AvgPoolLayer, LocalResponseNormLayer, DropoutLayer,
                FlattenLayer, DenseLayer)
}


class Network:
    """An ordered stack of layers with a classification head."""

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...],
                 name: str = "network"):
        if not layers:
            raise ShapeError("a network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name
        #: Step-execution strategy of a pooled network.  ``"barrier"``:
        #: a training step is one fork/join of whole-network shards
        #: (:meth:`step_sharder`) and a direct forward/backward runs
        #: inline; ``"dag"`` compiles each pass into a task graph (see
        #: :mod:`repro.runtime.dag`).
        self.scheduler = "barrier"
        self._dag_runner = None
        self._sharder: ShardedStep | None = None
        #: Every ``conv -> ReLU -> max-pool`` run, by the conv's index:
        #: what :meth:`forward` fuses where the conv has a unit for it.
        self._runs = {
            index: (conv, relu, pool) for index, (conv, relu, pool)
            in enumerate(zip(self.layers, self.layers[1:], self.layers[2:]))
            if isinstance(conv, ConvLayer) and isinstance(relu, ReLULayer)
            and isinstance(pool, MaxPoolLayer)}
        # The runs the last training forward fused: backward's to undo.
        self._fused: set[int] = set()
        # Validate the shape chain eagerly so misconfigured nets fail fast.
        self.layer_shapes = [self.input_shape]
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self.layer_shapes.append(tuple(shape))

    @property
    def output_shape(self) -> tuple[int, ...]:
        """Per-image shape of the final layer's output."""
        return self.layer_shapes[-1]

    def conv_layers(self) -> list[ConvLayer]:
        """The convolution layers, in order (spg-CNN's optimization targets)."""
        return [layer for layer in self.layers if isinstance(layer, ConvLayer)]

    def run_pool(self, conv: ConvLayer) -> MaxPoolLayer | None:
        """The max-pool ending the ``conv -> ReLU -> max-pool`` run that
        ``conv`` starts, if it starts one."""
        return next((pool for first, _, pool in self._runs.values()
                     if first is conv), None)

    def structure(self) -> tuple[LayerStructure, ...]:
        """Every layer's :meth:`Layer.structure`, in order.

        A conv that starts a ``conv -> ReLU -> max-pool`` run also names
        the artefact of the fused unit it runs for the run's window
        (``relu_pool_artifact``, ``None`` for the chain), which its
        replicas must load: the window is the network's to know, not the
        layer's.
        """
        structure = [layer.structure() for layer in self.layers]
        for index, (conv, _, pool) in self._runs.items():
            kind, name, options = structure[index]
            unit = conv.fused_unit(pool)
            structure[index] = (kind, name, options + (
                ("relu_pool_artifact",
                 unit.artifact if unit is not None else None),))
        return tuple(structure)

    @classmethod
    def replica(cls, structure: tuple[LayerStructure, ...],
                input_shape: tuple[int, ...], params: Iterable[np.ndarray],
                grads: Iterable[np.ndarray]) -> "Network":
        """An inline network rebuilt from :meth:`structure` over given arrays.

        ``params`` and ``grads`` hold every parameter and gradient array
        in :meth:`parameters` order; each layer is built over its share
        (:attr:`Layer.param_keys`), so no layer draws, fills or allocates
        one.  Conv layers report engine failures -- a unit other than
        the planned one among them -- instead of recording them
        (:class:`ReplicaConvLayer`).
        """
        kinds = {**LAYER_KINDS, ConvLayer.kind: ReplicaConvLayer}
        params, grads = iter(params), iter(grads)
        layers = []
        for kind, name, options in structure:
            keys = kinds[kind].param_keys
            bound = {"params": {key: next(params) for key in keys},
                     "grads": {key: next(grads) for key in keys}} \
                if keys else {}
            layers.append(kinds[kind](name=name, **dict(options), **bound))
        return cls(layers, input_shape)

    def step_sharder(self) -> ShardedStep | None:
        """What runs a training step as one shard per worker, if anything.

        ``None`` unless the network has a worker pool and the barrier
        scheduler: then the trainer runs :meth:`forward` and
        :meth:`backward`, inline or as task graphs.
        """
        if self.scheduler != "barrier":
            return None
        for layer in self.layers:
            pool = getattr(layer, "_pool", None)
            if pool is not None:
                break
        else:
            return None
        from repro.runtime.parallel import ShardedStep

        sharder = self._sharder
        if sharder is None or sharder.pool is not pool:
            if sharder is not None:
                sharder.release()
            sharder = self._sharder = ShardedStep(self, pool)
        return sharder

    def set_scheduler(self, scheduler: str) -> None:
        """Select the step-execution strategy (``"barrier"`` or ``"dag"``)."""
        from repro.runtime.dag import validate_scheduler

        self.scheduler = validate_scheduler(scheduler)

    def dag_runner(self):
        """The cached DAG runner, rebuilt when the pool width changed."""
        from repro.runtime.dag import NetworkDagRunner, dag_worker_count

        runner = self._dag_runner
        want = dag_worker_count(self)
        if runner is None or runner.scheduler.num_workers != want:
            runner = NetworkDagRunner(self, num_workers=want)
            self._dag_runner = runner
        return runner

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        """Run FP through every layer.

        A ``conv -> ReLU -> max-pool`` run whose conv has a fused unit
        for the window (:meth:`ConvLayer.fused_unit`) runs as one call of
        the conv given the pool; the ReLU and pool layers' caches are
        cleared, so a stray per-layer backward raises instead of reading
        stale ones.  Every other layer runs on its own.

        A conv layer records its own ``<name>/fp`` span (a fused run is
        one such span); every other layer's call runs under a
        ``<name>/fp`` span opened here, carrying the phase and the
        layer's name.
        """
        if self.scheduler == "dag":
            return self.dag_runner().forward(inputs, training=training)
        if inputs.shape[1:] != self.input_shape:
            raise ShapeError(
                f"batch input shape {inputs.shape} != (B, *{self.input_shape})"
            )
        if training:
            self._fused = set()
        activations = inputs
        index = 0
        while index < len(self.layers):
            run = self._runs.get(index)
            if run is not None and run[0].fused_unit(run[2]) is not None:
                conv, relu, pool = run
                if training:
                    relu._cached_mask = pool._cached_selectors = None
                    self._fused.add(index)
                activations = conv.forward(activations, training, pool=pool)
                index += 3
                continue
            layer = self.layers[index]
            if isinstance(layer, ConvLayer):
                activations = layer.forward(activations, training=training)
            else:
                with telemetry.span(f"{layer.name}/fp", phase="fp",
                                    layer=layer.name):
                    activations = layer.forward(activations,
                                                training=training)
            index += 1
        return activations

    def backward(self, out_error: np.ndarray,
                 need_input_error: bool = True) -> np.ndarray | None:
        """Run BP through every layer in reverse; returns the input error.

        A caller that discards the input error (the SGD step) passes
        ``need_input_error=False``: a conv layer fed by the images then
        skips its BP-data computation and ``None`` is returned.  Every
        parameter gradient is bit-identical either way.  Spans as in
        :meth:`forward`, named ``<name>/bp``.
        """
        if self.scheduler == "dag":
            return self.dag_runner().backward(out_error, need_input_error)
        error: np.ndarray | None = out_error
        index = len(self.layers) - 1
        while index >= 0:
            start = index - 2
            if start in self._fused:
                error = self.layers[start].backward(
                    error, need_input_error or start > 0,
                    pool=self.layers[index])
                index = start - 1
                continue
            layer = self.layers[index]
            if isinstance(layer, ConvLayer):
                error = layer.backward(error, need_input_error or index > 0)
            else:
                with telemetry.span(f"{layer.name}/bp", phase="bp",
                                    layer=layer.name):
                    error = layer.backward(error)
            index -= 1
        return error

    def zero_grads(self) -> None:
        """Clear accumulated gradients on every layer."""
        for layer in self.layers:
            layer.zero_grads()

    def parameters(self) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        """Yield ``(qualified_name, param, grad)`` triples for the trainer."""
        for i, layer in enumerate(self.layers):
            params = layer.params()
            grads = layer.grads()
            for key, value in params.items():
                yield f"{i}.{layer.name}.{key}", value, grads[key]

    def num_parameters(self) -> int:
        """Total trainable scalar parameters."""
        return sum(p.size for _, p, _ in self.parameters())

    def error_sparsities(self) -> dict[str, float]:
        """Last measured error-gradient sparsity of each conv layer."""
        return {layer.name: layer.last_error_sparsity for layer in self.conv_layers()}

    def describe(self) -> str:
        """Multi-line structural summary."""
        lines = [f"{self.name}: input {self.input_shape}"]
        for layer, shape in zip(self.layers, self.layer_shapes[1:]):
            lines.append(f"  {layer.kind:<8s} {layer.name:<20s} -> {shape}")
        lines.append(f"  parameters: {self.num_parameters():,}")
        return "\n".join(lines)
