"""Data-parallel training with a parameter server (paper Sec. 6 context).

The paper positions spg-CNN inside distributed platforms like Microsoft
ADAM and Google DistBelief: "many worker machines train in parallel on
different subsets of the training data.  Each worker periodically
synchronizes its model parameters with other workers.  The time to train
a model is therefore a function of the throughput of the worker machines
... and the latency of synchronizing model parameters."

This module implements that substrate functionally: a
:class:`ParameterServer` holds the authoritative parameters, and
:class:`Worker` replicas compute gradients on their data shards and
exchange updates under either synchronization discipline:

* ``"bsp"`` -- bulk-synchronous: every worker's gradients for a step are
  averaged before one server update (equivalent to large-batch SGD);
* ``"async"`` -- ADAM/DistBelief-style asynchronous updates: workers push
  whenever they finish, so updates are applied against parameters that
  may be *stale*; staleness is tracked per push.

Staleness is also *bounded*: with ``max_staleness`` set, a push computed
against parameters more than that many versions old is not applied --
the gradient would point somewhere the model no longer is.  The
``staleness_policy`` decides what else happens: ``"reject"`` simply
drops the gradient, ``"refresh"`` additionally re-pulls fresh
parameters into the offending worker so its next step is current.
Rejected pushes stay in the push log (flagged ``applied=False``) and
count into ``ps.pushes.rejected`` telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import ReproError
from repro.nn.losses import softmax_cross_entropy
from repro.nn.network import Network
from repro.resilience import faults

STALENESS_POLICIES = ("reject", "refresh")


@dataclass
class PushResult:
    """Outcome of one gradient push."""

    worker_id: int
    staleness: int
    loss: float
    #: False when the push was rejected (stale bound) or dropped (fault).
    applied: bool = True


class ParameterServer:
    """Holds the authoritative model parameters and applies updates."""

    def __init__(self, network: Network, learning_rate: float = 0.01,
                 max_staleness: int | None = None,
                 staleness_policy: str = "reject"):
        if learning_rate <= 0:
            raise ReproError(f"learning_rate must be positive, got {learning_rate}")
        if max_staleness is not None and max_staleness < 0:
            raise ReproError(
                f"max_staleness must be non-negative, got {max_staleness}"
            )
        if staleness_policy not in STALENESS_POLICIES:
            raise ReproError(
                f"staleness_policy must be one of {STALENESS_POLICIES}, "
                f"got {staleness_policy!r}"
            )
        self.network = network
        self.learning_rate = learning_rate
        self.max_staleness = max_staleness
        self.staleness_policy = staleness_policy
        #: Monotonic version counter, bumped on every applied update.
        self.version = 0
        self.push_log: list[PushResult] = []

    def admits(self, staleness: int) -> bool:
        """Whether a push at the given staleness is within the bound."""
        return self.max_staleness is None or staleness <= self.max_staleness

    def snapshot(self) -> tuple[int, dict[str, np.ndarray]]:
        """Current version and a copy of every parameter."""
        params = {
            name: param.copy() for name, param, _ in self.network.parameters()
        }
        return self.version, params

    def parameter_bytes(self) -> int:
        """Size of one full model exchange (the sync payload)."""
        return sum(p.nbytes for _, p, _ in self.network.parameters())

    def apply_gradients(self, grads: dict[str, np.ndarray],
                        scale: float = 1.0) -> int:
        """SGD update with the given gradients; returns the new version."""
        for name, param, _ in self.network.parameters():
            if name not in grads:
                raise ReproError(f"missing gradient for parameter {name}")
            param -= self.learning_rate * scale * grads[name]
        self.version += 1
        return self.version

    def record_push(self, result: PushResult) -> None:
        """Log a worker push (staleness statistics for the experiments)."""
        self.push_log.append(result)

    def mean_staleness(self) -> float:
        """Average parameter staleness across all logged pushes."""
        if not self.push_log:
            return 0.0
        return float(np.mean([p.staleness for p in self.push_log]))


class Worker:
    """One data-parallel worker: a model replica plus a data shard."""

    def __init__(self, worker_id: int, network: Network,
                 images: np.ndarray, labels: np.ndarray, batch_size: int):
        if batch_size <= 0:
            raise ReproError(f"batch_size must be positive, got {batch_size}")
        if len(images) == 0:
            raise ReproError(f"worker {worker_id} received an empty shard")
        self.worker_id = worker_id
        self.network = network
        self.images = images
        self.labels = labels
        self.batch_size = batch_size
        self._cursor = 0
        #: Server version the replica's parameters came from.
        self.pulled_version = -1

    def pull(self, server: ParameterServer) -> None:
        """Refresh the replica's parameters from the server."""
        version, params = server.snapshot()
        for name, param, _ in self.network.parameters():
            param[...] = params[name]
        self.pulled_version = version

    def _next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self._cursor
        hi = min(lo + self.batch_size, len(self.images))
        self._cursor = hi if hi < len(self.images) else 0
        return self.images[lo:hi], self.labels[lo:hi]

    def compute_gradients(self) -> tuple[dict[str, np.ndarray], float]:
        """FP+BP on the next local minibatch; returns (gradients, loss)."""
        batch_x, batch_y = self._next_batch()
        net = self.network
        net.zero_grads()
        logits = net.forward(batch_x, training=True)
        loss, grad = softmax_cross_entropy(logits, batch_y)
        net.backward(grad, need_input_error=False)
        grads = {name: g.copy() for name, _, g in net.parameters()}
        return grads, loss

    def push(self, server: ParameterServer, grads: dict[str, np.ndarray],
             loss: float, scale: float = 1.0) -> PushResult:
        """Apply this worker's gradients at the server, recording staleness.

        A push can come back unapplied (``result.applied`` False) in two
        cases: an injected network fault dropped it on the wire, or its
        staleness exceeded the server's bound.  Under the ``"refresh"``
        policy a rejected worker immediately re-pulls fresh parameters.
        """
        staleness = server.version - self.pulled_version
        faults.perturb("ps.push", worker=self.worker_id, staleness=staleness)
        if faults.should_drop("ps.push"):
            telemetry.add("ps.pushes.dropped", 1)
            telemetry.event("ps.push_dropped", worker=self.worker_id,
                            staleness=staleness)
            result = PushResult(worker_id=self.worker_id, staleness=staleness,
                                loss=loss, applied=False)
            server.record_push(result)
            return result
        if not server.admits(staleness):
            telemetry.add("ps.pushes.rejected", 1)
            telemetry.event("ps.push_rejected", worker=self.worker_id,
                            staleness=staleness,
                            bound=server.max_staleness,
                            policy=server.staleness_policy)
            result = PushResult(worker_id=self.worker_id, staleness=staleness,
                                loss=loss, applied=False)
            server.record_push(result)
            if server.staleness_policy == "refresh":
                self.pull(server)
            return result
        server.apply_gradients(grads, scale=scale)
        result = PushResult(worker_id=self.worker_id, staleness=staleness,
                            loss=loss)
        server.record_push(result)
        return result


def shard_dataset(images: np.ndarray, labels: np.ndarray,
                  num_workers: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a dataset into contiguous, near-equal worker shards."""
    if num_workers <= 0:
        raise ReproError(f"num_workers must be positive, got {num_workers}")
    if len(images) < num_workers:
        raise ReproError(
            f"cannot shard {len(images)} examples over {num_workers} workers"
        )
    bounds = np.linspace(0, len(images), num_workers + 1, dtype=int)
    return [
        (images[lo:hi], labels[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
