"""Wall-clock rows behind the GEMM engines' BP-data form rule.

``backward_data_correlation`` chooses between two forms of BP-data for
a stride-1 layer that crops its pad border: the forward correlation of
the zero-bordered error (which the layer's one ``backward`` call also
reuses for dW) and the adjoint GEMM + ``fold``.  The rule weighs the
sizes the spec holds: the correlation's error unfold has ``Nf*Fy*Fx``
rows, the adjoint's GEMM result ``Nc*Fy*Fx``.  This script times both
forms on every stride-1 spec of the zoo (at the layer's own crop) and of
Table 2 (at the "same" crop, ``(F-1)//2``), BP-data alone and the whole
``backward`` (dW + BP-data) a layer runs, and prints one markdown row
per spec::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_bp_data_forms.py

Each cell is the median of ``--repeats`` calls at ``--batch`` images,
in milliseconds.  Its one ``test_`` function checks that the two forms
compute the same backward; it asserts nothing about time.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.convspec import (
    ConvSpec,
    backward_data_correlation,
    correlation_problem,
)
from repro.nn.zoo import stride1_convs
from repro.ops.engine import ConvEngine, make_engine


def _median_ms(call, repeats: int) -> float:
    call()                                  # warm the workspace
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def time_forms(spec: ConvSpec, crop: int, batch: int,
               repeats: int) -> dict[str, float]:
    """Milliseconds of BP-data alone and of the whole backward, per form."""
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((batch,) + spec.input_shape,
                                 dtype=np.float32)
    if crop:
        border = np.ones(spec.input_shape[1:], bool)
        border[crop:-crop, crop:-crop] = False
        inputs[:, :, border] = 0.0
    weights = rng.standard_normal(spec.weight_shape, dtype=np.float32)
    error = rng.standard_normal((batch,) + spec.output_shape,
                                dtype=np.float32)
    engine = make_engine("gemm-in-parallel", spec)
    corr = correlation_problem(spec, crop)

    def adjoint_bd():
        return engine._cropped(engine._fold_backward_data(error, weights),
                               crop)

    def correlation_bd():
        return engine._correlation_backward(corr, error, None, weights,
                                            crop)

    def adjoint_backward():
        return ConvEngine.backward(engine, error, inputs, weights, crop)

    def correlation_backward():
        return engine._correlation_backward(corr, error, inputs, weights,
                                            crop)

    return {name: _median_ms(call, repeats) for name, call in (
        ("bd adjoint", adjoint_bd), ("bd correlation", correlation_bd),
        ("backward adjoint", adjoint_backward),
        ("backward correlation", correlation_backward))}


def test_both_forms_compute_one_backward():
    """The two forms a row times compute the same backward, within
    rounding, and every cell is a time."""
    spec, crop = ConvSpec(nc=4, ny=10, nx=10, nf=6, fy=3, fx=3), 1
    rng = np.random.default_rng(1)
    inputs = np.zeros((2,) + spec.input_shape, np.float32)
    inputs[:, :, crop:-crop, crop:-crop] = rng.standard_normal(
        (2, spec.nc, 8, 8), dtype=np.float32)
    weights = rng.standard_normal(spec.weight_shape, dtype=np.float32)
    error = rng.standard_normal((2,) + spec.output_shape, dtype=np.float32)
    engine = make_engine("gemm-in-parallel", spec)
    adjoint = ConvEngine.backward(engine, error, inputs, weights, crop)
    correlation = engine._correlation_backward(
        correlation_problem(spec, crop), error, inputs, weights, crop)
    np.testing.assert_allclose(adjoint[0], correlation[0], atol=1e-4)
    np.testing.assert_allclose(adjoint[1], correlation[1], atol=1e-4)
    assert all(ms > 0 for ms in time_forms(spec, crop, 1, 1).values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| spec | crop | Nc | Nf | BP-data adjoint | BP-data correlation "
          "| backward adjoint | backward correlation | rule picks "
          "| faster backward |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for label, spec, crop in stride1_convs():
        if correlation_problem(spec, crop) is None:
            continue
        ms = time_forms(spec, crop, args.batch, args.repeats)
        rule = ("correlation" if backward_data_correlation(spec, crop)
                else "adjoint")
        faster = min(("adjoint", "correlation"),
                     key=lambda form: ms[f"backward {form}"])
        print(f"| {label} | {crop} | {spec.nc} | {spec.nf} | "
              + " | ".join(f"{ms[k]:.2f}" for k in (
                  "bd adjoint", "bd correlation", "backward adjoint",
                  "backward correlation"))
              + f" | {rule} | {faster} |", flush=True)


if __name__ == "__main__":
    main()
