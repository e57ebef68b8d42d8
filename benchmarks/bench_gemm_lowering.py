"""Wall-clock rows behind the GEMM engines' lowering rule.

``implicit_gemm`` decides, from the spec alone, whether the GEMM engines
multiply a stride-1 input as ``Fy`` products over views of its column
buffer (the implicit form) or unfold it to ``U^T`` first (the unfold
form).  This script times both forms on every stride-1 spec of the zoo
(at the layer's own crop) and of Table 2 (at the "same" crop): FP,
``backward_weights`` and the whole ``backward`` a layer runs (the
correlation backward, where ``backward_data_correlation`` picks it), and
prints one markdown row per spec and batch, with what the rule picks
for the input (FP and dW) and for the error the correlation backward
lowers (the input again where the adjoint form runs)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_gemm_lowering.py

Each call is timed ``--repeats`` times per form, the two forms
alternating, and each cell is the median ratio implicit / unfold with
the quartiles of the paired ratios (the noise the rule is read
against), after the unfold form's median milliseconds.  The form is
chosen by swapping the rule the engines consult for one that answers
the same for every spec; the engines have no switch.  Its one
``test_`` function checks that the two forms compute the same results;
it asserts nothing about time.
"""

from __future__ import annotations

import argparse
import contextlib
import time
from typing import Callable, Iterator
from unittest import mock

import numpy as np

from repro.core.convspec import (
    ConvSpec,
    backward_data_correlation,
    implicit_gemm,
)
from repro.nn.zoo import stride1_convs
from repro.ops import gemm_conv, unfold
from repro.ops.engine import make_engine

PHASES = ("fp", "dw", "backward")


@contextlib.contextmanager
def lowering(implicit: bool) -> Iterator[None]:
    """Every stride-1 spec in the implicit form, or every spec unfolded."""
    def rule(spec: ConvSpec) -> bool:
        return implicit and (spec.sy, spec.sx) == (1, 1)

    with mock.patch.object(gemm_conv, "implicit_gemm", rule), \
            mock.patch.object(unfold, "implicit_gemm", rule):
        yield


def operands(spec: ConvSpec, crop: int, batch: int, seed: int = 0
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inputs zero in their outermost ``crop`` pixels, weights, error."""
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((batch,) + spec.input_shape,
                                 dtype=np.float32)
    if crop:
        border = np.ones(spec.input_shape[1:], bool)
        border[crop:-crop, crop:-crop] = False
        inputs[:, :, border] = 0.0
    weights = rng.standard_normal(spec.weight_shape, dtype=np.float32)
    error = rng.standard_normal((batch,) + spec.output_shape,
                                dtype=np.float32)
    return inputs, weights, error


def calls(spec: ConvSpec, crop: int, batch: int
          ) -> dict[str, Callable[[], object]]:
    """The three timed calls of one engine (one per form: each keeps
    its own workspace)."""
    inputs, weights, error = operands(spec, crop, batch)
    engine = make_engine("gemm-in-parallel", spec)
    return {"fp": lambda: engine.forward(inputs, weights),
            "dw": lambda: engine.backward_weights(error, inputs),
            "backward": lambda: engine.backward(error, inputs, weights,
                                                crop)}


def _seconds(call: Callable[[], object], implicit: bool) -> float:
    with lowering(implicit):
        start = time.perf_counter()
        call()
        return time.perf_counter() - start


def time_forms(spec: ConvSpec, crop: int, batch: int,
               repeats: int) -> dict[str, tuple[float, float, float, float]]:
    """Per phase: the unfold form's median ms and the median, first and
    third quartile of the paired implicit / unfold ratios."""
    forms = {}
    for implicit in (False, True):
        with lowering(implicit):
            forms[implicit] = calls(spec, crop, batch)
            for call in forms[implicit].values():
                call()                          # warm the workspace
    cells = {}
    for phase in PHASES:
        base, ratios = [], []
        for _ in range(repeats):
            unfolded = _seconds(forms[False][phase], False)
            ratios.append(_seconds(forms[True][phase], True) / unfolded)
            base.append(unfolded)
        q1, med, q3 = np.percentile(ratios, [25, 50, 75])
        cells[phase] = (float(np.median(base)) * 1e3, float(med),
                        float(q1), float(q3))
    return cells


def test_both_forms_compute_one_result():
    """On an eligible spec, the implicit form agrees with the unfold
    form within rounding: FP and BP-data sum the kernel rows' blocks in
    another order, and dW's dot products run through GEMMs of another
    shape."""
    spec, crop = ConvSpec(nc=64, ny=10, nx=12, nf=12, fy=3, fx=5), 1
    assert implicit_gemm(spec)
    inputs, weights, error = operands(spec, crop, 2, seed=1)
    results = {}
    for implicit in (False, True):
        with lowering(implicit):
            engine = make_engine("gemm-in-parallel", spec)
            results[implicit] = (engine.forward(inputs, weights),
                                 engine.backward_weights(error, inputs),
                                 *engine.backward(error, inputs, weights,
                                                  crop))
    unfolded, implicit = results[False], results[True]
    for want, got in zip(unfolded, implicit):
        np.testing.assert_allclose(got, want, rtol=1e-4,
                                   atol=1e-5 * float(np.abs(want).max()))
    cells = time_forms(spec, crop, 1, 1)
    assert set(cells) == set(PHASES)
    assert all(ms > 0 and ratio > 0 for ms, ratio, _, _ in cells.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, nargs="+", default=[1, 16])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| spec | batch | Nc*Fx | positions | Nf | rule (input/error) | "
          + " | ".join(f"{phase} unfold ms | {phase} implicit/unfold [q1, q3]"
                       for phase in PHASES) + " |")
    print("|---|---|---|---|---|---|" + "---|---|" * len(PHASES))
    for batch in args.batch:
        for label, spec, crop in stride1_convs():
            cells = time_forms(spec, crop, batch, args.repeats)
            corr = backward_data_correlation(spec, crop)
            rule = "/".join("implicit" if implicit_gemm(s) else "unfold"
                            for s in (spec, corr or spec))
            print(f"| {label} | {batch} | {spec.nc * spec.fx} | "
                  f"{spec.out_ny * spec.out_nx} | {spec.nf} | {rule} | "
                  + " | ".join(f"{ms:.2f} | {ratio:.2f} [{q1:.2f}, {q3:.2f}]"
                               for ms, ratio, q1, q3 in (
                                   cells[phase] for phase in PHASES))
                  + " |", flush=True)


if __name__ == "__main__":
    main()
