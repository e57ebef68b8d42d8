"""Quickstart: characterize a convolution, pick engines, run them.

Walks the spg-CNN workflow on one convolution layer:

1. describe the convolution and place it in the paper's Fig. 1 design
   space (AIT x sparsity);
2. let the autotuner pick the fastest FP/BP techniques for the paper's
   16-core Xeon;
3. execute the chosen FP engine on real data and verify it agrees with
   the reference convolution.  An engine computes inline on its caller,
   one image after another; spreading images over cores is the worker
   pool's (``cifar10_net(threads=N)``), and the 16 cores of step 2 are
   the machine model's.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import Autotuner, ConvSpec, characterize, make_engine
from repro.machine.cost_backend import ModelCostBackend
from repro.machine.spec import xeon_e5_2650


def main() -> None:
    # A CIFAR-10-style convolution: 3-channel 32x32 image (padded to 36),
    # 64 output features, 5x5 kernel.
    spec = ConvSpec(nc=3, ny=36, nx=36, nf=64, fy=5, fx=5, name="cifar-conv0")

    print("== 1. Characterization (paper Fig. 1) ==")
    print(spec.describe())
    print(f"intrinsic AIT:     {spec.intrinsic_ait:8.1f} flops/element")
    print(f"Unfold+GEMM AIT:   {spec.unfold_gemm_ait:8.1f} flops/element")
    for sparsity in (0.0, 0.85):
        ch = characterize(spec, sparsity=sparsity)
        print(
            f"sparsity {sparsity:.2f} -> region {int(ch.region)} "
            f"({ch.region.ait_band} AIT"
            f"{', sparse' if ch.region.is_sparse else ', dense'}); "
            f"recommended FP={ch.recommended_fp()}, BP={ch.recommended_bp()}"
        )

    print("\n== 2. Autotuning for the paper's Xeon E5-2650 ==")
    tuner = Autotuner(ModelCostBackend(xeon_e5_2650(), cores=16, batch=64))
    plan = tuner.plan_layer(spec, sparsity=0.85)
    print(f"chosen FP engine: {plan.fp_engine}")
    for name, t in sorted(plan.fp_timings.items(), key=lambda kv: kv[1]):
        print(f"  {name:<18s} {t * 1e3:8.3f} ms / batch")
    print(f"chosen BP engine: {plan.bp_engine}")
    for name, t in sorted(plan.bp_timings.items(), key=lambda kv: kv[1]):
        print(f"  {name:<18s} {t * 1e3:8.3f} ms / batch")

    print("\n== 3. Running the chosen engines ==")
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    fp_engine = make_engine(plan.fp_engine, spec)
    out = fp_engine.forward(inputs, weights)
    reference = make_engine("reference", spec).forward(inputs, weights)
    max_err = float(np.abs(out - reference).max())
    print(f"forward output shape: {out.shape}")
    print(f"max deviation from reference convolution: {max_err:.2e}")
    assert max_err < 1e-3


if __name__ == "__main__":
    main()
