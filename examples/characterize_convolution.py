"""Characterize any convolution from the command line.

Given a convolution in the paper's ``Nx Nf Nc Fx [stride] [sparsity]``
notation, prints its AIT figures, its Fig. 1 region, and the machine
model's predicted time for every spg-CNN technique across core counts --
the analysis a user would run before deciding how to execute a new layer.

Examples::

    python examples/characterize_convolution.py 224 96 3 11 4
    python examples/characterize_convolution.py 32 32 32 4 1 0.9
"""

import sys

from repro import ConvSpec, characterize
from repro.analysis.reporting import format_series
from repro.machine.gemm_model import (
    gemm_in_parallel_conv_time,
    parallel_gemm_conv_time,
)
from repro.machine.sparse_model import sparse_bp_time
from repro.machine.spec import xeon_e5_2650
from repro.machine.stencil_model import stencil_fp_time

CORES = (1, 2, 4, 8, 16)


def parse_args(argv: list[str]) -> tuple[ConvSpec, float]:
    if not 4 <= len(argv) <= 6:
        raise SystemExit(__doc__)
    n, nf, nc, f = (int(v) for v in argv[:4])
    stride = int(argv[4]) if len(argv) >= 5 else 1
    sparsity = float(argv[5]) if len(argv) == 6 else 0.85
    spec = ConvSpec(nc=nc, ny=n, nx=n, nf=nf, fy=f, fx=f, sy=stride, sx=stride,
                    name="user-conv")
    return spec, sparsity


def main(argv: list[str]) -> None:
    spec, sparsity = parse_args(argv)
    machine = xeon_e5_2650()
    batch = 16

    print(spec.describe())
    print(f"flops/image:      {spec.flops / 1e6:10.2f} M")
    print(f"intrinsic AIT:    {spec.intrinsic_ait:10.1f}")
    print(f"Unfold+GEMM AIT:  {spec.unfold_gemm_ait:10.1f}")
    ch = characterize(spec, sparsity=sparsity)
    print(f"Fig. 1 region at sparsity {sparsity}: {int(ch.region)}")

    fp = {
        "parallel-gemm": [
            parallel_gemm_conv_time(spec, "fp", batch, machine, c) * 1e3
            for c in CORES
        ],
        "gemm-in-parallel": [
            gemm_in_parallel_conv_time(spec, "fp", batch, machine, c) * 1e3
            for c in CORES
        ],
        "stencil": [
            stencil_fp_time(spec, batch, machine, c) * 1e3 for c in CORES
        ],
    }
    print()
    print(format_series("cores", CORES, fp,
                        title=f"Predicted FP time, batch {batch} (ms)"))

    bp = {
        "parallel-gemm": [
            parallel_gemm_conv_time(spec, "bp", batch, machine, c) * 1e3
            for c in CORES
        ],
        "gemm-in-parallel": [
            gemm_in_parallel_conv_time(spec, "bp", batch, machine, c) * 1e3
            for c in CORES
        ],
        f"sparse (s={sparsity})": [
            sparse_bp_time(spec, batch, sparsity, machine, c) * 1e3
            for c in CORES
        ],
    }
    print()
    print(format_series("cores", CORES, bp,
                        title=f"Predicted BP time, batch {batch} (ms)"))

    best_fp = min(fp, key=lambda k: fp[k][-1])
    best_bp = min(bp, key=lambda k: bp[k][-1])
    print(f"\nspg-CNN would deploy: FP={best_fp}, BP={best_bp} (at 16 cores)")


if __name__ == "__main__":
    main(sys.argv[1:])
