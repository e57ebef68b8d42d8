"""Design-space characterization of CNN convolutions (paper Fig. 1).

The paper divides the convolution design space into six regions along two
axes: the arithmetic intensity achievable by Unfold+Parallel-GEMM (which is
approximately ``2 x number of output features``) and the sparsity of the
computation.  Even-numbered regions are dense, odd-numbered regions sparse;
the AIT bands determine scalability and single-core behaviour:

======  =============  ========  ===========================================
Region  Unfold AIT     Sparsity  Unfold+Parallel-GEMM behaviour
======  =============  ========  ===========================================
0       high           dense     scales, good single-core perf, good goodput
1       high           sparse    scales, good single-core perf, poor goodput
2       moderate       dense     poor scaling, good single-core perf
3       moderate       sparse    poor scaling, poor goodput
4       low            dense     poor scaling and single-core perf
5       low            sparse    poor scaling, poor perf, poor goodput
======  =============  ========  ===========================================

The AIT thresholds below are chosen so that the six Table 1 convolutions
land in exactly the regions the paper assigns them (Table 1's ``Reg``
column), and the sparsity threshold follows Sec. 4.4's observation that the
sparse kernel wins above roughly 75% sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.core.convspec import ConvSpec

#: Unfold+GEMM AIT at or above which a convolution behaves like a large
#: matrix multiply (Fig. 1 regions 0/1): scales well under Parallel-GEMM.
HIGH_AIT_THRESHOLD = 500.0

#: Unfold+GEMM AIT below which even single-core performance collapses
#: (Fig. 1 regions 4/5).
LOW_AIT_THRESHOLD = 50.0

#: Sparsity above which the computation is considered sparse (odd regions).
SPARSE_THRESHOLD = 0.75


class Region(IntEnum):
    """The six regions of the paper's Fig. 1 design space."""

    HIGH_AIT_DENSE = 0
    HIGH_AIT_SPARSE = 1
    MODERATE_AIT_DENSE = 2
    MODERATE_AIT_SPARSE = 3
    LOW_AIT_DENSE = 4
    LOW_AIT_SPARSE = 5

    @property
    def is_sparse(self) -> bool:
        """True for odd regions, where goodput is the limiting concern."""
        return self % 2 == 1

    @property
    def ait_band(self) -> str:
        """'high', 'moderate' or 'low' unfold-AIT band of this region."""
        return ("high", "high", "moderate", "moderate", "low", "low")[self]


@dataclass(frozen=True)
class Characterization:
    """Summary of where a convolution sits in the Fig. 1 design space."""

    spec: ConvSpec
    sparsity: float
    intrinsic_ait: float
    unfold_ait: float
    region: Region

    def recommended_fp(self) -> str:
        """The spg-CNN FP technique recommended for this region (Sec. 4.4)."""
        if self.region.ait_band == "high":
            return "parallel-gemm"
        if self.region.ait_band == "moderate":
            return "gemm-in-parallel"
        return "stencil"

    def recommended_bp(self) -> str:
        """The spg-CNN BP technique recommended for this region (Sec. 4.4)."""
        if self.region.is_sparse:
            return "sparse"
        if self.region.ait_band == "high":
            return "parallel-gemm"
        return "gemm-in-parallel"


def ait_band(unfold_ait: float) -> str:
    """Classify an Unfold+GEMM AIT value into its Fig. 1 band."""
    if unfold_ait >= HIGH_AIT_THRESHOLD:
        return "high"
    if unfold_ait >= LOW_AIT_THRESHOLD:
        return "moderate"
    return "low"


def classify(spec: ConvSpec, sparsity: float = 0.0) -> Region:
    """Place a convolution (at a given error sparsity) in a Fig. 1 region."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    band = ait_band(spec.unfold_gemm_ait)
    base = {"high": 0, "moderate": 2, "low": 4}[band]
    return Region(base + (1 if sparsity >= SPARSE_THRESHOLD else 0))


def characterize(spec: ConvSpec, sparsity: float = 0.0) -> Characterization:
    """Full characterization of a convolution at a given sparsity level."""
    return Characterization(
        spec=spec,
        sparsity=sparsity,
        intrinsic_ait=spec.intrinsic_ait,
        unfold_ait=spec.unfold_gemm_ait,
        region=classify(spec, sparsity),
    )


def region_pair(spec: ConvSpec) -> tuple[int, int]:
    """Dense/sparse region pair of a convolution, as listed in Table 1.

    Table 1's ``Reg`` column reports each convolution's region both for
    dense and sparse executions, e.g. ``4,5``.
    """
    dense = classify(spec, sparsity=0.0)
    sparse = classify(spec, sparsity=1.0)
    return (int(dense), int(sparse))
