"""Convolution shape algebra and arithmetic-intensity formulas.

This module implements the quantitative backbone of the paper's Section 3
characterization: the 5-tuple convolution kernel description
``<Nf, Fy, Fx, sy, sx>`` applied to an input of shape ``Nc x Ny x Nx``,
the operation/access counts of Eqs. 5-8, the unfolded-input size ``|U|``,
and the maximum fraction ``r`` of the intrinsic arithmetic intensity that
the Unfold+GEMM execution strategy can achieve.

All counts are in *elements* (single-precision floats) and *floating point
operations*, matching the paper's accounting.  Byte-level traffic is derived
by the machine model (:mod:`repro.machine`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.errors import ShapeError

#: Bytes per element; the paper (and this reproduction) uses float32.
ELEMENT_BYTES = 4


@dataclass(frozen=True)
class ConvSpec:
    """Fully specified 2-D convolution over a single input image.

    Attributes mirror the paper's notation:

    * ``nc`` -- number of input features (channels), :math:`N_c`
    * ``ny``, ``nx`` -- spatial input size, :math:`N_y, N_x`
    * ``nf`` -- number of output features, :math:`N_f`
    * ``fy``, ``fx`` -- kernel size, :math:`F_y, F_x`
    * ``sy``, ``sx`` -- strides
    * ``pad`` -- symmetric zero padding applied to both spatial dims
      before the (valid-mode) convolution
    * ``name`` -- optional label used in reports
    """

    nc: int
    ny: int
    nx: int
    nf: int
    fy: int
    fx: int
    sy: int = 1
    sx: int = 1
    pad: int = 0
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for attr in ("nc", "ny", "nx", "nf", "fy", "fx", "sy", "sx"):
            value = getattr(self, attr)
            if not isinstance(value, int) or value <= 0:
                raise ShapeError(f"ConvSpec.{attr} must be a positive int, got {value!r}")
        if not isinstance(self.pad, int) or self.pad < 0:
            raise ShapeError(f"ConvSpec.pad must be a non-negative int, got {self.pad!r}")
        if self.fy > self.padded_ny or self.fx > self.padded_nx:
            raise ShapeError(
                f"kernel {self.fy}x{self.fx} larger than padded input "
                f"{self.padded_ny}x{self.padded_nx}"
            )

    # ------------------------------------------------------------------
    # Shape derivations
    # ------------------------------------------------------------------

    @property
    def padded_ny(self) -> int:
        """Spatial height after zero padding."""
        return self.ny + 2 * self.pad

    @property
    def padded_nx(self) -> int:
        """Spatial width after zero padding."""
        return self.nx + 2 * self.pad

    def pre_padded(self) -> "ConvSpec":
        """The engine-facing variant: the padded extents, ``pad == 0``."""
        return replace(self, ny=self.padded_ny, nx=self.padded_nx, pad=0)

    @property
    def out_ny(self) -> int:
        """Output spatial height of the valid-mode strided convolution."""
        return (self.padded_ny - self.fy) // self.sy + 1

    @property
    def out_nx(self) -> int:
        """Output spatial width of the valid-mode strided convolution."""
        return (self.padded_nx - self.fx) // self.sx + 1

    @property
    def input_shape(self) -> tuple[int, int, int]:
        """Unpadded input activation shape ``(Nc, Ny, Nx)``."""
        return (self.nc, self.ny, self.nx)

    def cropped_input_shape(self, crop: int) -> tuple[int, int, int]:
        """Input shape without a border of ``crop`` pixels per side.

        What BP-data returns when the caller discards that border (a
        conv layer's zero padding, seen from the pre-padded spec the
        engines run on); see :func:`backward_data_correlation`.
        """
        if not isinstance(crop, int) or crop < 0 \
                or 2 * crop >= min(self.ny, self.nx):
            raise ShapeError(
                f"crop {crop!r} leaves nothing of a {self.ny}x{self.nx} input"
            )
        return (self.nc, self.ny - 2 * crop, self.nx - 2 * crop)

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        """Weight tensor shape ``(Nf, Nc, Fy, Fx)``."""
        return (self.nf, self.nc, self.fy, self.fx)

    @property
    def output_shape(self) -> tuple[int, int, int]:
        """Output activation shape ``(Nf, out_Ny, out_Nx)``."""
        return (self.nf, self.out_ny, self.out_nx)

    # ------------------------------------------------------------------
    # Operation and access counts (paper Eqs. 5-8)
    # ------------------------------------------------------------------

    @property
    def flops(self) -> int:
        """|A| of Eq. 5: multiply-add pairs counted as 2 flops each."""
        return 2 * self.nf * self.out_ny * self.out_nx * self.nc * self.fy * self.fx

    @property
    def input_elems(self) -> int:
        """|I| of Eq. 6 (padded, since that is what the kernels touch)."""
        return self.nc * self.padded_ny * self.padded_nx

    @property
    def weight_elems(self) -> int:
        """|W| of Eq. 7."""
        return self.nf * self.nc * self.fy * self.fx

    @property
    def output_elems(self) -> int:
        """|O| of Eq. 8, generalized to strided convolutions."""
        return self.nf * self.out_ny * self.out_nx

    @property
    def unfolded_elems(self) -> int:
        """|U|: size of the unfolded (im2col) input matrix."""
        return self.out_ny * self.out_nx * self.nc * self.fy * self.fx

    @property
    def unfolded_elems_nominal(self) -> int:
        """|U| under the paper's accounting, which uses input positions.

        Table 1's Unfold+GEMM AIT column is computed with
        ``|U| = Nx*Ny*Nc*Fx*Fy`` -- i.e. one kernel application per *input*
        position (equivalently, assuming same-padding).  We keep the exact
        ``unfolded_elems`` for the physical kernels and use this nominal
        count only to reproduce the paper's reported AIT numbers.
        """
        return self.ny * self.nx * self.nc * self.fy * self.fx

    # ------------------------------------------------------------------
    # Arithmetic intensity (flops per element access)
    # ------------------------------------------------------------------

    @property
    def intrinsic_ait(self) -> float:
        """Intrinsic AIT of the convolution: |A| / (|I| + |W| + |O|)."""
        return self.flops / (self.input_elems + self.weight_elems + self.output_elems)

    @property
    def unfold_gemm_ait(self) -> float:
        """Maximum AIT achievable by Unfold+GEMM: |A| / (2|U| + |W| + |O|).

        Unfolding replicates each input element ~``Fy*Fx`` times and the
        unfolded matrix must be written then re-read, hence the ``2|U|``
        term (paper Sec. 3.1).  Uses the paper's nominal |U| accounting so
        that Table 1 is reproduced exactly.
        """
        denom = 2 * self.unfolded_elems_nominal + self.weight_elems + self.output_elems
        return self.flops / denom

    # ------------------------------------------------------------------
    # GEMM view (Fig. 2c): O = W . U^T
    # ------------------------------------------------------------------

    @property
    def gemm_dims(self) -> tuple[int, int, int]:
        """(M, K, N) of the unfolded forward GEMM.

        ``M = Nf`` (one row per output feature), ``K = Nc*Fy*Fx`` and
        ``N = out_Ny*out_Nx`` (one column per output position).
        """
        return (self.nf, self.nc * self.fy * self.fx, self.out_ny * self.out_nx)

    def with_name(self, name: str) -> "ConvSpec":
        """Return a copy of this spec carrying ``name``."""
        return replace(self, name=name)

    def describe(self) -> str:
        """One-line human-readable description used by reports."""
        label = self.name or "conv"
        return (
            f"{label}: {self.nc}x{self.ny}x{self.nx} -> {self.nf}x{self.out_ny}x{self.out_nx}"
            f" kernel {self.fy}x{self.fx} stride {self.sy}x{self.sx} pad {self.pad}"
        )


def square_conv(
    n: int, nf: int, nc: int, f: int, stride: int = 1, pad: int = 0, name: str = ""
) -> ConvSpec:
    """Build the paper's square convolution ``Nx(=Ny), Nf, Nc, Fx(=Fy)``.

    Table 1 and Table 2 describe convolutions with equal spatial dimensions
    and square kernels; this helper matches that notation order.
    """
    return ConvSpec(
        nc=nc, ny=n, nx=n, nf=nf, fy=f, fx=f, sy=stride, sx=stride, pad=pad, name=name
    )


def correlation_problem(spec: ConvSpec, crop: int = 0) -> ConvSpec | None:
    """BP-data (Eq. 3) of pre-padded ``spec`` as a *forward* convolution.

    For a stride-1 convolution the input error is the correlation of the
    output error, zero-bordered by ``F - 1`` pixels, with the weights
    rotated by 180 degrees and their feature axes swapped.  A caller that
    discards a border of ``crop`` pixels of the input error needs only
    ``F - 1 - crop`` of that zero border, and the correlation then
    produces exactly the interior it keeps.  The returned spec describes
    that forward problem: input ``[Nf, out_Ny + 2(Fy-1-crop), ...]``,
    output ``spec.cropped_input_shape(crop)``.  ``None`` where there is
    no such problem: a strided convolution (the error would have to be
    dilated) or ``crop`` larger than ``min(Fy, Fx) - 1`` (the border
    would be negative).  Whether to *use* it is
    :func:`backward_data_correlation`'s decision.
    """
    if spec.pad != 0:
        raise ShapeError("correlation_problem expects a pre-padded spec")
    nc, _, _ = spec.cropped_input_shape(crop)
    if (spec.sy, spec.sx) != (1, 1) or crop > min(spec.fy, spec.fx) - 1:
        return None
    return ConvSpec(
        nc=spec.nf,
        ny=spec.out_ny + 2 * (spec.fy - 1 - crop),
        nx=spec.out_nx + 2 * (spec.fx - 1 - crop),
        nf=nc,
        fy=spec.fy,
        fx=spec.fx,
    )


@lru_cache(maxsize=256)
def backward_data_correlation(spec: ConvSpec, crop: int = 0) -> ConvSpec | None:
    """The :func:`correlation_problem` the GEMM engines compute BP-data
    as, or None for the adjoint form (GEMM + ``fold``).  Decided from
    the sizes the spec holds, nothing else, by a rule that picks the
    faster backward on every zoo layer but not on every layer (below):

    * no correlation problem exists (strided, or ``crop`` beyond the
      kernel);
    * the correlation's GEMM has more columns than the adjoint's,
      ``(Ny-2crop)(Nx-2crop) > out_Ny*out_Nx`` -- every unpadded
      convolution with a kernel larger than 1x1.  With "same" padding
      (``2*crop == F - 1``) the two GEMMs cost the same flops;
    * the error has more than twice the input's channels,
      ``Nf > 2*Nc``.  Past the GEMM the correlation copies an unfolded
      error of ``Nf*Fy*Fx`` rows per position (a read and a write per
      element) where the adjoint stores a GEMM result of ``Nc*Fy*Fx``
      rows and folds it (a write, then two reads and a write): four
      memory operations per adjoint element against two per
      correlation element.  A layer fed few channels (CIFAR's first
      conv, 3 -> 64: 1600 rows against 75) takes the adjoint; ``Nf ==
      Nc`` keeps the correlation, whose unfolded error also serves dW
      (:meth:`repro.ops.engine.ConvEngine.backward`).

    ``benchmarks/bench_bp_data_forms.py`` times both forms on the zoo's
    and Table 2's stride-1 specs (rows in EXPERIMENTS.md).  On three
    Table 2 layers the rule keeps the correlation, ``Nf <= 2*Nc``,
    although the adjoint backward measured faster (``--repeats 9``):
    ``imagenet-22k-L2`` (250 -> 400) by 6%, ``imagenet-22k-L4``
    (400 -> 600) by 19% and ``imagenet-1k-L3`` (192 -> 256) by 21%.
    There BLAS's efficiency on the two GEMM shapes decides, which no
    size rule sees.
    """
    corr = correlation_problem(spec, crop)
    if corr is None or spec.nf > 2 * spec.nc:
        return None
    _, ny, nx = corr.output_shape
    if ny * nx > spec.out_ny * spec.out_nx:
        return None
    return corr


#: The kernel-row depth ``Nc*Fx`` from which a stride-1 GEMM may
#: multiply column-buffer views (:func:`implicit_gemm`).
IMPLICIT_GEMM_DEPTH = 256


def implicit_gemm(spec: ConvSpec) -> bool:
    """Whether the GEMM engines multiply ``spec``'s input without
    materialising ``U^T``: as ``Fy`` products ``W_ky . C_ky``, one per
    kernel row, where ``C_ky`` is the ``[Nc*Fx, out_Ny*out_Nx]`` view at
    row offset ``ky`` of the ``[Nc, Fx, Ny, out_Nx]`` column buffer
    (:func:`repro.ops.unfold.kernel_row_views`).  Decided from the
    spec's sizes alone:

    * only a stride-1 spec has such views;
    * the kernel row must be deep, ``Nc*Fx >=``
      :data:`IMPLICIT_GEMM_DEPTH`: each of the ``Fy`` GEMMs then stays
      large enough to pay for its call and for adding its product into
      the output;
    * one image's ``U^T`` must be at least four times the weights,
      ``out_Ny*out_Nx >= 4*Nf``: a call pays for reordering the weights
      into ``Fy`` blocks (a strided copy, several times slower per
      element than streaming ``U^T``) and for the calls and additions
      of ``Fy`` products, and an image saves writing and re-reading its
      ``U^T``.

    ``benchmarks/bench_gemm_lowering.py`` times both forms on the zoo's
    and Table 2's stride-1 specs at batch 1 and 16 (rows in
    EXPERIMENTS.md).  Each bound is set by those rows.  Rows of 96-144
    (the small ImageNet nets') read slower in the implicit form, 320
    (CIFAR's deep conv) faster.  A plane of 2.4 times the features (the
    error of ``imagenet-1k-L2``) reads slower at batch 1, 4 times
    (CIFAR's deep conv, at the bound) level, 10 (``imagenet-1k-L1``)
    faster.  So the rule picks the views for CIFAR's deep conv and
    ``imagenet-1k-L1``, input and error; every other spec keeps the
    unfold.
    """
    return (spec.sy, spec.sx) == (1, 1) \
        and spec.nc * spec.fx >= IMPLICIT_GEMM_DEPTH \
        and spec.out_ny * spec.out_nx >= 4 * spec.nf
