"""The C lowering of the sparse BP kernels (paper Sec. 4.2, Figs. 5-6).

The paper's generator emits C, and so does this printer: the two
kernels -- ``backward_data`` (Eq. 3) and ``backward_weights`` (Eq. 4) --
for one :class:`ConvSpec` as one C translation unit, from the scheduled
nest of each family's pipeline: the tap order is :func:`_taps` of it,
and every extent is a literal ``#define``.  Each tap is one arrow of
Fig. 6: one sparse MM whose result lands at the tap's pointer-shifted
offset.

Shape of the emitted code (both kernels, per image):

* the dense CHW error is compressed inside the kernel -- per output
  *position* (rows of ``EO_mat``) for BP-data, per output *feature*
  (rows of ``EO_mat^T``, which is what CHW already is) for dW;
* BP-data runs taps outermost, so one tap's ``[Nf, Nc]`` weight panel
  stays in L1 while the non-zeros stream past; dW does the same on wide
  layers, and on narrow ones (:func:`dw_rows`: a tap row's ``Fx * Nc``
  floats fit a few vectors) runs features outermost, each non-zero adding
  the ``Fy`` rows of its HWC patch into registers -- one pass over the
  non-zeros instead of one per tap;
* channels ``c`` are the fastest dimension of every panel and of the
  HWC image (Fig. 5b) and the accumulation over them is held in vector
  registers (``vector_size`` extension, at most :data:`CHUNK_VECTORS`
  vectors at a time), written back once per (tap, row) -- per (feature,
  image) in the row order;
* the HWC<->CHW transposes, the weight-layout transform and BP-data's
  ``crop`` happen in the kernel, so the operands are the engine's own
  ``[B, C, Y, X]`` arrays and the result needs no further copy.

A third export, ``pooled``, serves a conv layer whose forward ran fused
with its ReLU and max-pool: from the pooled output, argmax and pooled
error it writes the conv-shaped error (what the fused unit's ``unpool``
writes) and, in the same pass over the windows, dW's CSR -- no compress
scan -- then accumulates dW.  The window is an argument, so a spec keeps
one unit; a window element's row comes from a reciprocal, not a divide.

All working memory is one caller-owned ``float`` scratch (no ``malloc``,
no statics: two engines never share state), whose size the printer
reports.  The summation order differs from the reference's (and from
GEMM's); it is fixed by the source -- per dW element, images in order
and per image the feature's non-zeros in raster order, from ``+0``,
whichever loop order -- so equal artefacts compute equal bits.

The printer returns the facts it emitted alongside the text
(:class:`repro.native.CUnit`: the literals and, per kernel, the tap
order, the two tap tables and the output it writes); ``repro check``
recomputes them from the nest and compares -- with each other and with
the ``#define`` and table lines of the text.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError, ShapeError
from repro.native import CUnit, KernelFacts, Kernels, require, vector_registers
from repro.stencil.loopir import MAX_WINDOW_ELEMENTS, LoopNest, PoolWindow
from repro.stencil.passes import default_pipeline

#: Accumulator vectors held in registers at once (of 32 zmm / 16 ymm).
CHUNK_VECTORS = 8

_INT32_MAX = 2 ** 31 - 1


def _taps(nest: LoopNest) -> list[tuple[int, int]]:
    """Kernel taps in the scheduled nest's enumeration order."""
    stage = nest.stages[0]
    order = [li.dim.name for li in stage.loops if li.dim.name in ("ky", "kx")]
    extents = {"ky": nest.spec.fy, "kx": nest.spec.fx}
    taps = []
    for first in range(extents[order[0]]):
        for second in range(extents[order[1]]):
            tap = {order[0]: first, order[1]: second}
            taps.append((tap["ky"], tap["kx"]))
    return taps


def channel_tiling(nc: int) -> tuple[int, int, int]:
    """``(vector floats, vectors per chunk, chunks)`` for ``nc`` channels.

    The channel dimension is padded to ``vw * cv * nch`` floats so the
    inner loops are whole vectors; narrow layers take narrower vectors
    instead of padding 3 channels to 16.
    """
    vw = 16 if nc >= 12 else 8 if nc >= 6 else 4
    vectors = -(-nc // vw)
    chunks = -(-vectors // CHUNK_VECTORS)
    return vw, -(-vectors // chunks), chunks


def dw_rows(spec: ConvSpec) -> tuple[int, int] | None:
    """``(vector floats, vectors)`` of one tap row where dW runs in row
    order, else ``None`` (taps outermost).

    A tap row of the packed HWC patch is ``Fx * Nc`` floats, loaded as
    that many floats rounded up to a power of two (at least 4, at most
    the host's vector) in as many vectors as it takes.  The row order
    holds ``Fy`` rows of them as accumulators; it is chosen where they
    leave four of the host's vector registers for the broadcast and the
    loads (on AVX-512 it won up to 25 accumulators and lost at 50).
    """
    registers, widest = vector_registers()
    row = spec.fx * spec.nc
    width = min(widest, max(4, 1 << (row - 1).bit_length()))
    vectors = -(-row // width)
    return (width, vectors) if spec.fy * vectors <= registers - 4 else None


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def unit_literals(spec: ConvSpec) -> dict[str, int]:
    """Every extent the C text needs, as the ``#define`` table."""
    vw, cv, nch = channel_tiling(spec.nc)
    ncp = vw * cv * nch
    positions = spec.out_ny * spec.out_nx
    taps = spec.fy * spec.fx
    lit = {
        "NC": spec.nc, "NCP": ncp, "VW": vw, "CV": cv,
        "NF": spec.nf, "NY": spec.ny, "NX": spec.nx,
        "OY": spec.out_ny, "OX": spec.out_nx, "P": positions,
        "SY": spec.sy, "SX": spec.sx, "FY": spec.fy, "FX": spec.fx,
        "NT": taps,
    }
    panel, hwc = taps * spec.nf * ncp, spec.ny * spec.nx * ncp
    rows = dw_rows(spec)
    if rows is None:
        lit["DWP"] = ncp
    else:
        width, vectors = rows
        # dW's image is packed (pitch NC); a patch row's last vector may
        # read past the image, into zeroed slack.
        lit.update(DWP=spec.nc, RVW=width, RV=vectors, RW=width * vectors)
        panel = max(panel, spec.nf * spec.fy * width * vectors)
        hwc = max(hwc, spec.ny * spec.nx * spec.nc + width * vectors)
    # Scratch sections, each a whole number of 16-float lines.
    sections = (
        ("PANEL", panel),                       # [tap][f][NCP] / [f][ky][RW]
        ("HWC", hwc),                           # [y][x][NCP] / [y][x][NC]
        ("VAL", positions * spec.nf),           # non-zero values
        ("IDX", positions * spec.nf),           # their int32 offsets
        ("PTR", max(positions, spec.nf) + 1),   # int32 row pointers
        ("ROW", 3 * spec.out_nx),               # pooled export's row
    )
    offset = 0
    for name, floats in sections:
        lit[f"{name}_FLOATS"] = floats
        lit[f"{name}_OFF"] = offset
        offset += _round_up(floats, 16)
    lit["SCRATCH_FLOATS"] = offset
    if offset > _INT32_MAX:
        raise CodegenError(
            f"native sparse kernels index with int32; {spec.describe()} "
            f"needs {offset} scratch floats")
    return lit


_PRELUDE = """\
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Unaligned, and allowed to alias the float arrays it is loaded from. */
typedef float vf __attribute__((vector_size(VW * 4), aligned(4), may_alias));

/* scalar - vector broadcasts in gcc and clang; x - 0 keeps every x. */
static inline vf splat(float v) { return v - (vf){0}; }

/* d[0..NCP) += sum_k val[k] * (base + idx[k])[0..NCP): one sparse row
   times the rows of a channel-fastest panel, accumulated in registers
   CV vectors at a time and written back once. */
static inline void sparse_row_times_panel(
    float *d, const float *base, const float *val, const int *idx,
    int lo, int hi)
{
    for (int c0 = 0; c0 < NCP; c0 += CV * VW) {
        vf acc[CV] = {0};
        for (int k = lo; k < hi; k++) {
            const float *row = base + idx[k] + c0;
            const vf v = splat(val[k]);
            for (int j = 0; j < CV; j++)
                acc[j] += v * *(const vf *)(row + j * VW);
        }
        for (int j = 0; j < CV; j++)
            *(vf *)(d + c0 + j * VW) += acc[j];
    }
}

/* v where keep is 1, +0 where it is 0: a mask, not a branch (which
   random argmaxes would mispredict). */
static inline float kept(float v, int keep)
{
    union { float f; uint32_t u; } bits = {v};
    bits.u &= -(uint32_t)keep;
    return bits.f;
}

/* One image into dW's HWC layout, DWP floats per position. */
static void dw_image(float *hwc, const float *img)
{
    for (int y = 0; y < NY; y++)
        for (int c = 0; c < NC; c++)
            for (int x = 0; x < NX; x++)
                hwc[(y * NX + x) * DWP + c] = img[(c * NY + y) * NX + x];
}
"""

#: dW with taps outermost (wide layers): one tap's ``[NF][NCP]`` panel
#: stays in L1 while each feature's non-zeros stream past.
DW_TAPS = """\
static void dw_begin(float *panel, float *hwc)
{
    memset(panel, 0, sizeof(float) * NT * NF * NCP);
#if NCP != NC
    memset(hwc, 0, sizeof(float) * NY * NX * NCP);
#else
    (void)hwc;
#endif
}

static void dw_accumulate(float *panel, const float *hwc, const float *val,
                          const int *idx, const int *ptr)
{
    for (int t = 0; t < NT; t++) {
        const float *src = hwc + DW_TAP_OFF[t];
        float *dt = panel + t * NF * NCP;
        for (int f = 0; f < NF; f++) {
            const int lo = ptr[f], hi = ptr[f + 1];
            if (lo != hi)
                sparse_row_times_panel(dt + f * NCP, src, val, idx, lo, hi);
        }
    }
}

static void dw_store(const float *panel, float *dw)
{
    for (int f = 0; f < NF; f++)
        for (int c = 0; c < NC; c++)
            for (int t = 0; t < NT; t++)
                dw[(f * NC + c) * NT + DW_TAP_W[t]] =
                    panel[(t * NF + f) * NCP + c];
}
"""

#: dW in row order (narrow layers): features outermost; each non-zero
#: adds the ``FY`` tap rows of its packed HWC patch (``FX * NC`` floats,
#: ``RV`` vectors of ``RVW`` each) into registers, written back once per
#: (feature, image).  Per dW element the FMA sequence is the tap order's.
DW_ROWS = """\
typedef float vr __attribute__((vector_size(RVW * 4), aligned(4), may_alias));

static void dw_begin(float *panel, float *hwc)
{
    memset(panel, 0, sizeof(float) * NF * FY * RW);
    memset(hwc + NY * NX * NC, 0, sizeof(float) * (HWC_FLOATS - NY * NX * NC));
}

static void dw_accumulate(float *panel, const float *hwc, const float *val,
                          const int *idx, const int *ptr)
{
    for (int f = 0; f < NF; f++) {
        const int lo = ptr[f], hi = ptr[f + 1];
        if (lo == hi)
            continue;
        vr acc[FY][RV];
        for (int ky = 0; ky < FY; ky++)
            for (int j = 0; j < RV; j++)
                acc[ky][j] = (vr){0};
        for (int k = lo; k < hi; k++) {
            const vr v = val[k] - (vr){0};
            const float *patch = hwc + idx[k];
            for (int ky = 0; ky < FY; ky++)
                for (int j = 0; j < RV; j++)
                    acc[ky][j] += v * *(const vr *)(
                        patch + DW_TAP_OFF[ky * FX] + j * RVW);
        }
        float *d = panel + f * FY * RW;
        for (int ky = 0; ky < FY; ky++)
            for (int j = 0; j < RV; j++)
                *(vr *)(d + ky * RW + j * RVW) += acc[ky][j];
    }
}

static void dw_store(const float *panel, float *dw)
{
    for (int f = 0; f < NF; f++)
        for (int c = 0; c < NC; c++)
            for (int ky = 0; ky < FY; ky++)
                for (int kx = 0; kx < FX; kx++)
                    dw[(f * NC + c) * NT + DW_TAP_W[ky * FX + kx]] =
                        panel[(f * FY + ky) * RW + kx * NC + c];
}
"""

_BODY = """\
/* Eq. 3: ei[b] = crop(sum_taps shift(EO_mat[b] . W'[tap])). */
void {name}_bd(const float *eo, const float *w, float *ei,
               int64_t batch, int64_t crop, float *scratch)
{{
    float *panel = scratch + PANEL_OFF;   /* W' [tap][f][NCP] */
    float *hwc = scratch + HWC_OFF;       /* EI [y][x][NCP]   */
    float *val = scratch + VAL_OFF;
    int *idx = (int *)(scratch + IDX_OFF);
    int *ptr = (int *)(scratch + PTR_OFF);
    const int64_t cy = NY - 2 * crop, cx = NX - 2 * crop;

#if NCP != NC
    memset(panel, 0, sizeof(float) * NT * NF * NCP);
#endif
    for (int f = 0; f < NF; f++)
        for (int c = 0; c < NC; c++)
            for (int t = 0; t < NT; t++)
                panel[(t * NF + f) * NCP + c] =
                    w[(f * NC + c) * NT + BD_TAP_W[t]];

    for (int64_t b = 0; b < batch; b++) {{
        const float *e = eo + b * NF * P;
        /* CSR by output position: (value, f * NCP) per non-zero. */
        int n = 0;
        for (int p = 0; p < P; p++) {{
            ptr[p] = n;
            for (int f = 0; f < NF; f++) {{
                float v = e[f * P + p];
                val[n] = v;
                idx[n] = f * NCP;
                n += (v != 0.0f);
            }}
        }}
        ptr[P] = n;

        memset(hwc, 0, sizeof(float) * NY * NX * NCP);
        for (int t = 0; t < NT; t++) {{
            const float *wt = panel + t * NF * NCP;
            float *dst = hwc + BD_TAP_OFF[t];
            for (int y = 0; y < OY; y++)
            for (int x = 0; x < OX; x++) {{
                const int lo = ptr[y * OX + x], hi = ptr[y * OX + x + 1];
                if (lo != hi)
                    sparse_row_times_panel(
                        dst + (y * SY * NX + x * SX) * NCP, wt, val, idx,
                        lo, hi);
            }}
        }}

        /* HWC -> CHW without the crop border. */
        float *out = ei + b * NC * cy * cx;
        for (int64_t y = 0; y < cy; y++) {{
            const float *src = hwc + ((y + crop) * NX + crop) * NCP;
            for (int c = 0; c < NC; c++)
                for (int64_t x = 0; x < cx; x++)
                    out[(c * cy + y) * cx + x] = src[x * NCP + c];
        }}
    }}
}}

/* Eq. 4: dw = sum_b EO_mat[b]^T . shift(I[b]), per tap. */
void {name}_dw(const float *eo, const float *in, float *dw,
               int64_t batch, float *scratch)
{{
    float *panel = scratch + PANEL_OFF;
    float *hwc = scratch + HWC_OFF;       /* I [y][x][DWP] */
    float *val = scratch + VAL_OFF;
    int *idx = (int *)(scratch + IDX_OFF);
    int *ptr = (int *)(scratch + PTR_OFF);

    dw_begin(panel, hwc);
    for (int64_t b = 0; b < batch; b++) {{
        const float *e = eo + b * NF * P;
        dw_image(hwc, in + b * NC * NY * NX);

        /* CSR by output feature: (value, HWC offset of the position). */
        int n = 0;
        for (int f = 0; f < NF; f++) {{
            ptr[f] = n;
            for (int y = 0; y < OY; y++)
            for (int x = 0; x < OX; x++) {{
                float v = e[f * P + y * OX + x];
                val[n] = v;
                idx[n] = (y * SY * NX + x * SX) * DWP;
                n += (v != 0.0f);
            }}
        }}
        ptr[NF] = n;
        dw_accumulate(panel, hwc, val, idx, ptr);
    }}
    dw_store(panel, dw);
}}
"""

#: The pooled export: the ReLU + max-pool backward of a fused forward
#: (the fused unit's ``unpool``, for windows that do not overlap) and
#: Eq. 4 on its result.  Window rows in order, columns ascending, is the
#: raster order the compress scan finds the non-zeros in.
POOLED = """\
/* err masked where out is not positive and routed to each window's
   argmax (pk x pk windows at stride ps >= pk), written as the conv-shaped
   conv_err and, from the same pass, as dW's CSR; then Eq. 4.  counts[0]:
   non-zeros of conv_err; counts[1]: windows whose error is not finite or
   whose argmax names no window element -- from the first such window on
   nothing is routed, and conv_err and dw are not the result.  No two
   arrays overlap: restrict lets the routing loop keep its loads ahead of
   the scatter (a fifth of the call on conv_in). */
void {name}_pooled(const float *restrict out, const uint8_t *restrict arg,
                   const float *restrict err, int64_t pk, int64_t ps,
                   const float *in, float *restrict conv_err, float *dw,
                   int64_t batch, float *scratch, int64_t *counts)
{{
    float *panel = scratch + PANEL_OFF;
    float *hwc = scratch + HWC_OFF;
    float *val = scratch + VAL_OFF;
    int *idx = (int *)(scratch + IDX_OFF);
    int *ptr = (int *)(scratch + PTR_OFF);
    /* One pooled row's routed values, their HWC column offsets and the
       window row of each non-zero (-1 where the value is zero). */
    float *restrict rv = scratch + ROW_OFF;
    int *restrict rx = (int *)(rv + OX), *restrict ry = rx + OX;
    const int k2 = (int)(pk * pk), stride = (int)ps;
    const int py = (int)((OY - pk) / ps + 1), px = (int)((OX - pk) / ps + 1);
    /* Window element t -> row (t + 0.5) / pk, rounded down: exact in
       double for any one-byte t, and no divide (or table load) per
       window. */
    const double inv = 1.0 / (double)pk;
    int64_t nonzero = 0, bad = 0;

    dw_begin(panel, hwc);
    for (int64_t b = 0; b < batch; b++) {{
        dw_image(hwc, in + b * NC * NY * NX);
        int n = 0;
        for (int f = 0; f < NF; f++) {{
            const int64_t i = b * NF + f;
            const float *o = out + i * py * px, *e = err + i * py * px;
            const uint8_t *a = arg + i * py * px;
            float *c = conv_err + i * P;
            ptr[f] = n;
            for (int w = 0; w < py * px; w++)
                bad += !isfinite(e[w]) | (a[w] >= k2);
            if (bad)
                continue;       /* the caller discards this call */
            memset(c, 0, sizeof(float) * P);
            for (int p = 0; p < py; p++) {{
                for (int q = 0; q < px; q++) {{
                    const int w = p * px + q, t = a[w];
                    const int wy = (int)((t + 0.5) * inv);
                    const int x = q * stride + t - wy * (int)pk;
                    const float v = kept(0.0f + e[w], o[w] > 0);
                    c[(p * stride + wy) * OX + x] = v;
                    rv[q] = v;
                    rx[q] = x * SX * DWP;
                    ry[q] = wy | -(v == 0.0f);
                }}
                /* Window rows in order, columns ascending: the raster
                   order the compress scan finds the non-zeros in. */
                for (int dy = 0; dy < pk; dy++) {{
                    const int row = (p * stride + dy) * SY * NX * DWP;
                    for (int q = 0; q < px; q++) {{
                        val[n] = rv[q];
                        idx[n] = row + rx[q];
                        n += ry[q] == dy;
                    }}
                }}
            }}
        }}
        ptr[NF] = n;
        nonzero += n;
        dw_accumulate(panel, hwc, val, idx, ptr);
    }}
    dw_store(panel, dw);
    counts[0] = nonzero;
    counts[1] = bad;
}}
"""


@functools.lru_cache(maxsize=256)
def emit_sparse_c_unit(spec: ConvSpec) -> CUnit:
    """Print the two sparse BP kernels for ``spec`` as one C unit.

    Exports ``<name>_bd(eo, w, ei, batch, crop, scratch)``,
    ``<name>_dw(eo, in, dw, batch, scratch)`` and ``<name>_pooled(out,
    argmax, err, pk, ps, in, conv_err, dw, batch, scratch, counts)`` over
    C-contiguous ``float`` arrays in the engines' ``[B, C, Y, X]`` /
    ``[F, C, Ky, Kx]`` layouts (``argmax`` ``uint8``, ``counts``
    ``int64``);
    ``scratch`` holds ``SCRATCH_FLOATS`` floats.
    """
    if spec.pad != 0:
        raise CodegenError("emit_sparse_c_unit requires a pre-padded spec")
    literals = unit_literals(spec)
    name = (f"sparse_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}"
            f"_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}")
    lines = [f"/* Generated sparse BP kernels for {spec.describe()}. */"]
    lines += [f"#define {key} {value}" for key, value in literals.items()]
    lines.append(_PRELUDE)
    kernels = []
    for symbol, family, written, pitch in (
            ("bd", "sparse_bp_data", spec.input_shape, literals["NCP"]),
            ("dw", "sparse_bp_weights", spec.weight_shape, literals["DWP"])):
        taps = tuple(_taps(default_pipeline(family).build_nest(spec)))
        kernels.append(KernelFacts(
            symbol=symbol, taps=taps,
            tap_w=tuple(ky * spec.fx + kx for ky, kx in taps),
            tap_off=tuple((ky * spec.nx + kx) * pitch for ky, kx in taps),
            blocks=(tuple((0, extent) for extent in written),)))
        lines += kernels[-1].table_lines()
    lines.append(DW_TAPS if "RV" not in literals else DW_ROWS)
    lines.append(_BODY.format(name=name))
    lines.append(POOLED.format(name=name))
    return CUnit(name=name, source="\n".join(lines),
                 literals=tuple(literals.items()), kernels=tuple(kernels),
                 helpers=("pooled",))


# -- the loaded unit ----------------------------------------------------------

class NativeSparseKernels(Kernels):
    """The C kernels of one spec, callable on numpy arrays."""

    EXPORTS = {"bd": "pppiip", "dw": "pppip", "pooled": "pppiipppipp"}

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int, scratch: np.ndarray) -> np.ndarray:
        """``[B, *spec.cropped_input_shape(crop)]`` input error (Eq. 3)."""
        spec = self.spec
        batch = int(out_error.shape[0])
        require("out_error", out_error, (batch,) + spec.output_shape)
        require("weights", weights, spec.weight_shape)
        require("scratch", scratch, (self.unit.scratch_floats,))
        in_error = np.empty((batch,) + spec.cropped_input_shape(crop),
                            dtype=np.float32)
        self.call("bd", out_error, weights, in_error, batch, crop, scratch)
        return in_error

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray,
                         scratch: np.ndarray) -> np.ndarray:
        """``[Nf, Nc, Ky, Kx]`` weight gradient summed over the batch."""
        spec = self.spec
        batch = int(out_error.shape[0])
        require("out_error", out_error, (batch,) + spec.output_shape)
        require("inputs", inputs, (batch,) + spec.input_shape)
        require("scratch", scratch, (self.unit.scratch_floats,))
        d_weights = np.empty(spec.weight_shape, dtype=np.float32)
        self.call("dw", out_error, inputs, d_weights, batch, scratch)
        return d_weights

    def pooled_backward(self, out: np.ndarray, argmax: np.ndarray,
                        error: np.ndarray, window: PoolWindow,
                        inputs: np.ndarray, scratch: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The conv-shaped error of a fused forward's pooled ``error``
        (masked where ``out`` is not positive, routed to each window's
        ``argmax``), the ``[Nf, Nc, Ky, Kx]`` weight gradient of it, its
        non-zero count, and how many windows' error was not finite or
        ``uint8`` argmax named no window element.  Windows must not
        overlap."""
        spec = self.spec
        kernel, stride = window.kernel, window.stride
        if not 1 <= kernel <= min(stride, spec.out_ny, spec.out_nx) \
                or kernel ** 2 > MAX_WINDOW_ELEMENTS:
            raise ShapeError(
                f"the pooled export takes windows that fit the "
                f"{spec.out_ny}x{spec.out_nx} output, do not overlap and "
                f"have at most {MAX_WINDOW_ELEMENTS} elements, not "
                f"{kernel}/{stride}")
        batch = int(out.shape[0])
        pooled = (batch, spec.nf, window.out_extent(spec.out_ny),
                  window.out_extent(spec.out_nx))
        require("out", out, pooled)
        require("argmax", argmax, pooled, np.uint8)
        require("error", error, pooled)
        require("inputs", inputs, (batch,) + spec.input_shape)
        require("scratch", scratch, (self.unit.scratch_floats,))
        conv_error = np.empty((batch,) + spec.output_shape, dtype=np.float32)
        d_weights = np.empty(spec.weight_shape, dtype=np.float32)
        counts = np.zeros(2, dtype=np.int64)
        self.call("pooled", out, argmax, error, kernel, stride, inputs,
                  conv_error, d_weights, batch, scratch, counts)
        return conv_error, d_weights, int(counts[0]), int(counts[1])
