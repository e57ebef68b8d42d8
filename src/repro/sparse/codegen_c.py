"""The C lowering of the sparse BP kernels (paper Sec. 4.2, Figs. 5-6).

The paper's generator emits C; :mod:`repro.sparse.codegen` emits numpy
statements, which cost a Python dispatch per tap and per CT-CSR tile.
This printer writes the same two kernels -- ``backward_data`` (Eq. 3) and
``backward_weights`` (Eq. 4) -- for one :class:`ConvSpec` as one C
translation unit, from the *same* scheduled nest: the tap order is
:func:`repro.sparse.codegen._taps` of the family's pipeline, and every
extent is a literal ``#define``.

Shape of the emitted code (both kernels, per image):

* the dense CHW error is compressed inside the kernel -- per output
  *position* (rows of ``EO_mat``) for BP-data, per output *feature*
  (rows of ``EO_mat^T``, which is what CHW already is) for dW;
* taps are the outermost loop, so one tap's ``[Nf, Nc]`` weight panel
  (BP-data) or dW panel stays in L1 while the non-zeros stream past;
* channels ``c`` are the fastest dimension of every panel and of the
  HWC image (Fig. 5b) and the accumulation over them is held in vector
  registers (``vector_size`` extension, at most :data:`CHUNK_VECTORS`
  vectors at a time), written back once per (tap, row);
* the HWC<->CHW transposes, the weight-layout transform and BP-data's
  ``crop`` happen in the kernel, so the operands are the engine's own
  ``[B, C, Y, X]`` arrays and the result needs no further copy.

All working memory is one caller-owned ``float`` scratch (no ``malloc``,
no statics: two engines never share state), whose size the printer
reports.  The summation order differs from the Python printer's (and
from GEMM's); it is fixed by the source, so equal artefacts compute
equal bits.

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
from repro.errors import CodegenError
from repro.native import CUnit, KernelFacts, Kernels, require
from repro.sparse.codegen import _taps
from repro.stencil.passes import default_pipeline

#: Accumulator vectors held in registers at once (of 32 zmm / 16 ymm).
CHUNK_VECTORS = 8

_INT32_MAX = 2 ** 31 - 1


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
    # Scratch sections, each a whole number of 16-float lines.
    sections = (
        ("PANEL", taps * spec.nf * ncp),        # [tap][f][NCP]
        ("HWC", spec.ny * spec.nx * ncp),       # [y][x][NCP]
        ("VAL", positions * spec.nf),           # non-zero values
        ("IDX", positions * spec.nf),           # their int32 offsets
        ("PTR", max(positions, spec.nf) + 1),   # int32 row pointers
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
    memset(panel, 0, sizeof(float) * PANEL_FLOATS);
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

        memset(hwc, 0, sizeof(float) * HWC_FLOATS);
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
    float *panel = scratch + PANEL_OFF;   /* dW' [tap][f][NCP] */
    float *hwc = scratch + HWC_OFF;       /* I   [y][x][NCP]   */
    float *val = scratch + VAL_OFF;
    int *idx = (int *)(scratch + IDX_OFF);
    int *ptr = (int *)(scratch + PTR_OFF);

    memset(panel, 0, sizeof(float) * PANEL_FLOATS);
#if NCP != NC
    memset(hwc, 0, sizeof(float) * HWC_FLOATS);
#endif
    for (int64_t b = 0; b < batch; b++) {{
        const float *e = eo + b * NF * P;
        const float *img = in + b * NC * NY * NX;
        for (int y = 0; y < NY; y++)
            for (int c = 0; c < NC; c++)
                for (int x = 0; x < NX; x++)
                    hwc[(y * NX + x) * NCP + c] = img[(c * NY + y) * NX + x];

        /* CSR by output feature: (value, HWC offset of the position). */
        int n = 0;
        for (int f = 0; f < NF; f++) {{
            ptr[f] = n;
            for (int y = 0; y < OY; y++)
            for (int x = 0; x < OX; x++) {{
                float v = e[f * P + y * OX + x];
                val[n] = v;
                idx[n] = (y * SY * NX + x * SX) * NCP;
                n += (v != 0.0f);
            }}
        }}
        ptr[NF] = n;

        for (int t = 0; t < NT; t++) {{
            const float *src = hwc + DW_TAP_OFF[t];
            float *dt = panel + t * NF * NCP;
            for (int f = 0; f < NF; f++) {{
                const int lo = ptr[f], hi = ptr[f + 1];
                if (lo != hi)
                    sparse_row_times_panel(dt + f * NCP, src, val, idx,
                                           lo, hi);
            }}
        }}
    }}

    for (int f = 0; f < NF; f++)
        for (int c = 0; c < NC; c++)
            for (int t = 0; t < NT; t++)
                dw[(f * NC + c) * NT + DW_TAP_W[t]] =
                    panel[(t * NF + f) * NCP + c];
}}
"""


@functools.lru_cache(maxsize=256)
def emit_sparse_c_unit(spec: ConvSpec) -> CUnit:
    """Print the two sparse BP kernels for ``spec`` as one C unit.

    Exports ``<name>_bd(eo, w, ei, batch, crop, scratch)`` and
    ``<name>_dw(eo, in, dw, batch, scratch)`` over C-contiguous
    ``float`` arrays in the engines' ``[B, C, Y, X]`` / ``[F, C, Ky, Kx]``
    layouts; ``scratch`` holds ``SCRATCH_FLOATS`` floats.
    """
    if spec.pad != 0:
        raise CodegenError("emit_sparse_c_unit requires a pre-padded spec")
    literals = unit_literals(spec)
    ncp = literals["NCP"]
    name = (f"sparse_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}"
            f"_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}")
    lines = [f"/* Generated sparse BP kernels for {spec.describe()}. */"]
    lines += [f"#define {key} {value}" for key, value in literals.items()]
    lines.append(_PRELUDE)
    kernels = []
    for symbol, family, written in (
            ("bd", "sparse_bp_data", spec.input_shape),
            ("dw", "sparse_bp_weights", spec.weight_shape)):
        taps = tuple(_taps(default_pipeline(family).build_nest(spec)))
        kernels.append(KernelFacts(
            symbol=symbol, taps=taps,
            tap_w=tuple(ky * spec.fx + kx for ky, kx in taps),
            tap_off=tuple((ky * spec.nx + kx) * ncp for ky, kx in taps),
            blocks=(tuple((0, extent) for extent in written),)))
        lines += kernels[-1].table_lines()
    lines.append(_BODY.format(name=name))
    return CUnit(name=name, source="\n".join(lines),
                 literals=tuple(literals.items()), kernels=tuple(kernels))


# -- the loaded unit ----------------------------------------------------------

class NativeSparseKernels(Kernels):
    """The two C kernels of one spec, callable on numpy arrays."""

    EXPORTS = {"bd": "pppiip", "dw": "pppip"}

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
