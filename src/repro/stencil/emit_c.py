"""The C lowering of the stencil FP kernels (paper Sec. 4.3, Figs. 4c-4d, 7).

This printer walks the scheduled nest (:meth:`SchedulePipeline.build_nest`)
of the ``fp`` and ``fused_fp`` families and writes one C unit per
``(spec, pipeline)``, every extent a literal, compiled at first use
through :mod:`repro.native` -- the register-blocked, per-shape direct
convolution of Georganas et al.:

* ``ox`` is the vector dimension (the ``vectorize`` pass's width, the
  row tail in narrower powers of two: MNIST's 24 prints as 16 + 8);
* the nest's parallel ``f`` / ``oy`` dims are blocked into an
  accumulator tile (:func:`accumulator_block`) held in registers across
  ``c`` and the taps, which come out of the emitted tap tables one
  kernel column at a time: the ``rows + Fy - 1`` input vectors of a
  column are loaded once per ``(c, kx)`` and each feeds all its ``ky``
  taps (Fig. 7's load reuse) for every feature of the block;
* ``Nf`` / ``Oy`` remainders are literal blocks of their own; the fused
  nest's ``py`` tile is the pool rows one ``act`` tile holds;
* operands are the engines' own ``[B, C, Y, X]`` / ``[F, C, Ky, Kx]``
  arrays: no layout change, no scratch -- except ``fused_fp``, where the
  same block code fills the nest's TILE-scoped ``act`` buffer (caller's
  scratch) and bias + ReLU + max-pool (first maximum in row-major window
  order) + argmax run from it before anything reaches memory, counting
  the non-finite values it read; the unit's second export is the matching
  backward (ReLU mask + argmax scatter into the conv-shaped error), which
  :class:`repro.nn.layers.conv.ConvLayer` runs when it fuses.

The FMA order per output element is this printer's constant
(:func:`column_taps`), which keeps fused == chain bitwise.  Stride-1
nests only: anything else raises :class:`CodegenError` and the engine
is served by :mod:`repro.ops.reference`.  The facts emitted travel with
the text (:class:`repro.native.CUnit`); ``repro check`` recomputes them
from the nest.

The same two texts -- the pooled store and the backward scatter -- make
a third, conv-free unit, the *GEMM epilogue*
(:func:`emit_epilogue_c_unit`): bias + ReLU + max-pool + argmax of a
conv output a GEMM engine already computed, in one pass over it, and
its backward.  A conv layer on a GEMM FP engine runs its ``conv -> ReLU
-> max-pool`` run through it; it is admitted only bitwise equal to the
chain, as the fused unit is.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from itertools import product
from typing import Callable

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.native import (
    CUnit,
    KernelFacts,
    Kernels,
    NativeBuildError,
    check_agrees,
    kernels_for,
    load_kernels,
    require,
    vector_registers,
)
from repro.ops import reference
from repro.ops.workspace import Workspace
from repro.stencil.loopir import LoopNest, PoolWindow
from repro.stencil.passes import SchedulePipeline, Vectorize, default_pipeline

Blocks = list[tuple[int, int]]


def host_pipeline(family: str, pool_kernel: int = 0,
                  pool_stride: int = 0) -> SchedulePipeline:
    """The schedule the C lowering prints: the family's default
    vectorized for *this* host's register file instead of the paper's
    AVX."""
    base = default_pipeline(family, pool_kernel, pool_stride)
    return replace(base, passes=base.passes[:-1]
                   + (Vectorize(*vector_registers()),))


def column_taps(spec: ConvSpec) -> tuple[tuple[int, int], ...]:
    """The order an output element accumulates its taps in, from ``+0``
    and inside each ``c``: ``kx``, then ``ky`` -- whatever the pipeline,
    the register tile or the vector width.  A constant of this printer,
    not read off the nest (whose tap loops run ``ky``, ``kx``): Fig. 7's
    load reuse needs ``ky`` innermost, the input vector of row ``r + ky``
    serving output row ``r`` for every ``ky``.  So ``repro check``
    compares against this function."""
    return tuple((ky, kx) for kx in range(spec.fx) for ky in range(spec.fy))


def accumulator_block(nest: LoopNest, rows: int) -> tuple[int, int]:
    """``(features, rows)`` of the accumulator tile for ``rows`` rows.

    Of the nest's register budget one register broadcasts the weight,
    ``rows + Fy - 1`` hold the input column, the rest accumulate: the
    largest square that fits (an input vector is reused by every
    feature, a weight by every row) clipped to the rows there are, and
    what that frees goes to features, rounded down to a power of two so
    the feature counts networks use divide evenly.
    """
    spec = nest.spec
    budget = nest.num_registers - 1
    side = max((n for n in range(1, budget)
                if n * n + n + spec.fy - 1 <= budget), default=1)
    block_rows = min(side, rows)
    fill = max((budget - (block_rows + spec.fy - 1)) // block_rows, 1)
    return min(spec.nf, 1 << (fill.bit_length() - 1)), block_rows


def _split(extent: int, size: int) -> Blocks:
    """``[0, extent)`` as ``(start, size)`` blocks, the remainder a block
    of its own."""
    return [(start, min(size, extent - start))
            for start in range(0, extent, size)]


def _row_chunks(extent: int, widest: int) -> Blocks:
    """A row as vectors of ``widest`` floats, the tail as narrower powers
    of two."""
    chunks = []
    x, width = 0, widest
    while x < extent:
        while width > extent - x:
            width //= 2
        chunks.append((x, width))
        x += width
    return chunks


def _for_runs(var: str, blocks: Blocks, indent: str,
              inner: Callable[[str, int, str], list[str]]) -> list[str]:
    """``inner(expr, size, indent)`` for every block: consecutive equal
    blocks become one loop over ``var``, a lone block a literal."""
    lines: list[str] = []
    runs: list[list[int]] = []
    for start, size in blocks:
        if runs and runs[-1][1] == size \
                and runs[-1][0] + size * runs[-1][2] == start:
            runs[-1][2] += 1
        else:
            runs.append([start, size, 1])
    for start, size, count in runs:
        if count == 1:
            lines += inner(str(start), size, indent)
            continue
        lines.append(f"{indent}for (int {var} = {start}; {var} < "
                     f"{start + size * count}; {var} += {size}) {{")
        lines += inner(var, size, indent + "    ")
        lines.append(f"{indent}}}")
    return lines


def _block_function(spec: ConvSpec, tables: str, features: int, rows: int,
                    width: int) -> tuple[str, list[str]]:
    """One accumulator block: ``features x rows`` vectors of ``width``
    floats, held across ``c`` and the taps, stored once.  The taps come
    ``Fy`` at a time out of the ``<tables>_TAP_*`` tables: one column of
    the kernel, whose input vectors are loaded once for all its ``ky``."""
    name = f"block_{features}x{rows}x{width}"
    cells = list(product(range(features), range(rows)))
    lines = [f"static void {name}(const float *in, const float *wt, "
             f"float *out)", "{"]
    lines += [f"    v{width} a{f}_{r} = (v{width}){{0}};" for f, r in cells]
    lines += ["    for (int c = 0; c < NC; c++, in += NY * NX, wt += FY * FX)",
              "        for (int t = 0; t < NT; t += FY) {",
              f"            const float *col = in + {tables}_TAP_OFF[t];"]
    lines += [f"            const v{width} i{r} = "
              f"*(const v{width} *)(col + {r} * NX);"
              for r in range(rows + spec.fy - 1)]
    for ky, f in product(range(spec.fy), range(features)):
        lines.append(f"            {{ const float w = "
                     f"wt[{f} * WF + {tables}_TAP_W[t + {ky}]];"
                     + "".join(f" a{f}_{r} += w * i{r + ky};"
                               for r in range(rows)) + " }")
    lines.append("        }")
    lines += [f"    *(v{width} *)(out + {f} * OUT_F + {r} * OX) = a{f}_{r};"
              for f, r in cells]
    lines.append("}")
    return name, lines


_POOL_STORE = """\
/* bias + ReLU + max-pool of `features` x `rows` pooled rows of the act
   tile: the first maximum in row-major window order and its index.
   Returns how many biased conv outputs it read were not finite: the
   compares below drop NaN, where the chain's np.maximum keeps it. */
static int64_t pool_store(const float *act, const float *bias, float *out,
                          int64_t *arg, int features, int rows)
{
    int64_t nonfinite = 0;
    for (int f = 0; f < features; f++)
        for (int p = 0; p < rows; p++)
            for (int q = 0; q < PX; q++) {
                const float *a = act + f * OUT_F + p * PS * OX + q * PS;
                float best = -1.0f;
                int64_t at = 0;
                for (int wy = 0; wy < PK; wy++)
                    for (int wx = 0; wx < PK; wx++) {
                        float v = a[wy * OX + wx] + bias[f];
                        nonfinite += !isfinite(v);
                        v = v > 0 ? v : 0;
                        if (v > best) { best = v; at = wy * PK + wx; }
                    }
                out[(f * PY + p) * PX + q] = best;
                arg[(f * PY + p) * PX + q] = at;
            }
    return nonfinite;
}
"""

#: The fused unit's backward: ReLU mask (pooled output > 0) and max-pool
#: routing of a pooled error into the conv-shaped one, each window's
#: error added at its argmax in row-major window order -- the order the
#: chain's max-pool backward sums overlapping windows in.
UNPOOL = """\
void {name}_unpool(const float *out, const int64_t *arg, const float *err,
        float *conv_err, int64_t *rejected, int64_t batch)
{{
    int64_t bad = 0;
    for (int64_t i = 0; i < batch * NF; i++) {{
        const float *o = out + i * (PY * PX), *e = err + i * (PY * PX);
        const int64_t *a = arg + i * (PY * PX);
        float *c = conv_err + i * (OY * OX);
        for (int k = 0; k < OY * OX; k++)
            c[k] = 0;
        for (int p = 0; p < PY; p++)
            for (int q = 0; q < PX; q++) {{
                const int w = p * PX + q;
                const int64_t t = a[w];
                if (!isfinite(e[w]) || t < 0 || t >= PK * PK) {{
                    bad++;
                    continue;
                }}
                if (o[w] > 0)
                    c[(p * PS + t / PK) * OX + q * PS + t % PK] += e[w];
            }}
    }}
    *rejected = bad;
}}
"""


@functools.lru_cache(maxsize=256)
def emit_stencil_c_unit(spec: ConvSpec,
                        pipeline: SchedulePipeline) -> CUnit:
    """Print ``pipeline``'s scheduled nest for ``spec`` as one C unit.

    ``fp`` exports ``<name>_fp(in, w, out, batch)``; ``fused_fp`` exports
    ``<name>_fused(in, w, bias, out, argmax, batch, scratch, nonfinite)``
    with ``argmax`` an ``int64`` array, ``scratch`` ``SCRATCH_FLOATS``
    floats and ``nonfinite`` one ``int64``, and its backward
    ``<name>_unpool(out, argmax, err, conv_err, rejected, batch)``.  All
    arrays are C-contiguous in the engines' layouts.
    """
    if (spec.sy, spec.sx) != (1, 1):
        raise CodegenError(f"the stencil C printer covers stride-1 "
                           f"convolutions, not {spec.describe()}")
    nest = pipeline.build_nest(spec)    # vectorized: the pipeline ends so
    oy, ox, pool = spec.out_ny, spec.out_nx, nest.pool
    chunks = _row_chunks(ox, nest.vector_width)
    shape = (f"{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}_{spec.fy}x{spec.fx}"
             + (f"_p{pool.kernel}s{pool.stride}" if pool else "")
             + f"_{pipeline.fingerprint()}")
    literals = {"NC": spec.nc, "NY": spec.ny, "NX": spec.nx, "NF": spec.nf,
                "FY": spec.fy, "FX": spec.fx, "NT": spec.fy * spec.fx,
                "SY": 1, "SX": 1, "OY": oy, "OX": ox,
                "WF": spec.nc * spec.fy * spec.fx}
    symbol, name = ("fp", f"stencil_fp_{shape}") if pool is None else \
        ("fused", f"fused_fp_{shape}")
    blocks_used: dict[str, list[str]] = {}

    def conv_blocks(f: str, nf: int, rows: Blocks, in_row: str, out: str,
                    indent: str) -> list[str]:
        """Calls computing features ``[f, f + nf)`` over ``rows`` x
        ``chunks`` into ``out``; row 0 of ``rows`` is conv row ``in_row``."""
        def call(y: str, ny: int, x: str, nx: int, pad: str) -> list[str]:
            name, text = _block_function(spec, symbol.upper(), nf, ny, nx)
            blocks_used.setdefault(name, text)
            return [f"{pad}{name}(ib + ({in_row} + {y}) * NX + {x}, "
                    f"wt + {f} * WF, {out} + {y} * OX + {x});"]
        return _for_runs("y", rows, indent, lambda y, ny, i2: _for_runs(
            "x", chunks, i2, lambda x, nx, i3: call(y, ny, x, nx, i3)))

    if pool is None:
        block = accumulator_block(nest, oy)
        features = _split(spec.nf, block[0])
        rows = _split(oy, block[1])
        literals.update(FB=block[0], RB=block[1], OUT_F=oy * ox,
                        SCRATCH_FLOATS=0)
        main = [
            f"void {name}_fp(const float *in, const float *wt, float *out, "
            f"int64_t batch)", "{",
            "    for (int64_t b = 0; b < batch; b++) {",
            "        const float *ib = in + b * (NC * NY * NX);",
            "        float *ob = out + b * (NF * OY * OX);",
            *_for_runs("f", features, "        ", lambda f, nf, pad:
                       conv_blocks(f, nf, rows, "0", f"ob + {f} * OUT_F",
                                   pad)),
            "    }", "}"]
        written = tuple(product(features, rows, chunks))
    else:
        py, px = pool.out_extent(oy), pool.out_extent(ox)
        pool_rows = _split(py, nest.stage("maxpool").loop("py").tile or 1)
        tile_rows = pool.rows_needed(pool_rows[0][1])
        block = accumulator_block(nest, tile_rows)
        features = _split(spec.nf, block[0])
        literals.update(FB=block[0], RB=block[1], PK=pool.kernel,
                        PS=pool.stride, PY=py, PX=px, OUT_F=tile_rows * ox,
                        ACT_OFF=0, ACT_FLOATS=block[0] * tile_rows * ox,
                        SCRATCH_FLOATS=block[0] * tile_rows * ox)

        def pool_block(p: str, np_: int, indent: str) -> list[str]:
            rows = _split(pool.rows_needed(np_), block[1])
            return _for_runs("f", features, indent, lambda f, nf, pad: [
                *conv_blocks(f, nf, rows, f"{p} * PS", "act", pad),
                f"{pad}bad += pool_store(act, bias + {f}, "
                f"ob + ({f} * PY + {p}) * PX, ab + ({f} * PY + {p}) * PX, "
                f"{nf}, {np_});"])

        main = [
            f"void {name}_fused(const float *in, const float *wt, "
            f"const float *bias,",
            "        float *out, int64_t *arg, int64_t batch, "
            "float *scratch, int64_t *nonfinite)", "{",
            "    float *act = scratch + ACT_OFF;",
            "    int64_t bad = 0;",
            "    for (int64_t b = 0; b < batch; b++) {",
            "        const float *ib = in + b * (NC * NY * NX);",
            "        float *ob = out + b * (NF * PY * PX);",
            "        int64_t *ab = arg + b * (NF * PY * PX);",
            *_for_runs("p", pool_rows, "        ", pool_block),
            "    }", "    *nonfinite = bad;", "}", "",
            UNPOOL.format(name=name)]
        written = tuple(product(features, pool_rows, [(0, px)]))
    taps = column_taps(spec)
    facts = KernelFacts(
        symbol=symbol, taps=taps, blocks=written,
        tap_w=tuple(ky * spec.fx + kx for ky, kx in taps),
        tap_off=tuple(ky * spec.nx + kx for ky, kx in taps))
    lines = [f"/* Generated stencil kernel for {spec.describe()}: "
             f"{pipeline.describe()}. */", "#include <stdint.h>",
             *(["#include <math.h>"] if pool else [])]
    lines += [f"#define {key} {value}" for key, value in literals.items()]
    # One-float "vectors" too: scalar code would be open to the
    # auto-vectorizer, which regroups multiplies and so decides per block
    # shape what contracts into an FMA.
    lines += [f"typedef float v{w} __attribute__((vector_size({4 * w}), "
              f"aligned(4), may_alias));"
              for w in sorted({w for _, w in chunks})]
    lines += facts.table_lines()
    for text in blocks_used.values():
        lines += ["", *text]
    lines += ["", *([_POOL_STORE] if pool else []), *main, ""]
    return CUnit(name=name, source="\n".join(lines),
                 literals=tuple(literals.items()), kernels=(facts,),
                 helpers=("unpool",) if pool else ())


@functools.lru_cache(maxsize=256)
def emit_epilogue_c_unit(spec: ConvSpec, pool: PoolWindow) -> CUnit:
    """The GEMM epilogue of ``spec``'s conv output and ``pool``'s window.

    Exports ``<name>_pool(act, bias, out, argmax, batch, nonfinite)``
    -- :data:`_POOL_STORE` over each image's whole ``[Nf, Oy, Ox]`` conv
    output -- and :data:`UNPOOL`'s ``<name>_unpool``, with the fused
    unit's argument conventions.  Only the conv output's shape and the
    window reach the text, so every spec with that output shares it.
    """
    nf, oy, ox = spec.output_shape
    py, px = pool.out_extent(oy), pool.out_extent(ox)
    name = f"gemm_epilogue_{nf}x{oy}x{ox}_p{pool.kernel}s{pool.stride}"
    literals = {"NF": nf, "OY": oy, "OX": ox, "PK": pool.kernel,
                "PS": pool.stride, "PY": py, "PX": px, "OUT_F": oy * ox,
                "SCRATCH_FLOATS": 0}
    lines = [f"/* Generated bias + ReLU + {pool.kernel}x{pool.kernel}/"
             f"{pool.stride} max-pool epilogue of a GEMM conv output "
             f"[{nf}, {oy}, {ox}]. */", "#include <stdint.h>",
             "#include <math.h>"]
    lines += [f"#define {key} {value}" for key, value in literals.items()]
    lines += ["", _POOL_STORE,
              f"void {name}_pool(const float *act, const float *bias, "
              f"float *out,",
              "        int64_t *arg, int64_t batch, int64_t *nonfinite)", "{",
              "    int64_t bad = 0;",
              "    for (int64_t b = 0; b < batch; b++)",
              "        bad += pool_store(act + b * (NF * OY * OX), bias,",
              "                          out + b * (NF * PY * PX), "
              "arg + b * (NF * PY * PX),",
              "                          NF, PY);",
              "    *nonfinite = bad;", "}", "", UNPOOL.format(name=name)]
    return CUnit(name=name, source="\n".join(lines),
                 literals=tuple(literals.items()), kernels=(),
                 helpers=("pool", "unpool"))


# -- the loaded unit ----------------------------------------------------------

class _PooledKernels(Kernels):
    """The backward scatter every pooling unit exports."""

    def _pooled_shape(self, batch: int) -> tuple[int, ...]:
        unit = self.unit
        return (batch, self.spec.nf, unit.literal("PY"), unit.literal("PX"))

    def unpool(self, out: np.ndarray, argmax: np.ndarray, error: np.ndarray
               ) -> tuple[np.ndarray, int]:
        """The conv-shaped error ``[B, Nf, Oy, Ox]`` of the pooled
        ``error`` (masked where ``out`` is not positive, added at each
        window's ``argmax``), and how many windows it left out: their
        error was not finite, or their index named no window element."""
        batch = int(out.shape[0])
        shape = self._pooled_shape(batch)
        require("out", out, shape)
        require("argmax", argmax, shape, np.int64)
        require("error", error, shape)
        conv_error = np.empty((batch,) + self.spec.output_shape, np.float32)
        rejected = np.zeros(1, dtype=np.int64)
        self.call("unpool", out, argmax, error, conv_error, rejected, batch)
        return conv_error, int(rejected[0])


class NativeStencilKernels(_PooledKernels):
    """The C kernel of one ``(spec, pipeline)``, callable on numpy arrays."""

    EXPORTS = {"fp": "pppi", "fused": "pppppipp", "unpool": "pppppi"}
    #: The fused export computes the conv itself.
    takes_conv_output = False

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``[B, Nf, Oy, Ox]`` convolution of a batch (Eq. 2, no bias)."""
        spec = self.spec
        batch = int(inputs.shape[0])
        require("inputs", inputs, (batch,) + spec.input_shape)
        require("weights", weights, spec.weight_shape)
        out = np.empty((batch,) + spec.output_shape, dtype=np.float32)
        self.call("fp", inputs, weights, out, batch)
        return out

    def fused_forward(self, inputs: np.ndarray, weights: np.ndarray,
                      bias: np.ndarray, scratch: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, int]:
        """Pooled activations ``[B, Nf, Py, Px]`` of conv + bias + ReLU
        + max-pool, their ``int64`` flat window indices, and how many of
        the biased conv outputs read were not finite (where that is not
        0 the pooled values are not the chain's)."""
        spec = self.spec
        batch = int(inputs.shape[0])
        require("inputs", inputs, (batch,) + spec.input_shape)
        require("weights", weights, spec.weight_shape)
        require("bias", bias, (spec.nf,))
        require("scratch", scratch, (self.unit.scratch_floats,))
        out = np.empty(self._pooled_shape(batch), dtype=np.float32)
        argmax = np.empty(out.shape, dtype=np.int64)
        nonfinite = np.zeros(1, dtype=np.int64)
        self.call("fused", inputs, weights, bias, out, argmax, batch, scratch,
                  nonfinite)
        return out, argmax, int(nonfinite[0])


class NativeEpilogueKernels(_PooledKernels):
    """The GEMM epilogue of one ``(conv output shape, pool window)``."""

    EXPORTS = {"pool": "ppppip", "unpool": "pppppi"}
    #: The pool export reads a conv output an engine computed.
    takes_conv_output = True

    def pool(self, act: np.ndarray, bias: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, int]:
        """Pooled ``relu(act + bias)`` ``[B, Nf, Py, Px]``, its ``int64``
        flat window indices, and how many biased values it read were not
        finite (where that is not 0 the pooled values are not the
        chain's): :meth:`NativeStencilKernels.fused_forward` of a conv
        output ``act`` ``[B, Nf, Oy, Ox]`` already computed."""
        batch = int(act.shape[0])
        require("act", act, (batch,) + self.spec.output_shape)
        require("bias", bias, (self.spec.nf,))
        out = np.empty(self._pooled_shape(batch), dtype=np.float32)
        argmax = np.empty(out.shape, dtype=np.int64)
        nonfinite = np.zeros(1, dtype=np.int64)
        self.call("pool", act, bias, out, argmax, batch, nonfinite)
        return out, argmax, int(nonfinite[0])


def _check_pooling(what: str, act: np.ndarray, pool: PoolWindow,
                   out: np.ndarray, argmax: np.ndarray, error: np.ndarray,
                   conv_error: np.ndarray) -> None:
    """A pooling unit's forward and backward against the chain, bit for
    bit: ``out`` is the window maxima of ``act`` (the ReLU'd, biased
    conv output) and the elements ``argmax`` names, ``conv_error`` the
    pooled ``error`` masked by ``out > 0`` and added at the argmax in
    row-major window order."""
    windows = np.lib.stride_tricks.sliding_window_view(
        act, (pool.kernel,) * 2, axis=(2, 3)
    )[:, :, ::pool.stride, ::pool.stride]
    wy, wx = np.divmod(argmax, pool.kernel)
    b, f, p, q = np.indices(argmax.shape)
    for phase, got, want in (
            ("forward", out, windows.max(axis=(4, 5))),
            ("argmax", out, windows[b, f, p, q, wy, wx]),
            ("backward", conv_error, reference.unpool(
                out, argmax, error, pool.kernel, pool.stride, act.shape))):
        check_agrees(f"{what} {phase}", got, want, exact=True)


def _check_pooled_unit(
        kernels: _PooledKernels, pool: PoolWindow, label: str,
        cases: list[tuple[str, Callable[[], tuple[np.ndarray, np.ndarray,
                                                  int]],
                          Callable[[], np.ndarray]]]) -> None:
    """A pooling unit against its chain (:func:`_check_pooling`) on each
    ``(name, forward, act)`` case: ``forward()`` runs the unit's pooled
    forward, ``act()`` computes the chain's ReLU'd, biased conv output.
    The ``"poisoned"`` case must be counted, not swallowed (the conv
    layer re-runs the chain on that count); no finite error may be
    rejected, and a non-finite one must be."""
    rng = np.random.default_rng(1)
    for name, forward, act in cases:
        what = f"{label} ({name}) for {kernels.spec.describe()}"
        out, argmax, nonfinite = forward()
        error = rng.standard_normal(out.shape).astype(np.float32)
        conv_error, rejected = kernels.unpool(out, argmax, error)
        if (nonfinite > 0) != (name == "poisoned") or rejected:
            raise NativeBuildError(f"native {what} counted {nonfinite} "
                                   f"non-finite outputs, rejected "
                                   f"{rejected} errors")
        if not nonfinite:
            _check_pooling(what, act(), pool, out, argmax, error, conv_error)
    error[0, 0, 0, 0] = np.inf
    if kernels.unpool(out, argmax, error)[1] != 1:
        raise NativeBuildError(f"native {label} backward routed a "
                               f"non-finite error")


def _self_check(kernels: NativeStencilKernels,
                pool: PoolWindow | None) -> None:
    """Differential check of a freshly built unit against
    :mod:`repro.ops.reference`, on a random batch and on one image that
    is non-zero only at each plane's four corners (where an off-by-one
    tap offset or block bound lands outside the array, or on the wrong
    weight).

    The fused unit is judged through its chain, bit for bit, and only
    where that chain's conv is the FP kernel's C unit
    (:func:`_check_pooled_unit`), on a poisoned input too.  So what a
    conv layer deploys in place of its chain is checked on every host
    where a compiler could break it.
    """
    spec = kernels.spec
    rng = np.random.default_rng(0)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    bias = rng.standard_normal(spec.nf).astype(np.float32)
    random = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
    edge = np.zeros_like(random[:1])
    edge[:, :, ::max(spec.ny - 1, 1), ::max(spec.nx - 1, 1)] = 1.0
    if pool is None:
        for name, inputs in (("random", random), ("edge", edge)):
            check_agrees(f"forward ({name}) for {spec.describe()}",
                         kernels.forward(inputs, weights),
                         reference.batch_forward(spec, inputs, weights))
        return
    chain, reason = kernels_for(load_stencil_kernels, spec)
    if chain is None:
        raise NativeBuildError(f"no C FP unit to check the fused unit "
                               f"against: {reason}")
    poisoned = random[:1].copy()
    poisoned[0, 0, 0, 0] = np.nan
    scratch = kernels.scratch(Workspace())
    _check_pooled_unit(kernels, pool, "fused kernel", [
        (name, lambda x=inputs: kernels.fused_forward(x, weights, bias,
                                                       scratch),
         lambda x=inputs: np.maximum(chain.forward(x, weights)
                                     + bias[None, :, None, None], 0))
        for name, inputs in (("random", random), ("edge", edge),
                             ("poisoned", poisoned))])


def _self_check_epilogue(kernels: NativeEpilogueKernels,
                         pool: PoolWindow) -> None:
    """The epilogue against the numpy chain (:func:`_check_pooled_unit`),
    bit for bit, on a random conv output, the same rounded to integers
    (ties within a window, where the first maximum must win) and a
    poisoned one."""
    spec = kernels.spec
    rng = np.random.default_rng(0)
    act = rng.standard_normal((2,) + spec.output_shape).astype(np.float32)
    bias = rng.standard_normal(spec.nf).astype(np.float32)
    poisoned = act[:1].copy()
    poisoned[0, 0, 0, 0] = np.nan
    _check_pooled_unit(kernels, pool, "GEMM epilogue", [
        (name, lambda c=conv: kernels.pool(c, bias),
         lambda c=conv: np.maximum(c + bias[None, :, None, None], 0))
        for name, conv in (("random", act), ("ties", np.round(act)),
                           ("poisoned", poisoned))])


def load_stencil_kernels(spec: ConvSpec, pool: PoolWindow | None = None
                         ) -> NativeStencilKernels:
    """Build or fetch, self-check and load the C unit of the FP kernel
    or, given a pool window, of the fused kernel."""
    printed = host_pipeline("fp") if pool is None else \
        host_pipeline("fused_fp", pool.kernel, pool.stride)
    return load_kernels(
        NativeStencilKernels, spec, emit_stencil_c_unit(spec, printed),
        lambda kernels: _self_check(kernels, pool))


def load_epilogue_kernels(spec: ConvSpec,
                          pool: PoolWindow) -> NativeEpilogueKernels:
    """Build or fetch, self-check and load the GEMM epilogue of
    ``spec``'s conv output for ``pool``'s window."""
    return load_kernels(
        NativeEpilogueKernels, spec, emit_epilogue_c_unit(spec, pool),
        lambda kernels: _self_check_epilogue(kernels, pool))
