"""Emission of specialized, executable stencil kernels from the loop IR.

The emitter lowers a *scheduled* :class:`~repro.stencil.loopir.LoopNest`
into Python source with every enumerated loop fully unrolled and every
slice bound a literal -- the same specialization decisions the paper's
generator makes when it emits AVX C (Fig. 7), expressed with numpy vector
operations standing in for the vector ISA.  Each unrolled tap line is one
shifted rank-reduced multiply-accumulate, mirroring the FMA group a tap
contributes to the register tile; strided convolutions emit literal
strided slices (the aligned-load layout of Eq. 21 is modelled on the cost
side).

What used to be the only emission is now the *default schedule*: calling
an emitter without a pipeline applies
:func:`repro.stencil.passes.default_pipeline` and produces byte-identical
source to the original generator.  Non-default pipelines (tiled,
reordered, jammed, fused) emit the corresponding statement stream and
carry the pipeline fingerprint in the kernel name, so distinct schedules
can never collide in the codegen cache -- the cache key *is*
``(spec, pipeline)``.

The generated source is compiled with :func:`compile`/``exec`` and kept on
the kernel object for inspection and testing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.stencil.loopir import REDUCE_ORDERED, LoopNest, Stage
from repro.stencil.passes import SchedulePipeline, default_pipeline


@dataclass(frozen=True)
class GeneratedKernel:
    """A compiled specialized kernel plus its source text."""

    name: str
    source: str
    func: Callable[..., np.ndarray]

    def __call__(self, *args, **kwargs):
        return self.func(*args, **kwargs)

    def __reduce__(self):
        # The exec-compiled function cannot pickle; ship (name, source)
        # and recompile on the far side.  Codegen is deterministic, so a
        # kernel crossing a spawn boundary stays identical -- this is
        # what lets engines holding generated kernels run under the
        # process execution backend.
        return (_compile, (self.name, self.source))


def _compile(name: str, source: str) -> GeneratedKernel:
    namespace: dict = {"np": np}
    try:
        code = compile(source, filename=f"<generated:{name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - generated from trusted templates
    except SyntaxError as exc:  # pragma: no cover - template bug guard
        raise CodegenError(f"generated kernel {name} failed to compile: {exc}") from exc
    return GeneratedKernel(name=name, source=source, func=namespace[name])


def _slice_expr(start: int, count: int, stride: int) -> str:
    """Literal slice text selecting ``count`` elements from ``start`` by ``stride``."""
    stop = start + (count - 1) * stride + 1
    if stride == 1:
        return f"{start}:{stop}"
    return f"{start}:{stop}:{stride}"


# -- scheduled statement enumeration ---------------------------------------


@dataclass(frozen=True)
class _Axis:
    """One enumerable loop of the scheduled nest."""

    name: str
    values: tuple
    jam: int = 1


def _stage_axes(stage: Stage) -> list[_Axis]:
    """The loops the emitter enumerates, in schedule order.

    Kernel taps are always unrolled (they are the REDUCE_ORDERED dims, or
    PARALLEL ``ky``/``kx`` in the dW nest); tiled spatial dims enumerate
    their literal tile ranges; everything else -- the untiled parallel
    plane and the atomic contraction -- is absorbed by the vector
    primitive.
    """
    axes: list[_Axis] = []
    for info in stage.loops:
        dim = info.dim
        is_tap = dim.name in ("ky", "kx", "wy", "wx")
        if is_tap or dim.kind == REDUCE_ORDERED:
            axes.append(_Axis(dim.name, tuple(range(dim.extent)), info.jam))
        elif info.tile is not None:
            ranges = tuple(
                (start, min(info.tile, dim.extent - start))
                for start in range(0, dim.extent, info.tile)
            )
            axes.append(_Axis(dim.name, ranges, info.jam))
    return axes


def _enumerate(axes: list[_Axis]) -> Iterator[dict]:
    """Walk the statement stream: axis order outer-to-inner, with jammed
    axes' group members moved innermost (classic unroll-and-jam)."""

    def rec(idx: int, pending: list, assignment: dict) -> Iterator[dict]:
        if idx == len(axes):
            if not pending:
                yield dict(assignment)
                return
            name, group = pending[0]
            for value in group:
                assignment[name] = value
                yield from rec(idx, pending[1:], assignment)
            return
        axis = axes[idx]
        if axis.jam > 1:
            for lo in range(0, len(axis.values), axis.jam):
                group = axis.values[lo:lo + axis.jam]
                yield from rec(idx + 1, pending + [(axis.name, group)],
                               assignment)
        else:
            for value in axis.values:
                assignment[axis.name] = value
                yield from rec(idx + 1, pending, assignment)

    yield from rec(0, [], {})


def _spatial(assignment: dict, dim: str, full: int) -> tuple[int, int]:
    """(start, extent) of the spatial tile this assignment selects."""
    if dim in assignment:
        return assignment[dim]
    return (0, full)


def _require_vectorized(nest: LoopNest, what: str) -> None:
    if not nest.vectorized:
        raise CodegenError(
            f"{what}: pipeline never lowered to the vector primitive; "
            f"append a vectorize pass"
        )


def _kernel_name(base: str, pipeline: SchedulePipeline) -> str:
    if pipeline.is_default:
        return base
    return f"{base}__s{pipeline.fingerprint()}"


# -- kernel emitters -------------------------------------------------------


@functools.lru_cache(maxsize=256)
def emit_forward_kernel(
    spec: ConvSpec, pipeline: SchedulePipeline | None = None
) -> GeneratedKernel:
    """Generate the FP stencil kernel for ``spec`` under ``pipeline``.

    Signature of the generated function:
    ``kernel(inputs, weights, out) -> out`` with ``inputs [Nc, Ny, Nx]``,
    ``weights [Nf, Nc, Fy, Fx]`` and ``out [Nf, out_Ny, out_Nx]`` (zeroed
    by the caller).  Each tap contributes
    ``out += W[:, :, ky, kx] . I[:, y-slice, x-slice]`` -- per spatial
    tile when the schedule tiled the output plane.
    """
    if spec.pad != 0:
        raise CodegenError("emit_forward_kernel requires a pre-padded (pad=0) spec")
    pipeline = pipeline or default_pipeline("fp")
    if pipeline.family != "fp":
        raise CodegenError(f"emit_forward_kernel got a {pipeline.family!r} pipeline")
    nest = pipeline.build_nest(spec)
    _require_vectorized(nest, "emit_forward_kernel")
    base = f"stencil_fp_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}"
    name = _kernel_name(base, pipeline)
    lines = [
        f"def {name}(inputs, weights, out):",
        f'    """Generated stencil FP kernel for {spec.describe()}."""',
        f"    assert inputs.shape == {spec.input_shape!r}, inputs.shape",
        f"    assert out.shape == {spec.output_shape!r}, out.shape",
    ]
    tiled = any(li.tile is not None for li in nest.stages[0].loops)
    for a in _enumerate(_stage_axes(nest.stages[0])):
        ky, kx = a["ky"], a["kx"]
        y0, rows = _spatial(a, "oy", spec.out_ny)
        x0, cols = _spatial(a, "ox", spec.out_nx)
        ys = _slice_expr(ky + y0 * spec.sy, rows, spec.sy)
        xs = _slice_expr(kx + x0 * spec.sx, cols, spec.sx)
        dst = "out" if not tiled else (
            f"out[:, {y0}:{y0 + rows}, {x0}:{x0 + cols}]"
        )
        lines.append(
            f"    {dst} += np.tensordot(weights[:, :, {ky}, {kx}], "
            f"inputs[:, {ys}, {xs}], axes=([1], [0]))"
        )
    lines.append("    return out")
    return _compile(name, "\n".join(lines) + "\n")


@functools.lru_cache(maxsize=256)
def emit_backward_data_kernel(
    spec: ConvSpec, pipeline: SchedulePipeline | None = None
) -> GeneratedKernel:
    """Generate the transposed-stencil kernel computing EI from EO (Eq. 3).

    Signature: ``kernel(out_error, weights, in_error) -> in_error`` with
    ``in_error`` zeroed by the caller.  Each tap scatters
    ``W[:, :, ky, kx]^T . EO`` onto the strided input slice at the tap
    offset -- the exact adjoint of the forward kernel's taps.
    """
    if spec.pad != 0:
        raise CodegenError("emit_backward_data_kernel requires a pre-padded spec")
    pipeline = pipeline or default_pipeline("bp_data")
    if pipeline.family != "bp_data":
        raise CodegenError(
            f"emit_backward_data_kernel got a {pipeline.family!r} pipeline"
        )
    nest = pipeline.build_nest(spec)
    _require_vectorized(nest, "emit_backward_data_kernel")
    base = f"stencil_bp_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}"
    name = _kernel_name(base, pipeline)
    lines = [
        f"def {name}(out_error, weights, in_error):",
        f'    """Generated transposed-stencil kernel for {spec.describe()}."""',
        f"    assert out_error.shape == {spec.output_shape!r}, out_error.shape",
        f"    assert in_error.shape == {spec.input_shape!r}, in_error.shape",
    ]
    tiled = any(li.tile is not None for li in nest.stages[0].loops)
    for a in _enumerate(_stage_axes(nest.stages[0])):
        ky, kx = a["ky"], a["kx"]
        y0, rows = _spatial(a, "oy", spec.out_ny)
        x0, cols = _spatial(a, "ox", spec.out_nx)
        ys = _slice_expr(ky + y0 * spec.sy, rows, spec.sy)
        xs = _slice_expr(kx + x0 * spec.sx, cols, spec.sx)
        src = "out_error" if not tiled else (
            f"out_error[:, {y0}:{y0 + rows}, {x0}:{x0 + cols}]"
        )
        lines.append(
            f"    in_error[:, {ys}, {xs}] += np.tensordot("
            f"weights[:, :, {ky}, {kx}], {src}, axes=([0], [0]))"
        )
    lines.append("    return in_error")
    return _compile(name, "\n".join(lines) + "\n")


@functools.lru_cache(maxsize=256)
def emit_backward_weights_kernel(
    spec: ConvSpec, pipeline: SchedulePipeline | None = None
) -> GeneratedKernel:
    """Generate the dW kernel (Eq. 4) with unrolled taps.

    Signature: ``kernel(out_error, inputs, dw) -> dw`` (``dw`` accumulated
    in place).  Each tap computes the full ``[Nf, Nc]`` correlation between
    the output error and the tap's shifted input slice.  The spatial plane
    is the reduction here, so schedules may only reorder the taps (each
    ``dw`` element is written by exactly one statement).
    """
    if spec.pad != 0:
        raise CodegenError("emit_backward_weights_kernel requires a pre-padded spec")
    pipeline = pipeline or default_pipeline("bp_weights")
    if pipeline.family != "bp_weights":
        raise CodegenError(
            f"emit_backward_weights_kernel got a {pipeline.family!r} pipeline"
        )
    nest = pipeline.build_nest(spec)
    _require_vectorized(nest, "emit_backward_weights_kernel")
    base = f"stencil_dw_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}"
    name = _kernel_name(base, pipeline)
    lines = [
        f"def {name}(out_error, inputs, dw):",
        f'    """Generated dW kernel for {spec.describe()}."""',
        f"    assert out_error.shape == {spec.output_shape!r}, out_error.shape",
        f"    assert dw.shape == {spec.weight_shape!r}, dw.shape",
    ]
    for a in _enumerate(_stage_axes(nest.stages[0])):
        ky, kx = a["ky"], a["kx"]
        ys = _slice_expr(ky, spec.out_ny, spec.sy)
        xs = _slice_expr(kx, spec.out_nx, spec.sx)
        lines.append(
            f"    dw[:, :, {ky}, {kx}] += np.tensordot("
            f"out_error, inputs[:, {ys}, {xs}], axes=([1, 2], [1, 2]))"
        )
    lines.append("    return dw")
    return _compile(name, "\n".join(lines) + "\n")


@functools.lru_cache(maxsize=256)
def emit_fused_forward_kernel(
    spec: ConvSpec,
    pool_kernel: int,
    pool_stride: int | None = None,
    pipeline: SchedulePipeline | None = None,
) -> GeneratedKernel:
    """Generate the fused conv+ReLU+max-pool kernel (one pass, no
    materialized activation or pre-pool intermediate).

    Signature: ``kernel(inputs, weights, bias, out, argmax) -> out`` with
    ``bias [Nf]`` added after the conv taps and before the ReLU (the same
    operation order as the unfused chain, which is what keeps the fusion
    bit-exact when the layer carries a trained bias),
    ``out [Nf, pool_Ny, pool_Nx]`` (pooled activations, zeroed or not --
    every element is written) and ``argmax [Nf, pool_Ny, pool_Nx]`` int64
    flat window indices (the only cache the fused backward needs: the
    ReLU mask at the argmax equals ``out > 0``).

    The emission processes one pool-row block at a time: the conv taps
    accumulate into a block-scoped scratch ``act`` covering exactly the
    producer rows the block's pool windows read, ReLU is applied in
    cache, and the pool reduces via a strided window view / ``argmax`` /
    ``take_along_axis`` sequence that picks the element the unfused
    ``MaxPoolLayer`` picks (first maximum in row-major window order) --
    which is what makes the fusion bit-exact against the layer chain.
    """
    if spec.pad != 0:
        raise CodegenError("emit_fused_forward_kernel requires a pre-padded spec")
    stride = pool_stride or pool_kernel
    pipeline = pipeline or default_pipeline(
        "fused_fp", pool_kernel=pool_kernel, pool_stride=stride
    )
    if pipeline.family != "fused_fp":
        raise CodegenError(
            f"emit_fused_forward_kernel got a {pipeline.family!r} pipeline"
        )
    if (pipeline.pool_kernel, pipeline.pool_stride) != (pool_kernel, stride):
        raise CodegenError(
            f"pipeline pool geometry ({pipeline.pool_kernel}, "
            f"{pipeline.pool_stride}) does not match requested "
            f"({pool_kernel}, {stride})"
        )
    nest = pipeline.build_nest(spec)
    _require_vectorized(nest, "emit_fused_forward_kernel")
    pool = nest.pool
    assert pool is not None
    nf = spec.nf
    onx = spec.out_nx
    py = pool.out_extent(spec.out_ny)
    px = pool.out_extent(spec.out_nx)
    pk, ps = pool.kernel, pool.stride
    block = nest.stage("maxpool").loop("py").tile or 1
    base = (
        f"fused_fp_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}"
        f"_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}_p{pk}x{pk}s{ps}"
    )
    name = _kernel_name(base, pipeline)
    lines = [
        f"def {name}(inputs, weights, bias, out, argmax):",
        f'    """Generated fused conv+ReLU+maxpool kernel for {spec.describe()}'
        f' | pool {pk}x{pk} stride {ps}."""',
        f"    assert inputs.shape == {spec.input_shape!r}, inputs.shape",
        f"    assert out.shape == {(nf, py, px)!r}, out.shape",
        f"    assert argmax.shape == {(nf, py, px)!r}, argmax.shape",
    ]
    for p0 in range(0, py, block):
        p1 = min(p0 + block, py)
        bpy = p1 - p0
        rows = (bpy - 1) * ps + pk       # producer rows this block needs
        r0 = p0 * ps                     # first conv output row
        lines.append(f"    act = np.zeros(({nf}, {rows}, {onx}), dtype=out.dtype)")
        for a in _enumerate(_stage_axes(nest.stage("conv"))):
            ky, kx = a["ky"], a["kx"]
            ys = _slice_expr(ky + r0 * spec.sy, rows, spec.sy)
            xs = _slice_expr(kx, onx, spec.sx)
            lines.append(
                f"    act += np.tensordot(weights[:, :, {ky}, {kx}], "
                f"inputs[:, {ys}, {xs}], axes=([1], [0]))"
            )
        lines.extend(
            [
                "    act += bias[:, None, None]",
                "    act = np.where(act > 0, act, 0).astype(out.dtype, copy=False)",
                f"    win = np.lib.stride_tricks.as_strided(act, "
                f"shape=({nf}, {bpy}, {px}, {pk}, {pk}), "
                f"strides=(act.strides[0], act.strides[1] * {ps}, "
                f"act.strides[2] * {ps}, act.strides[1], act.strides[2]))",
                f"    flat = win.reshape({nf}, {bpy}, {px}, {pk * pk})",
                "    idx = flat.argmax(axis=3)",
                f"    out[:, {p0}:{p1}, :] = np.take_along_axis("
                f"flat, idx[:, :, :, None], axis=3)[:, :, :, 0]",
                f"    argmax[:, {p0}:{p1}, :] = idx",
            ]
        )
    lines.append("    return out")
    return _compile(name, "\n".join(lines) + "\n")
