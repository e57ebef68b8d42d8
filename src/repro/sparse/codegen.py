"""Specialized sparse-kernel code generation (paper Sec. 4.2).

Like the stencil generator, the sparse generator emits Python source with
every kernel tap unrolled and every pointer-shifted destination slice a
literal -- the structure of Fig. 6, where each arrow (one tap's sparse
MM and its shifted placement) becomes one generated statement.  The
emitted kernels call the CT-CSR tile multiply as their "small dense MM"
building block.

The emitters are schedule-aware in the same way as the stencil ones: the
codegen cache is keyed on ``(spec, pipeline)`` so distinct schedules can
never collide, and the tap order is read off the scheduled loop nest.
The sparse families' only legal pass is tap ``reorder`` -- and only for
the dW kernel, where every ``dw_layout[ky, kx]`` slice is written by
exactly one tap; the EI kernel's taps accumulate into overlapping input
slices, so the loop IR marks them REDUCE_ORDERED and rejects reorders.
"""

from __future__ import annotations

import functools

from repro.core.convspec import ConvSpec
from repro.errors import CodegenError
from repro.stencil.emit import GeneratedKernel
from repro.stencil.loopir import LoopNest
from repro.stencil.passes import SchedulePipeline, default_pipeline
import numpy as np


def _compile(name: str, source: str) -> GeneratedKernel:
    namespace: dict = {"np": np}
    try:
        code = compile(source, filename=f"<generated:{name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - generated from trusted templates
    except SyntaxError as exc:  # pragma: no cover - template bug guard
        raise CodegenError(f"generated kernel {name} failed to compile: {exc}") from exc
    return GeneratedKernel(name=name, source=source, func=namespace[name])


def _slice_expr(start: int, count: int, stride: int) -> str:
    stop = start + (count - 1) * stride + 1
    if stride == 1:
        return f"{start}:{stop}"
    return f"{start}:{stop}:{stride}"


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


def _kernel_name(base: str, pipeline: SchedulePipeline) -> str:
    if pipeline.is_default:
        return base
    return f"{base}__s{pipeline.fingerprint()}"


@functools.lru_cache(maxsize=256)
def emit_sparse_backward_data(
    spec: ConvSpec, pipeline: SchedulePipeline | None = None
) -> GeneratedKernel:
    """Generate the pointer-shifting EI kernel for ``spec``.

    Signature: ``kernel(eo, w_layout, in_error_hwc) -> in_error_hwc`` with
    ``eo`` a CT-CSR ``[Ny*Nx, Nf]`` matrix, ``w_layout [Ky, Kx, Nf, Nc]``
    and ``in_error_hwc [Ny, Nx, Nc]`` zeroed by the caller.
    """
    if spec.pad != 0:
        raise CodegenError("emit_sparse_backward_data requires a pre-padded spec")
    pipeline = pipeline or default_pipeline("sparse_bp_data")
    if pipeline.family != "sparse_bp_data":
        raise CodegenError(
            f"emit_sparse_backward_data got a {pipeline.family!r} pipeline"
        )
    base = (
        f"sparse_bp_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}"
        f"_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}"
    )
    name = _kernel_name(base, pipeline)
    oy, ox, nc = spec.out_ny, spec.out_nx, spec.nc
    lines = [
        f"def {name}(eo, w_layout, in_error_hwc):",
        f'    """Generated sparse EI kernel for {spec.describe()}."""',
        f"    assert eo.shape == {(oy * ox, spec.nf)!r}, eo.shape",
        f"    assert in_error_hwc.shape == {(spec.ny, spec.nx, nc)!r}, in_error_hwc.shape",
    ]
    for ky, kx in _taps(pipeline.build_nest(spec)):
        ys = _slice_expr(ky, oy, spec.sy)
        xs = _slice_expr(kx, ox, spec.sx)
        lines.append(
            f"    in_error_hwc[{ys}, {xs}, :] += "
            f"eo.matmul_dense(w_layout[{ky}, {kx}]).reshape({oy}, {ox}, {nc})"
        )
    lines.append("    return in_error_hwc")
    return _compile(name, "\n".join(lines) + "\n")


@functools.lru_cache(maxsize=256)
def emit_sparse_backward_weights(
    spec: ConvSpec, pipeline: SchedulePipeline | None = None
) -> GeneratedKernel:
    """Generate the pointer-shifting dW kernel for ``spec``.

    Signature: ``kernel(eo, inputs_hwc, dw_layout) -> dw_layout`` with
    ``dw_layout [Ky, Kx, Nf, Nc]`` zeroed by the caller.
    """
    if spec.pad != 0:
        raise CodegenError("emit_sparse_backward_weights requires a pre-padded spec")
    pipeline = pipeline or default_pipeline("sparse_bp_weights")
    if pipeline.family != "sparse_bp_weights":
        raise CodegenError(
            f"emit_sparse_backward_weights got a {pipeline.family!r} pipeline"
        )
    base = (
        f"sparse_dw_{spec.nc}x{spec.ny}x{spec.nx}_{spec.nf}"
        f"_{spec.fy}x{spec.fx}_s{spec.sy}{spec.sx}"
    )
    name = _kernel_name(base, pipeline)
    oy, ox, nc = spec.out_ny, spec.out_nx, spec.nc
    lines = [
        f"def {name}(eo, inputs_hwc, dw_layout):",
        f'    """Generated sparse dW kernel for {spec.describe()}."""',
        f"    assert inputs_hwc.shape == {(spec.ny, spec.nx, nc)!r}, inputs_hwc.shape",
        f"    assert dw_layout.shape == {(spec.fy, spec.fx, spec.nf, nc)!r}, dw_layout.shape",
    ]
    for ky, kx in _taps(pipeline.build_nest(spec)):
        ys = _slice_expr(ky, oy, spec.sy)
        xs = _slice_expr(kx, ox, spec.sx)
        lines.append(
            f"    dw_layout[{ky}, {kx}] += eo.t_matmul_dense("
            f"np.ascontiguousarray(inputs_hwc[{ys}, {xs}, :])"
            f".reshape({oy * ox}, {nc}))"
        )
    lines.append("    return dw_layout")
    return _compile(name, "\n".join(lines) + "\n")
