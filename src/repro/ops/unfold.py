"""Unfolding (im2col) and folding (col2im) of convolution inputs.

This is step (1) of the paper's Unfold+Parallel-GEMM execution strategy
(Sec. 2.3, Fig. 2b): for every input channel, the inputs to each kernel
application are flattened into a vector; vectors are concatenated over
output positions, and channels are stacked.  The paper draws the result
as ``U`` of shape ``[out_Ny*out_Nx, Nc*Fy*Fx]`` and multiplies by its
transpose, ``O = W_mat . U^T`` (Fig. 2c).  This module builds that GEMM
operand directly: :func:`unfold` returns the *K-major* matrix ``U^T`` of
shape ``[Nc*Fy*Fx, out_Ny*out_Nx]`` -- row ``(c, ky, kx)`` holds, for
every output position, the input element that kernel tap reads.

K-major is the layout a CPU gather wants: one row of ``U^T`` is a
shifted (and, for strided convolutions, subsampled) copy of an input
plane, so every copied run is a whole output row of ``out_Nx`` elements
instead of the ``Fx`` elements a ``[P, K]`` row offers, and the same
``[Nc, Fy, Fx, out_Ny, out_Nx]`` view serves :func:`fold` without an
axis shuffle.  The three GEMMs that use it are in
:mod:`repro.ops.gemm_conv`.

A stride-1 row is longer still: row ``(c, ky, kx)`` is the ``out_Ny``
rows ``ky ..`` of the ``kx``-shifted plane, so once the ``Fx`` shifted
planes of a channel are gathered into one ``[Nc, Fx, Ny, out_Nx]``
column buffer, every row of ``U^T`` is a single contiguous
``out_Ny*out_Nx`` run of it.  :func:`unfold_each` unfolds a batch that
way -- two long-run copies per image, their strided views built once
per batch -- and yields the same ``U^T`` the one-step gather gives.

``fold`` is the exact adjoint (transpose) of ``unfold`` -- each unfolded
element is scattered back (accumulating) to the input position it came
from -- which is what back-propagation through the unfolding requires.
It is the BP-data path of strided and unpadded convolutions only: for a
stride-1 layer that discards its pad border the engines :func:`unfold`
the zero-bordered *error* instead and never fold (the geometry rule is
:func:`repro.core.convspec.backward_data_correlation`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError


def _patch_shape(spec: ConvSpec) -> tuple[int, int, int, int, int]:
    """``U^T`` seen as ``[Nc, Fy, Fx, out_Ny, out_Nx]``."""
    return (spec.nc, spec.fy, spec.fx, spec.out_ny, spec.out_nx)


def column_shape(spec: ConvSpec) -> tuple[int, int, int, int]:
    """The ``[Nc, Fx, Ny, out_Nx]`` column buffer of a stride-1 unfold."""
    return (spec.nc, spec.fx, spec.ny, spec.out_nx)


def unfold(spec: ConvSpec, inputs: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unfold a ``[Nc, Ny, Nx]`` image to ``U^T``: ``[Nc*Fy*Fx, out_Ny*out_Nx]``.

    The row ordering is Fig. 2b's column ordering: channels are the
    slowest-varying row group, then ``ky``, then ``kx``; columns run over
    output positions in row-major order, so ``unfold(...).T`` is the
    figure's ``U``.  When ``out`` is given (a C-contiguous array of the
    result shape) the patches are gathered straight into it and it is
    returned.
    """
    if inputs.shape != spec.input_shape:
        raise ShapeError(f"input shape {inputs.shape} != spec {spec.input_shape}")
    if out is None:
        out = np.empty(spec.gemm_dims[1:], dtype=inputs.dtype)
    return next(unfold_each(spec, inputs[None], out))


def unfold_each(spec: ConvSpec, images: np.ndarray, out: np.ndarray,
                columns: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Unfold each ``[Nc, Ny, Nx]`` image of ``images`` into ``out`` in turn.

    Yields ``out`` (C-contiguous, ``[Nc*Fy*Fx, out_Ny*out_Nx]``) once
    per image, holding that image's :func:`unfold`; the next step
    overwrites it.  Stride-1 specs gather through ``columns`` (a
    C-contiguous :func:`column_shape` buffer, allocated when not given):
    the ``Fx`` shifted planes, then each row of ``U^T`` as one run of
    them.  Strided specs gather each patch directly.  Either way the
    strided views are built once, here, not per image.
    """
    if spec.pad != 0:
        raise ShapeError("unfold expects pre-padded inputs (spec.pad must be 0)")
    if images.ndim != 4 or images.shape[1:] != spec.input_shape:
        raise ShapeError(f"batch input shape {images.shape} != "
                         f"(B, *{spec.input_shape})")
    result_shape = spec.gemm_dims[1:]
    if out.shape != result_shape:
        raise ShapeError(f"out shape {out.shape} != expected {result_shape}")
    if not out.flags.c_contiguous:
        # reshape on a non-contiguous target would silently copy.
        raise ShapeError("unfold out buffer must be C-contiguous")
    nc, fy, fx, oy, ox = _patch_shape(spec)
    bs, cs, ys, xs = images.strides
    if (spec.sy, spec.sx) != (1, 1):
        patches = as_strided(images, shape=(len(images),) + _patch_shape(spec),
                             strides=(bs, cs, ys, xs, ys * spec.sy,
                                      xs * spec.sx))
        target = out.reshape(_patch_shape(spec))
        for image in patches:
            np.copyto(target, image)
            yield out
        return
    if columns is None:
        columns = np.empty(column_shape(spec), dtype=images.dtype)
    elif columns.shape != column_shape(spec) \
            or not columns.flags.c_contiguous:
        raise ShapeError(f"columns buffer must be a C-contiguous "
                         f"{column_shape(spec)} array")
    shifted = as_strided(images, shape=(len(images),) + column_shape(spec),
                         strides=(bs, cs, xs, ys, xs))
    c_cs, c_kx, c_ys, c_xs = columns.strides
    rows = as_strided(columns, shape=(nc, fy, fx, oy * ox),
                      strides=(c_cs, c_ys, c_kx, c_xs))
    target = out.reshape(nc, fy, fx, oy * ox)
    for image in shifted:
        np.copyto(columns, image)
        np.copyto(target, rows)
        yield out


def fold(spec: ConvSpec, unfolded: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of :func:`unfold`: accumulate ``U^T``-shaped rows into an image.

    Elements of ``unfolded`` that originated from the same input position
    are summed, making ``fold(unfold(x)) == multiplicity * x`` where the
    multiplicity counts how many kernel applications cover each position.
    When ``out`` is given it is zero-filled and accumulated into in place
    (letting engines fold straight into a slice of the batch output).
    """
    expected = spec.gemm_dims[1:]
    if unfolded.shape != expected:
        raise ShapeError(f"unfolded shape {unfolded.shape} != expected {expected}")
    if out is None:
        image = np.zeros(spec.input_shape, dtype=unfolded.dtype)
    else:
        if out.shape != spec.input_shape:
            raise ShapeError(
                f"out shape {out.shape} != spec {spec.input_shape}"
            )
        image = out
        image.fill(0)
    patches = unfolded.reshape(_patch_shape(spec))
    span_y = (spec.out_ny - 1) * spec.sy + 1
    span_x = (spec.out_nx - 1) * spec.sx + 1
    for ky in range(spec.fy):
        for kx in range(spec.fx):
            target = image[:, ky : ky + span_y : spec.sy, kx : kx + span_x : spec.sx]
            target += patches[:, ky, kx]
    return image


def weights_matrix(spec: ConvSpec, weights: np.ndarray) -> np.ndarray:
    """Flatten ``[Nf, Nc, Fy, Fx]`` weights into the GEMM operand ``[Nf, K]``."""
    if weights.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {weights.shape} != spec {spec.weight_shape}")
    return weights.reshape(spec.nf, spec.nc * spec.fy * spec.fx)


def output_image_to_matrix(spec: ConvSpec, out_img: np.ndarray) -> np.ndarray:
    """Flatten ``[Nf, out_Ny, out_Nx]`` to the GEMM layout ``[Nf, out_Ny*out_Nx]``."""
    if out_img.shape != spec.output_shape:
        raise ShapeError(f"output shape {out_img.shape} != spec {spec.output_shape}")
    return out_img.reshape(spec.nf, spec.out_ny * spec.out_nx)
