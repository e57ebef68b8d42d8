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

``fold`` is the exact adjoint (transpose) of ``unfold`` -- each unfolded
element is scattered back (accumulating) to the input position it came
from -- which is what back-propagation through the unfolding requires.
It is the BP-data path of strided and unpadded convolutions only: for a
stride-1 layer that discards its pad border the engines :func:`unfold`
the zero-bordered *error* instead and never fold (the geometry rule is
:func:`repro.core.convspec.backward_data_correlation`).
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError


def _patch_shape(spec: ConvSpec) -> tuple[int, int, int, int, int]:
    """``U^T`` seen as ``[Nc, Fy, Fx, out_Ny, out_Nx]``."""
    return (spec.nc, spec.fy, spec.fx, spec.out_ny, spec.out_nx)


def unfold(spec: ConvSpec, inputs: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unfold a ``[Nc, Ny, Nx]`` image to ``U^T``: ``[Nc*Fy*Fx, out_Ny*out_Nx]``.

    The row ordering is Fig. 2b's column ordering: channels are the
    slowest-varying row group, then ``ky``, then ``kx``; columns run over
    output positions in row-major order, so ``unfold(...).T`` is the
    figure's ``U``.  When ``out`` is given (a C-contiguous array of the
    result shape) the patches are gathered straight into it and it is
    returned -- the engines pass a reusable workspace buffer here to
    avoid re-allocating ``U^T`` per image.
    """
    if spec.pad != 0:
        raise ShapeError("unfold expects pre-padded inputs (spec.pad must be 0)")
    if inputs.shape != spec.input_shape:
        raise ShapeError(f"input shape {inputs.shape} != spec {spec.input_shape}")
    cs, ys, xs = inputs.strides
    shape = _patch_shape(spec)
    strides = (cs, ys, xs, ys * spec.sy, xs * spec.sx)
    patches = np.lib.stride_tricks.as_strided(inputs, shape=shape, strides=strides)
    result_shape = spec.gemm_dims[1:]
    if out is None:
        out = np.empty(result_shape, dtype=inputs.dtype)
    elif out.shape != result_shape:
        raise ShapeError(f"out shape {out.shape} != expected {result_shape}")
    elif not out.flags.c_contiguous:
        # reshape on a non-contiguous target would silently copy.
        raise ShapeError("unfold out buffer must be C-contiguous")
    np.copyto(out.reshape(shape), patches)
    return out


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
