"""Reference convolution implementations used as the correctness oracle.

Two oracles are provided for each of the three training computations
(forward, Eq. 2; backward data, Eq. 3; backward weights, Eq. 4):

* ``*_loops`` -- direct transcriptions of the paper's equations as Python
  loops.  Unbearably slow for anything but tiny shapes, but trivially
  auditable against the paper.
* ``forward`` / ``backward_data`` / ``backward_weights`` -- vectorized
  (einsum-based) equivalents fast enough to serve as the oracle in
  integration tests and as the functional backend of higher-level engines.

All functions operate on single images: inputs ``[Nc, Ny, Nx]``, weights
``[Nf, Nc, Fy, Fx]``, outputs ``[Nf, out_Ny, out_Nx]``.  Padding is applied
by the caller (``ConvLayer`` zero-pads the batch); specs passed here
must describe the already-padded input (``pad == 0``).
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError


def _check_input(spec: ConvSpec, inputs: np.ndarray) -> None:
    if spec.pad != 0:
        raise ShapeError(
            "reference kernels expect pre-padded inputs; zero-pad the "
            "image and use its pad=0 spec (ConvSpec.pre_padded)"
        )
    if inputs.shape != spec.input_shape:
        raise ShapeError(f"input shape {inputs.shape} != spec {spec.input_shape}")


def _check_weights(spec: ConvSpec, weights: np.ndarray) -> None:
    if weights.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {weights.shape} != spec {spec.weight_shape}")


def _check_output(spec: ConvSpec, out: np.ndarray) -> None:
    if out.shape != spec.output_shape:
        raise ShapeError(f"output-error shape {out.shape} != spec {spec.output_shape}")


def _patch_view(spec: ConvSpec, inputs: np.ndarray) -> np.ndarray:
    """Zero-copy sliding-window view ``[Nc, out_Ny, out_Nx, Fy, Fx]``."""
    nc = spec.nc
    sy, sx = spec.sy, spec.sx
    cs, ys, xs = inputs.strides
    shape = (nc, spec.out_ny, spec.out_nx, spec.fy, spec.fx)
    strides = (cs, ys * sy, xs * sx, ys, xs)
    return np.lib.stride_tricks.as_strided(inputs, shape=shape, strides=strides)


# ----------------------------------------------------------------------
# Forward propagation (Eq. 2)
# ----------------------------------------------------------------------


def forward_loops(spec: ConvSpec, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Direct loop transcription of Eq. 2.  For tiny shapes only."""
    _check_input(spec, inputs)
    _check_weights(spec, weights)
    out = np.zeros(spec.output_shape, dtype=inputs.dtype)
    for f in range(spec.nf):
        for y in range(spec.out_ny):
            for x in range(spec.out_nx):
                acc = 0.0
                for c in range(spec.nc):
                    for ky in range(spec.fy):
                        for kx in range(spec.fx):
                            acc += (
                                inputs[c, y * spec.sy + ky, x * spec.sx + kx]
                                * weights[f, c, ky, kx]
                            )
                out[f, y, x] = acc
    return out


def forward(spec: ConvSpec, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Vectorized Eq. 2 via a sliding-window view and einsum."""
    _check_input(spec, inputs)
    _check_weights(spec, weights)
    patches = _patch_view(spec, inputs)
    return np.einsum("cyxab,fcab->fyx", patches, weights, optimize=True).astype(
        inputs.dtype, copy=False
    )


# ----------------------------------------------------------------------
# Backward propagation of the error to the inputs (Eq. 3)
# ----------------------------------------------------------------------


def backward_data_loops(
    spec: ConvSpec, out_error: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Direct loop transcription of Eq. 3.  For tiny shapes only."""
    _check_output(spec, out_error)
    _check_weights(spec, weights)
    in_error = np.zeros(spec.input_shape, dtype=out_error.dtype)
    for c in range(spec.nc):
        for y in range(spec.padded_ny):
            for x in range(spec.padded_nx):
                acc = 0.0
                for f in range(spec.nf):
                    for ky in range(spec.fy):
                        for kx in range(spec.fx):
                            oy, rem_y = divmod(y - ky, spec.sy)
                            ox, rem_x = divmod(x - kx, spec.sx)
                            if rem_y or rem_x:
                                continue
                            if 0 <= oy < spec.out_ny and 0 <= ox < spec.out_nx:
                                acc += out_error[f, oy, ox] * weights[f, c, ky, kx]
                in_error[c, y, x] = acc
    return in_error


def backward_data(spec: ConvSpec, out_error: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Vectorized Eq. 3: scatter each output error into the input window.

    Implemented as the exact adjoint of :func:`forward`: for every kernel
    offset ``(ky, kx)``, the contribution ``EO . W[:, :, ky, kx]`` lands on
    the strided input slice starting at ``(ky, kx)``.
    """
    _check_output(spec, out_error)
    _check_weights(spec, weights)
    in_error = np.zeros(spec.input_shape, dtype=out_error.dtype)
    span_y = (spec.out_ny - 1) * spec.sy + 1
    span_x = (spec.out_nx - 1) * spec.sx + 1
    for ky in range(spec.fy):
        for kx in range(spec.fx):
            contrib = np.einsum(
                "fyx,fc->cyx", out_error, weights[:, :, ky, kx], optimize=True
            )
            target = in_error[:, ky : ky + span_y : spec.sy, kx : kx + span_x : spec.sx]
            target += contrib
    return in_error


# ----------------------------------------------------------------------
# Backward propagation to the weights (Eq. 4)
# ----------------------------------------------------------------------


def backward_weights_loops(
    spec: ConvSpec, out_error: np.ndarray, inputs: np.ndarray
) -> np.ndarray:
    """Direct loop transcription of Eq. 4.  For tiny shapes only."""
    _check_output(spec, out_error)
    _check_input(spec, inputs)
    dw = np.zeros(spec.weight_shape, dtype=out_error.dtype)
    for f in range(spec.nf):
        for c in range(spec.nc):
            for ky in range(spec.fy):
                for kx in range(spec.fx):
                    acc = 0.0
                    for y in range(spec.out_ny):
                        for x in range(spec.out_nx):
                            acc += (
                                out_error[f, y, x]
                                * inputs[c, y * spec.sy + ky, x * spec.sx + kx]
                            )
                    dw[f, c, ky, kx] = acc
    return dw


def backward_weights(spec: ConvSpec, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Vectorized Eq. 4 via the same sliding-window view as :func:`forward`."""
    _check_output(spec, out_error)
    _check_input(spec, inputs)
    patches = _patch_view(spec, inputs)
    return np.einsum("fyx,cyxab->fcab", out_error, patches, optimize=True).astype(
        out_error.dtype, copy=False
    )


# ----------------------------------------------------------------------
# Batches ([B, C, Y, X]), as the engines call them
# ----------------------------------------------------------------------


def batch_forward(spec: ConvSpec, inputs: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """:func:`forward` of every image of a batch."""
    out = np.empty((len(inputs),) + spec.output_shape, dtype=inputs.dtype)
    for b, img in enumerate(inputs):
        out[b] = forward(spec, img, weights)
    return out


def batch_backward_data(spec: ConvSpec, out_error: np.ndarray,
                        weights: np.ndarray) -> np.ndarray:
    """:func:`backward_data` of every image of a batch."""
    in_error = np.empty((len(out_error),) + spec.input_shape,
                        dtype=out_error.dtype)
    for b, err in enumerate(out_error):
        in_error[b] = backward_data(spec, err, weights)
    return in_error


def batch_backward_weights(spec: ConvSpec, out_error: np.ndarray,
                           inputs: np.ndarray) -> np.ndarray:
    """:func:`backward_weights` summed over a batch."""
    dw = np.zeros(spec.weight_shape, dtype=out_error.dtype)
    for err, img in zip(out_error, inputs):
        dw += backward_weights(spec, err, img)
    return dw


def unpool(out: np.ndarray, argmax: np.ndarray, error: np.ndarray,
           kernel: int, stride: int, conv_shape: tuple[int, ...]) -> np.ndarray:
    """The ReLU + max-pool backward of a fused forward, as its C exports
    must compute it: the pooled ``error`` masked where the pooled ``out``
    is not positive and added, in row-major window order, at each
    window's flat ``argmax`` (one byte per window in the C units) of the
    ``[B, F, Oy, Ox]`` conv-shaped error."""
    wy, wx = np.divmod(argmax, kernel)
    b, f, p, q = np.indices(argmax.shape)
    routed = np.zeros(conv_shape, dtype=error.dtype)
    np.add.at(routed, (b, f, p * stride + wy, q * stride + wx),
              np.where(out > 0, error, 0))
    return routed
