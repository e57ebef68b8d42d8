"""Unfold+GEMM convolution engines (paper Secs. 2.3 and 4.1).

Forward propagation lowers each image to the K-major matrix ``U^T``
(Fig. 2b, see :mod:`repro.ops.unfold`) and computes ``O = W_mat . U^T``
(Fig. 2c).  Backward-weights computes ``dW_mat = EO_mat . (U^T)^T``.
Where :func:`repro.core.convspec.implicit_gemm` holds -- a stride-1
spec with a deep kernel row and a large plane -- ``U^T`` is never
materialised: the image is gathered into its ``[Nc, Fx, Ny, out_Nx]``
column buffer only, and each product is the sum over kernel rows ``ky``
of a product with ``C_ky``, the buffer's ``[Nc*Fx, out_Ny*out_Nx]``
view at row offset ``ky`` (``O = sum_ky W_ky . C_ky``, ``W_ky`` the
weights of kernel row ``ky``; dW one row block ``EO_mat . C_ky^T`` per
``ky``).  Below, "unfold" means whichever of the two the rule picks.
Backward-data has two forms, chosen from the convolution's sizes alone
(:func:`repro.core.convspec.backward_data_correlation`):

* **as a forward correlation** -- stride-1 convolutions whose layer
  discards a pad border of ``crop`` pixels and whose error has at most
  twice the input's channels (``Nf <= 2*Nc``: copying the error's unfold
  then moves no more memory than storing and folding the adjoint's GEMM
  result).  The error is copied into a
  plane zero-bordered by ``F - 1 - crop``, unfolded with the same
  K-major gather FP uses, and multiplied by the rotated weights
  ``W_rot[c, (f, ky, kx)] = W[f, c, Fy-1-ky, Fx-1-kx]``: one GEMM per
  image that writes the interior the layer keeps straight into the
  result.  No ``fold``, no padded result, no crop view.
* **as the adjoint of FP** -- everything else:
  ``U_err^T = W_mat^T . EO_mat`` folded back onto the input, the border
  cropped afterwards.

A layer's backward is one :meth:`ConvEngine.backward` call, and where
the correlation form applies each image's error is unfolded *once* and
serves both outputs: BP-data is ``W_rot . U_err`` and dW is
``dW_rot += U_err . X^T``, ``X`` the image's un-padded interior (the
pad border the layer promises is zero adds nothing), rotated back into
``dW`` once per batch.  No input is unfolded a second time for dW.
Elsewhere dW unfolds the input as FP does.

Every product is one BLAS call per image, or one per kernel row on the
implicit form: no operand is copied into another orientation per image
and no product is re-blocked in Python (OpenBLAS blocks for the cache
itself; :mod:`repro.blas.gemm` keeps the Goto loop structure as the
paper-book exhibit, the engines do not route through it).

Two engines share this math and name the paper's two schedules, which
only the machine model (:mod:`repro.machine.gemm_model`) tells apart:
:class:`ParallelGemmEngine`, the baseline that partitions each GEMM's
rows across cores, and :class:`GemmInParallelEngine`, Sec. 4.1's
technique that gives each core whole images.  On the host both issue
the same single-threaded ``np.matmul`` per product; what runs images on
several cores is the worker pool (:mod:`repro.runtime.pool`).

An image's result depends on that image alone -- never on its position
in the batch or on its neighbours -- which is what lets the thread and
process backends slice a batch anywhere and stay bit-identical to the
serial run.

Memory behavior: each engine owns a :class:`repro.ops.workspace.Workspace`
and reuses one stride-1 column buffer (and, where the spec is not
lowered to views, one unfolded matrix) per operand shape across images
and calls -- FP and dW share the input's;
the zero-bordered error plane is zeroed once and only its interior
rewritten; products are written straight into the pre-allocated batch
result (no ``np.stack``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.convspec import (
    ConvSpec,
    backward_data_correlation,
    implicit_gemm,
)
from repro.ops import unfold as uf
from repro.ops.engine import ConvEngine, register_engine
from repro.ops.workspace import Workspace


class _UnfoldGemmBase(ConvEngine):
    """Shared unfold + GEMM (+ fold) math of both schedules."""

    def __init__(self, spec: ConvSpec):
        super().__init__(spec)
        #: Reusable scratch buffers (unfolded matrix, GEMM panels).
        self.workspace = Workspace()

    def release_workspace(self) -> None:
        """Drop the reusable scratch buffers."""
        self.workspace.release()

    def _operands(self, spec: ConvSpec,
                  images: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Each image's right-hand GEMM operands, in this engine's
        buffers (one per shape, shared across calls and phases where
        shapes agree): the ``Fy`` :func:`repro.ops.unfold.kernel_row_views`
        of its column buffer where
        :func:`repro.core.convspec.implicit_gemm` holds, else ``(U^T,)``
        from :func:`repro.ops.unfold.unfold_each`.  Either pairs with
        :func:`repro.ops.unfold.weight_blocks`."""
        dtype = images.dtype
        columns = None
        if (spec.sy, spec.sx) == (1, 1):
            shape = uf.column_shape(spec)
            columns = self.workspace.scratch(f"columns{shape}", shape, dtype)
        if implicit_gemm(spec):
            views = uf.kernel_row_views(spec, columns)
            return (views for _ in uf.gather_columns(spec, images, columns))
        shape = spec.gemm_dims[1:]
        unfolded = self.workspace.scratch(f"unfold{shape}", shape, dtype)
        return ((u,) for u in uf.unfold_each(spec, images, unfolded, columns))

    def _product_sum(self, lefts: np.ndarray, rights: tuple[np.ndarray, ...],
                     out: np.ndarray) -> None:
        """``out = sum_i lefts[i] . rights[i]``, blocks added in order."""
        np.matmul(lefts[0], rights[0], out=out)
        if len(rights) > 1:
            panel = self.workspace.scratch(f"panel{out.shape}", out.shape,
                                           out.dtype)
            for left, right in zip(lefts[1:], rights[1:]):
                np.matmul(left, right, out=panel)
                out += panel

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        w_blocks = uf.weight_blocks(self.spec, weights)
        dtype = np.result_type(inputs, weights)
        out = np.empty((inputs.shape[0],) + self.spec.output_shape, dtype=dtype)
        nf, _, p = self.spec.gemm_dims
        out_mats = out.reshape(inputs.shape[0], nf, p)
        for blocks, out_mat in zip(self._operands(self.spec, inputs),
                                   out_mats):
            self._product_sum(w_blocks, blocks, out_mat)
        return out

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_weights(weights)
        corr = backward_data_correlation(self.spec, crop)
        if corr is None:
            return self._cropped(self._fold_backward_data(out_error, weights),
                                 crop)
        return self._correlation_backward(corr, out_error, None, weights,
                                          crop)[1]

    def backward(self, out_error: np.ndarray, inputs: np.ndarray,
                 weights: np.ndarray, crop: int = 0,
                 need_input_error: bool = True
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        corr = backward_data_correlation(self.spec, crop)
        if not need_input_error or corr is None:
            return super().backward(out_error, inputs, weights, crop,
                                    need_input_error)
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        return self._correlation_backward(corr, out_error, inputs, weights,
                                          crop)

    def _correlation_backward(self, corr: ConvSpec, out_error: np.ndarray,
                              inputs: np.ndarray | None,
                              weights: np.ndarray, crop: int
                              ) -> tuple[np.ndarray | None, np.ndarray]:
        """BP-data as the forward correlation ``corr``
        (:func:`repro.core.convspec.correlation_problem`) and, given the
        ``inputs`` (zero in their outermost ``crop`` pixels), dW from the
        same lowered error: ``(dW or None, cropped input error)``."""
        spec = self.spec
        batch = out_error.shape[0]
        nc, _, p = corr.gemm_dims
        # W_rot[c, f, ky, kx] = W[f, c, Fy-1-ky, Fx-1-kx]: corr's weights.
        w_blocks = uf.weight_blocks(
            corr, weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        in_error = np.empty((batch,) + corr.output_shape,
                            dtype=np.result_type(out_error, weights))
        bordered = self.workspace.zeroed_once(
            "bd/bordered_err", corr.input_shape, out_error.dtype)
        by, bx = spec.fy - 1 - crop, spec.fx - 1 - crop
        interior = bordered[:, by:by + spec.out_ny, bx:bx + spec.out_nx]
        # Every step lowers the one bordered plane as it then stands.
        planes = np.broadcast_to(bordered, (batch,) + bordered.shape)
        operands = self._operands(corr, planes)
        if inputs is None:
            for err, in_mat in zip(out_error, in_error.reshape(batch, nc, p)):
                np.copyto(interior, err)
                self._product_sum(w_blocks, next(operands), in_mat)
            return None, in_error
        # dW_rot[(f, ky, kx), c] = sum over kept positions of
        # U_err[(f, ky, kx), pos] * X[c, pos] = dW[f, c, Fy-1-ky, Fx-1-kx],
        # one row block of it per operand block.
        dtype = np.result_type(out_error, inputs)
        nb, _, kb = w_blocks.shape
        dw_rot = np.zeros((nb, kb, nc), dtype=dtype)
        panel = self.workspace.scratch("bw/dw_rot", (kb, nc), dtype)
        kept = self.workspace.scratch("bw/kept_input", (nc, p), inputs.dtype)
        _, ny, nx = corr.output_shape
        kept_planes = kept.reshape(nc, ny, nx)
        for err, image, in_mat in zip(out_error, inputs,
                                      in_error.reshape(batch, nc, p)):
            np.copyto(interior, err)
            blocks = next(operands)
            self._product_sum(w_blocks, blocks, in_mat)
            np.copyto(kept_planes, image[:, crop:crop + ny, crop:crop + nx])
            for dw_block, block in zip(dw_rot, blocks):
                np.matmul(block, kept.T, out=panel)
                dw_block += panel
        d_weights = np.ascontiguousarray(uf.weights_from_blocks(
            corr, dw_rot.transpose(0, 2, 1))[:, :, ::-1, ::-1]
            .transpose(1, 0, 2, 3))
        return d_weights, in_error

    def _fold_backward_data(self, out_error: np.ndarray,
                            weights: np.ndarray) -> np.ndarray:
        """The adjoint form: full input error, one GEMM + fold per image."""
        w_mat_t = uf.weights_matrix(self.spec, weights).T
        dtype = np.result_type(out_error, weights)
        out = np.empty((out_error.shape[0],) + self.spec.input_shape, dtype=dtype)
        unfolded_err = self.workspace.scratch(
            "bd/unfolded_err", self.spec.gemm_dims[1:], dtype
        )
        for err, in_error in zip(out_error, out):
            err_mat = uf.output_image_to_matrix(self.spec, err)
            np.matmul(w_mat_t, err_mat, out=unfolded_err)
            uf.fold(self.spec, unfolded_err, out=in_error)
        return out

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        nf, k, _ = self.spec.gemm_dims
        nb = self.spec.fy if implicit_gemm(self.spec) else 1
        dw_blocks = np.zeros((nb, nf, k // nb), dtype=out_error.dtype)
        panel = self.workspace.scratch(
            "bw/dw_mat", dw_blocks.shape[1:],
            np.result_type(out_error, inputs))
        for err, blocks in zip(out_error,
                               self._operands(self.spec, inputs)):
            err_mat = uf.output_image_to_matrix(self.spec, err)
            for dw_block, block in zip(dw_blocks, blocks):
                np.matmul(err_mat, block.T, out=panel)
                dw_block += panel
        return uf.copy_kernel_rows(
            uf.weights_from_blocks(self.spec, dw_blocks))


@register_engine("parallel-gemm")
class ParallelGemmEngine(_UnfoldGemmBase):
    """Baseline Unfold+Parallel-GEMM (Sec. 3.2): each image's GEMM rows
    split across cores, every core streaming the whole unfolded matrix.
    The split is the machine model's to price; this engine runs the
    shared math."""


@register_engine("gemm-in-parallel")
class GemmInParallelEngine(_UnfoldGemmBase):
    """GEMM-in-Parallel (Sec. 4.1): whole images assigned to cores, each
    running single-threaded GEMMs.  The worker pool is what assigns
    images to cores; this engine runs the shared math."""
