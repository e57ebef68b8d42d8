"""Unfold+GEMM convolution engines (paper Secs. 2.3 and 4.1).

Forward propagation unfolds each image to the K-major matrix ``U^T``
(Fig. 2b, see :mod:`repro.ops.unfold`) and computes ``O = W_mat . U^T``
(Fig. 2c).  Backward-weights computes ``dW_mat = EO_mat . (U^T)^T``.
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

Every product is one BLAS call per image (a row slice of it per core
under :class:`ParallelGemmEngine`): no operand is copied into another
orientation per image and no product is re-blocked in Python (OpenBLAS
blocks for the cache itself; :mod:`repro.blas.gemm` keeps the Goto loop
structure as the paper-book exhibit, the engines do not route through
it).

Two engines share this math and differ only in scheduling, which is what
the machine model prices:

* :class:`ParallelGemmEngine` -- the baseline: images processed one after
  another, each GEMM partitioned across all cores (row-partitioned, every
  core streaming the full unfolded matrix).
* :class:`GemmInParallelEngine` -- the paper's Sec. 4.1 technique: the
  batch is partitioned across cores and each core runs single-threaded
  GEMMs on whole images, preserving per-core AIT.

An image's result depends on that image alone -- never on its position
in the batch or on its neighbours -- which is what lets the thread and
process backends slice a batch anywhere and stay bit-identical to the
serial run.

Memory behavior: each engine owns a :class:`repro.ops.workspace.Workspace`
and reuses one unfolded matrix (and one stride-1 column buffer) per
operand shape across images and calls -- FP and dW share the input's;
the zero-bordered error plane is zeroed once and only its interior
rewritten; products are written straight into the pre-allocated batch
result (no ``np.stack``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.blas.gemm import partition_rows
from repro.core.convspec import ConvSpec, backward_data_correlation
from repro.ops import unfold as uf
from repro.ops.engine import ConvEngine, register_engine
from repro.ops.workspace import Workspace


class _UnfoldGemmBase(ConvEngine):
    """Shared unfold + GEMM (+ fold) math of both schedules."""

    def __init__(self, spec: ConvSpec, num_cores: int = 1):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        #: Reusable scratch buffers (unfolded matrix, GEMM panels).
        self.workspace = Workspace()

    def release_workspace(self) -> None:
        """Drop the reusable scratch buffers."""
        self.workspace.release()

    # Subclasses choose how a single product is executed; ``out`` is
    # fully overwritten.
    def _matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        raise NotImplementedError

    def _unfolded(self, spec: ConvSpec,
                  images: np.ndarray) -> Iterator[np.ndarray]:
        """:func:`repro.ops.unfold.unfold_each` into this engine's
        buffers, one per shape: FP, dW and BP-data share them where
        their shapes agree (a same-padded layer with ``Nc == Nf``)."""
        dtype = images.dtype
        shape = spec.gemm_dims[1:]
        unfolded = self.workspace.scratch(f"unfold{shape}", shape, dtype)
        columns = None
        if (spec.sy, spec.sx) == (1, 1):
            shape = uf.column_shape(spec)
            columns = self.workspace.scratch(f"columns{shape}", shape, dtype)
        return uf.unfold_each(spec, images, unfolded, columns)

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        w_mat = uf.weights_matrix(self.spec, weights)
        dtype = np.result_type(inputs, weights)
        out = np.empty((inputs.shape[0],) + self.spec.output_shape, dtype=dtype)
        nf, _, p = self.spec.gemm_dims
        out_mats = out.reshape(inputs.shape[0], nf, p)
        for unfolded, out_mat in zip(
                self._unfolded(self.spec, inputs), out_mats):
            self._matmul(w_mat, unfolded, out_mat)
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
        same unfolded error: ``(dW or None, cropped input error)``."""
        spec = self.spec
        batch = out_error.shape[0]
        nc, k, p = corr.gemm_dims
        # W_rot[c, (f, ky, kx)] = W[f, c, Fy-1-ky, Fx-1-kx]
        w_rot = np.ascontiguousarray(
            weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(nc, k)
        in_error = np.empty((batch,) + corr.output_shape,
                            dtype=np.result_type(out_error, weights))
        bordered = self.workspace.zeroed_once(
            "bd/bordered_err", corr.input_shape, out_error.dtype)
        by, bx = spec.fy - 1 - crop, spec.fx - 1 - crop
        interior = bordered[:, by:by + spec.out_ny, bx:bx + spec.out_nx]
        # Every step unfolds the one bordered plane as it then stands.
        planes = np.broadcast_to(bordered, (batch,) + bordered.shape)
        unfolds = self._unfolded(corr, planes)
        if inputs is None:
            for err, in_mat in zip(out_error, in_error.reshape(batch, nc, p)):
                np.copyto(interior, err)
                self._matmul(w_rot, next(unfolds), in_mat)
            return None, in_error
        # dW_rot[(f, ky, kx), c] = sum over kept positions of
        # U_err[(f, ky, kx), pos] * X[c, pos] = dW[f, c, Fy-1-ky, Fx-1-kx].
        dtype = np.result_type(out_error, inputs)
        dw_rot = np.zeros((k, nc), dtype=dtype)
        panel = self.workspace.scratch("bw/dw_rot", (k, nc), dtype)
        kept = self.workspace.scratch("bw/kept_input", (nc, p), inputs.dtype)
        _, ny, nx = corr.output_shape
        kept_planes = kept.reshape(nc, ny, nx)
        for err, image, in_mat in zip(out_error, inputs,
                                      in_error.reshape(batch, nc, p)):
            np.copyto(interior, err)
            unfolded = next(unfolds)
            self._matmul(w_rot, unfolded, in_mat)
            np.copyto(kept_planes, image[:, crop:crop + ny, crop:crop + nx])
            self._matmul(unfolded, kept.T, panel)
            dw_rot += panel
        d_weights = np.ascontiguousarray(
            dw_rot.reshape(spec.nf, spec.fy, spec.fx, nc)[:, ::-1, ::-1]
            .transpose(0, 3, 1, 2))
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
            self._matmul(w_mat_t, err_mat, unfolded_err)
            uf.fold(self.spec, unfolded_err, out=in_error)
        return out

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        dw = np.zeros(self.spec.weight_shape, dtype=out_error.dtype)
        dw_mat = uf.weights_matrix(self.spec, dw)
        panel = self.workspace.scratch(
            "bw/dw_mat", dw_mat.shape, np.result_type(out_error, inputs)
        )
        for err, unfolded in zip(out_error,
                                 self._unfolded(self.spec, inputs)):
            err_mat = uf.output_image_to_matrix(self.spec, err)
            self._matmul(err_mat, unfolded.T, panel)
            dw_mat += panel
        return dw


@register_engine("parallel-gemm")
class ParallelGemmEngine(_UnfoldGemmBase):
    """Baseline Unfold+Parallel-GEMM: each image's GEMM spans all cores.

    Mirrors the paper's model of BLAS parallelization (Sec. 3.2): the
    rows of the product are divided among ``num_cores`` while every
    slice streams all of the right-hand operand.  Execution here is
    sequential over the slices, one BLAS call each; concurrency is
    accounted for by the machine model.
    """

    def _matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        for lo, hi in partition_rows(a.shape[0], self.num_cores):
            if lo < hi:
                np.matmul(a[lo:hi], b, out=out[lo:hi])


@register_engine("gemm-in-parallel")
class GemmInParallelEngine(_UnfoldGemmBase):
    """GEMM-in-Parallel (Sec. 4.1): whole images assigned to cores.

    Functionally each image's GEMM runs single-threaded; the batch is
    partitioned across cores.  :meth:`core_assignment` exposes the
    image->core mapping so the simulated executor can compute the makespan.
    """

    def _matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        np.matmul(a, b, out=out)

    def core_assignment(self, batch_size: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` image ranges per core."""
        return partition_rows(batch_size, self.num_cores)
