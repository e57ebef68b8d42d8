"""Unfold+GEMM convolution engines (paper Secs. 2.3 and 4.1).

Forward propagation unfolds each image to the K-major matrix ``U^T``
(Fig. 2b, see :mod:`repro.ops.unfold`) and computes ``O = W_mat . U^T``
(Fig. 2c).  Backward-weights computes ``dW_mat = EO_mat . (U^T)^T``.
Backward-data has two forms, chosen by the convolution's geometry alone
(:func:`repro.core.convspec.backward_data_correlation`):

* **as a forward correlation** -- stride-1 convolutions whose layer
  discards a pad border of ``crop`` pixels (every padded layer of the
  zoo).  The error is copied into a plane zero-bordered by
  ``F - 1 - crop``, unfolded with the same K-major gather FP uses, and
  multiplied by the rotated weights
  ``W_rot[c, (f, ky, kx)] = W[f, c, Fy-1-ky, Fx-1-kx]``: one GEMM per
  image that writes the interior the layer keeps straight into the
  result.  Same GEMM flops as the adjoint form, and no ``fold``, no
  padded result, no crop view.
* **as the adjoint of FP** -- strided or unpadded geometries, where the
  correlation would need a dilated error or a larger GEMM:
  ``U_err^T = W_mat^T . EO_mat`` folded back onto the input, the border
  cropped afterwards.

Each of the three computations is one BLAS call per image: no operand is
copied into another orientation per image and no product is re-blocked
in Python (OpenBLAS blocks for the cache itself; :mod:`repro.blas.gemm`
keeps the Goto loop structure as the paper-book exhibit, the engines do
not route through it).

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
and reuses one unfolded matrix across images, calls and -- when the
shapes agree, as they do for a same-padded layer with ``Nc == Nf`` --
across FP/dW and BP-data; the zero-bordered error plane is zeroed once
and only its interior rewritten; products are written straight into the
pre-allocated batch result (no ``np.stack``).
"""

from __future__ import annotations

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

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        w_mat = uf.weights_matrix(self.spec, weights)
        dtype = np.result_type(inputs, weights)
        out = np.empty((inputs.shape[0],) + self.spec.output_shape, dtype=dtype)
        nf, k, p = self.spec.gemm_dims
        out_mats = out.reshape(inputs.shape[0], nf, p)
        unfolded = self.workspace.scratch("unfold", (k, p), inputs.dtype)
        for image, out_mat in zip(inputs, out_mats):
            uf.unfold(self.spec, image, out=unfolded)
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
        spec = self.spec
        batch = out_error.shape[0]
        nc, k, p = corr.gemm_dims
        # W_rot[c, (f, ky, kx)] = W[f, c, Fy-1-ky, Fx-1-kx]
        w_rot = np.ascontiguousarray(
            weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(nc, k)
        out = np.empty((batch,) + corr.output_shape,
                       dtype=np.result_type(out_error, weights))
        bordered = self.workspace.zeroed_once(
            "bd/bordered_err", corr.input_shape, out_error.dtype)
        by, bx = spec.fy - 1 - crop, spec.fx - 1 - crop
        interior = bordered[:, by:by + spec.out_ny, bx:bx + spec.out_nx]
        # FP/dW's U^T when the shapes agree, so the two never hold one each.
        tag = "unfold" if (k, p) == spec.gemm_dims[1:] else "bd/unfold"
        unfolded = self.workspace.scratch(tag, (k, p), out_error.dtype)
        for err, out_mat in zip(out_error, out.reshape(batch, nc, p)):
            np.copyto(interior, err)
            uf.unfold(corr, bordered, out=unfolded)
            self._matmul(w_rot, unfolded, out_mat)
        return out

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
        unfolded = self.workspace.scratch(
            "unfold", self.spec.gemm_dims[1:], inputs.dtype
        )
        panel = self.workspace.scratch(
            "bw/dw_mat", dw_mat.shape, np.result_type(out_error, inputs)
        )
        for err, image in zip(out_error, inputs):
            uf.unfold(self.spec, image, out=unfolded)
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
