"""FFT-based convolution engine (paper Sec. 6, "other techniques").

The paper cites FFT-based training (Mathieu, Henaff, LeCun) as a
complementary execution strategy; this engine implements it so the
autotuner's candidate set can be extended and so the ablation benchmarks
can locate where the frequency domain wins (large kernels on large
images) and loses (strided or small convolutions).

The convolution of Eq. 2 is a *correlation*, so the kernel is conjugated
in the frequency domain: ``O_f = sum_c FFT(I_c) * conj(FFT(W_fc))``
evaluated on a common padded grid, with the valid-mode window extracted
afterwards.  Strided convolutions are computed at unit stride and
subsampled (the frequency domain cannot skip positions), which is why
stride makes FFT unattractive -- the cost model reflects that.
"""

from __future__ import annotations

import numpy as np

from repro.core.convspec import ConvSpec
from repro.ops.engine import ConvEngine, register_engine


def _fft_shape(spec: ConvSpec) -> tuple[int, int]:
    # Linear (non-circular) correlation and convolution need
    # ``N + F - 1`` points per axis; powers of two keep the transforms
    # fast and mirror what FFT conv implementations do.
    fy = 1 << (spec.padded_ny + spec.fy - 2).bit_length()
    fx = 1 << (spec.padded_nx + spec.fx - 2).bit_length()
    return fy, fx


def fft_conv_flops(spec: ConvSpec) -> float:
    """Approximate flop count of the FFT execution path.

    ``Nc`` forward transforms of the input grids plus ``Nf`` inverse
    transforms of the accumulated products (the pointwise multiply
    accumulates *in the frequency domain*, so no per-(f, c) transform is
    needed) at ``5 N log2 N`` each, plus the ``Nc*Nf`` pointwise complex
    multiply-accumulates at 8 flops/point.  Weight transforms amortize
    over a training batch and are excluded, matching how FFT conv
    implementations cache them.
    """
    gy, gx = _fft_shape(spec)
    points = gy * gx
    log_term = np.log2(points)
    transforms = spec.nc + spec.nf
    fft_cost = transforms * 5.0 * points * log_term
    pointwise = spec.nc * spec.nf * 8.0 * points
    return fft_cost + pointwise


@register_engine("fft")
class FFTConvEngine(ConvEngine):
    """Frequency-domain convolution over a batch.

    Forward-only deployment is intended (like the stencil engine, the
    backward computations delegate to the spatial adjoints expressed
    through the same frequency-domain machinery).
    """

    def __init__(self, spec: ConvSpec, num_cores: int = 1):
        super().__init__(spec)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.grid = _fft_shape(spec)

    # -- helpers ---------------------------------------------------------

    def _weight_freq(self, weights: np.ndarray) -> np.ndarray:
        """conj(FFT) of the weights on the padded grid, ``[F, C, gy, gx]``."""
        gy, gx = self.grid
        return np.conj(np.fft.rfft2(weights, s=(gy, gx)))

    def forward(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._check_batch_inputs(inputs)
        self._check_weights(weights)
        gy, gx = self.grid
        w_freq = self._weight_freq(weights)
        out = np.empty((inputs.shape[0],) + self.spec.output_shape,
                       dtype=inputs.dtype)
        span_y = (self.spec.out_ny - 1) * self.spec.sy + 1
        span_x = (self.spec.out_nx - 1) * self.spec.sx + 1
        for b, image in enumerate(inputs):
            i_freq = np.fft.rfft2(image, s=(gy, gx))  # [C, gy, gx//2+1]
            prod = np.einsum("cyx,fcyx->fyx", i_freq, w_freq, optimize=True)
            full = np.fft.irfft2(prod, s=(gy, gx))
            valid = full[:, :span_y : self.spec.sy, :span_x : self.spec.sx]
            out[b] = valid.astype(inputs.dtype, copy=False)
        return out

    def backward_data(self, out_error: np.ndarray, weights: np.ndarray,
                      crop: int = 0) -> np.ndarray:
        """Adjoint of forward: full correlation with the *unconjugated* kernel.

        Upsample the strided error back onto the unit grid, then convolve
        (true convolution, which the frequency domain gives with the
        non-conjugated weight transform) and crop to the input extent.
        """
        self._check_batch_out_error(out_error)
        self._check_weights(weights)
        spec = self.spec
        gy, gx = self.grid
        w_freq = np.fft.rfft2(weights, s=(gy, gx))  # no conjugate: convolution
        in_err = np.empty((out_error.shape[0],) + spec.input_shape,
                          dtype=out_error.dtype)
        span_y = (spec.out_ny - 1) * spec.sy + 1
        span_x = (spec.out_nx - 1) * spec.sx + 1
        for b, err in enumerate(out_error):
            dense = np.zeros((spec.nf, spec.padded_ny, spec.padded_nx),
                             dtype=err.dtype)
            dense[:, :span_y : spec.sy, :span_x : spec.sx] = err
            e_freq = np.fft.rfft2(dense, s=(gy, gx))
            prod = np.einsum("fyx,fcyx->cyx", e_freq, w_freq, optimize=True)
            full = np.fft.irfft2(prod, s=(gy, gx))
            in_err[b] = full[:, : spec.padded_ny, : spec.padded_nx].astype(
                err.dtype, copy=False
            )
        return self._cropped(in_err, crop)

    def backward_weights(self, out_error: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Eq. 4 via frequency-domain correlation of inputs with errors."""
        self._check_batch_out_error(out_error)
        self._check_batch_inputs(inputs)
        spec = self.spec
        gy, gx = self.grid
        dw = np.zeros(spec.weight_shape, dtype=out_error.dtype)
        span_y = (spec.out_ny - 1) * spec.sy + 1
        span_x = (spec.out_nx - 1) * spec.sx + 1
        for err, image in zip(out_error, inputs):
            dense = np.zeros((spec.nf, spec.padded_ny, spec.padded_nx),
                             dtype=err.dtype)
            dense[:, :span_y : spec.sy, :span_x : spec.sx] = err
            i_freq = np.fft.rfft2(image, s=(gy, gx))
            e_freq = np.conj(np.fft.rfft2(dense, s=(gy, gx)))
            prod = np.einsum("fyx,cyx->fcyx", e_freq, i_freq, optimize=True)
            full = np.fft.irfft2(prod, s=(gy, gx))
            # Correlation of I with EO evaluated at kernel offsets; the
            # conjugate flips the lag sign, so read the first Fy x Fx lags.
            dw += full[:, :, : spec.fy, : spec.fx].astype(dw.dtype, copy=False)
        return dw
