"""Tests for the layer implementations, including gradient checks."""

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError
from repro.nn.layers.activations import FlattenLayer, ReLULayer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.pool import MaxPoolLayer
from repro.ops import reference


def numeric_param_grad(layer, param, inputs, err, eps=1e-3):
    """Central-difference gradient of <forward(x), err> w.r.t. ``param``."""
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = param[idx]
        param[idx] = original + eps
        plus = float(np.vdot(layer.forward(inputs), err))
        param[idx] = original - eps
        minus = float(np.vdot(layer.forward(inputs), err))
        param[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestConvLayer:
    def make(self, pad=0, stride=1, engine="gemm-in-parallel"):
        spec = ConvSpec(nc=2, ny=6, nx=6, nf=3, fy=3, fx=3, pad=pad,
                        sy=stride, sx=stride, name="c")
        return ConvLayer(spec, fp_engine=engine, bp_engine=engine,
                         rng=np.random.default_rng(5))

    def test_forward_shape(self, rng):
        layer = self.make()
        out = layer.forward(rng.standard_normal((4, 2, 6, 6)).astype(np.float32))
        assert out.shape == (4, 3, 4, 4)

    def test_padding_preserves_spatial_size(self, rng):
        layer = self.make(pad=1)
        out = layer.forward(rng.standard_normal((2, 2, 6, 6)).astype(np.float32))
        assert out.shape == (2, 3, 6, 6)

    def test_bias_is_added(self, rng):
        layer = self.make()
        layer.bias[:] = [1.0, 2.0, 3.0]
        zero_in = np.zeros((1, 2, 6, 6), dtype=np.float32)
        out = layer.forward(zero_in)
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 2], 3.0)

    def test_weight_gradient_numerically(self, rng):
        layer = self.make()
        inputs = rng.standard_normal((2, 2, 6, 6)).astype(np.float64)
        layer.weights = layer.weights.astype(np.float64)
        layer.bias = layer.bias.astype(np.float64)
        layer.d_weights = np.zeros_like(layer.weights)
        layer.d_bias = np.zeros_like(layer.bias)
        err = rng.standard_normal((2, 3, 4, 4)).astype(np.float64)
        layer.forward(inputs)
        layer.backward(err)
        numeric = numeric_param_grad(layer, layer.weights, inputs, err)
        np.testing.assert_allclose(layer.d_weights, numeric, atol=5e-3, rtol=1e-2)

    def test_bias_gradient(self, rng):
        layer = self.make()
        inputs = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        err = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        layer.forward(inputs)
        layer.backward(err)
        np.testing.assert_allclose(
            layer.d_bias, err.sum(axis=(0, 2, 3)), atol=1e-3
        )

    def test_backward_with_padding_strips_pad(self, rng):
        layer = self.make(pad=1)
        inputs = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        layer.forward(inputs)
        in_err = layer.backward(
            rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        )
        assert in_err.shape == inputs.shape

    def test_engine_swap_preserves_results(self, rng):
        layer = self.make()
        inputs = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        out_gip = layer.forward(inputs)
        layer.set_fp_engine("stencil")
        assert layer.fp_engine_name == "stencil"
        np.testing.assert_allclose(layer.forward(inputs), out_gip, atol=1e-3)

    def test_bp_engine_swap_preserves_gradients(self, rng):
        layer = self.make()
        inputs = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        err = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        layer.forward(inputs)
        in_err1 = layer.backward(err)
        dw1 = layer.d_weights.copy()
        layer.zero_grads()
        layer.set_bp_engine("sparse")
        layer.forward(inputs)
        in_err2 = layer.backward(err)
        np.testing.assert_allclose(in_err2, in_err1, atol=1e-3)
        np.testing.assert_allclose(layer.d_weights, dw1, atol=1e-3)

    def test_records_error_sparsity(self, rng):
        layer = self.make()
        inputs = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        err = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        err[err < 0.8] = 0.0
        layer.forward(inputs)
        layer.backward(err)
        expected = 1 - np.count_nonzero(err) / err.size
        assert layer.last_error_sparsity == pytest.approx(expected)

    def test_backward_before_forward_raises(self, rng):
        layer = self.make()
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((1, 3, 4, 4), np.float32))

    def test_rejects_wrong_input_shape(self, rng):
        layer = self.make()
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2, 5, 6), np.float32))

    def test_eval_forward_keeps_training_cache(self, rng):
        # The training forward pads into a buffer the layer keeps; an
        # evaluation pass in between must not write it.
        x1 = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        x2 = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        err = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        want = self.make(pad=1)
        want.forward(x1)
        want_in_err = want.backward(err)
        layer = self.make(pad=1)
        layer.forward(x1, training=True)
        layer.forward(x2, training=False)
        np.testing.assert_array_equal(layer.backward(err), want_in_err)
        np.testing.assert_array_equal(layer.d_weights, want.d_weights)

    def test_training_forward_reuses_one_padded_buffer(self, rng):
        layer = self.make(pad=1)
        x1 = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        x2 = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        layer.forward(x1)
        first = layer._cached_padded_input
        out = layer.forward(x2)
        assert layer._cached_padded_input is first
        np.testing.assert_array_equal(first, np.pad(
            x2, ((0, 0), (0, 0), (1, 1), (1, 1))))
        np.testing.assert_array_equal(out, layer.forward(x2, training=False))
        # A new batch size gets a new buffer, zero border included.
        layer.forward(x1[:1])
        assert layer._cached_padded_input.shape == (1, 2, 8, 8)
        assert not layer._cached_padded_input[:, :, 0].any()

    @pytest.mark.parametrize("engine", ["gemm-in-parallel", "parallel-gemm",
                                        "stencil", "sparse", "reference"])
    @pytest.mark.parametrize("pad,stride", [(1, 1), (1, 2), (2, 1), (0, 1)])
    def test_backward_returns_unpadded_error(self, engine, pad, stride, rng):
        layer = self.make(pad=pad, stride=stride, engine=engine)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        out = layer.forward(x)
        err = rng.standard_normal(out.shape).astype(np.float32)
        in_err = layer.backward(err)
        assert layer.bp_engine_name == engine  # the guard accepted it
        assert in_err.shape == x.shape
        want = np.stack([
            reference.backward_data(layer.padded_spec, e, layer.weights)
            for e in err])
        if pad:
            want = want[:, :, pad:-pad, pad:-pad]
        np.testing.assert_allclose(in_err, want, rtol=1e-4, atol=1e-5)


POOL_CASES = [
    (2, 2, (3, 4, 8, 8)),
    (3, 2, (2, 3, 9, 11)),     # overlapping, non-square
    (3, 1, (2, 2, 7, 6)),      # every interior input in nine windows
    (2, 3, (2, 2, 8, 9)),      # gaps between windows
    (2, 2, (1, 2, 5, 7)),      # trailing row/column dropped
    (2, 2, (2, 3, 7, 9)),      # odd extents, both axes
    (3, 3, (2, 2, 7, 9)),      # odd extents, 3x3 tiles
    (1, 2, (2, 2, 7, 9)),      # kernel < stride: one-tap windows
    (2, 5, (1, 3, 7, 9)),      # kernel < stride, wide gaps
]


def pool_forward_oracle(x, kernel, stride):
    """Window copy + ``argmax``: the first maximum in row-major order."""
    b, c, y, xx = x.shape
    oy, ox = (y - kernel) // stride + 1, (xx - kernel) // stride + 1
    out = np.empty((b, c, oy, ox), x.dtype)
    argmax = np.empty((b, c, oy, ox), np.int64)
    for i in range(oy):
        for j in range(ox):
            window = x[:, :, i * stride : i * stride + kernel,
                       j * stride : j * stride + kernel].reshape(b, c, -1)
            argmax[:, :, i, j] = window.argmax(axis=-1)
            out[:, :, i, j] = window.max(axis=-1)
    return out, argmax


def pool_backward_oracle(err, argmax, input_shape, kernel, stride):
    """``np.add.at`` scatter of each window's error onto its winner."""
    in_error = np.zeros(input_shape, err.dtype)
    ky, kx = np.divmod(argmax, kernel)
    bi, ci, yi, xi = np.indices(err.shape)
    np.add.at(in_error, (bi, ci, yi * stride + ky, xi * stride + kx), err)
    return in_error


class TestMaxPool:
    def test_forward_takes_window_max(self):
        layer = MaxPoolLayer(kernel=2, stride=2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPoolLayer(kernel=2, stride=2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        layer.forward(x)
        err = np.ones((1, 1, 2, 2), dtype=np.float32)
        in_err = layer.backward(err)
        # Gradient lands only on each window's max position.
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(in_err[0, 0], expected)

    def test_backward_gradient_is_sparse(self, rng):
        # 2x2 pooling makes at least 75% of the input error zero.
        layer = MaxPoolLayer(kernel=2, stride=2)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        layer.forward(x)
        in_err = layer.backward(
            rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        )
        sparsity = 1 - np.count_nonzero(in_err) / in_err.size
        assert sparsity >= 0.75 - 1e-9

    def test_overlapping_stride(self, rng):
        layer = MaxPoolLayer(kernel=3, stride=2)
        x = rng.standard_normal((1, 1, 7, 7)).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (1, 1, 3, 3)

    @pytest.mark.parametrize("kernel,stride,shape", POOL_CASES)
    def test_matches_argmax_scatter_oracle(self, kernel, stride, shape, rng):
        # Coarse integer data plants ties in most windows; the float
        # trial has none.  Both must reproduce first-in-row-major.
        for x in (rng.integers(-2, 3, size=shape).astype(np.float32),
                  rng.standard_normal(shape).astype(np.float32)):
            layer = MaxPoolLayer(kernel, stride)
            out = layer.forward(x)
            want_out, want_argmax = pool_forward_oracle(x, kernel, stride)
            assert out.tobytes() == want_out.tobytes()
            # Where the winners are is judged by where the gradient
            # lands: distinct errors per window, so a tie broken the
            # wrong way moves a value the comparison sees.
            err = rng.standard_normal(out.shape).astype(np.float32)
            got = layer.backward(err)
            want = pool_backward_oracle(err, want_argmax, x.shape,
                                       kernel, stride)
            assert got.dtype == want.dtype
            # Bitwise: overlapping windows must accumulate in the
            # scatter's order, not merely to the same rounded sum, and
            # a losing tap holds +0.0 whatever the sign of the error.
            assert got.tobytes() == want.tobytes()

    def test_all_equal_window_routes_to_first_tap(self):
        layer = MaxPoolLayer(kernel=3, stride=2)
        layer.forward(np.zeros((1, 1, 5, 5), np.float32))
        in_err = layer.backward(np.ones((1, 1, 2, 2), np.float32))
        expected = np.zeros((5, 5), np.float32)
        expected[0, 0] = expected[0, 2] = expected[2, 0] = expected[2, 2] = 1
        np.testing.assert_array_equal(in_err[0, 0], expected)

    def test_overlapping_windows_sum_at_a_shared_winner(self):
        # One dominant input covered by all four 3x3/stride-2 windows.
        x = np.zeros((1, 1, 5, 5), np.float32)
        x[0, 0, 2, 2] = 9.0
        layer = MaxPoolLayer(kernel=3, stride=2)
        np.testing.assert_array_equal(layer.forward(x)[0, 0], [[9, 9], [9, 9]])
        err = np.array([[[[1, 2], [4, 8]]]], np.float32)
        in_err = layer.backward(err)
        assert in_err[0, 0, 2, 2] == 15.0
        assert np.count_nonzero(in_err) == 1

    def test_eval_forward_keeps_training_cache(self, rng):
        layer = MaxPoolLayer(2)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        err = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        layer.forward(x)
        want = layer.backward(err)
        layer.forward(-x, training=False)
        np.testing.assert_array_equal(layer.backward(err), want)

    def test_nan_in_a_window_reaches_the_output(self):
        # The non-finite guards sit downstream (the SGD loss check):
        # pooling must not launder a poisoned activation.
        x = np.zeros((1, 1, 2, 4), np.float32)
        x[0, 0, 1, 1] = np.nan
        out = MaxPoolLayer(2).forward(x)
        assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 0.0

    def test_output_shape_helper(self):
        assert MaxPoolLayer(2).output_shape((8, 10, 12)) == (8, 5, 6)

    def test_rejects_kernel_too_large(self):
        with pytest.raises(ShapeError):
            MaxPoolLayer(5).output_shape((1, 4, 4))

    def test_rejects_bad_kernel(self):
        with pytest.raises(ShapeError):
            MaxPoolLayer(0)


class TestReLU:
    def test_forward_clamps(self):
        layer = ReLULayer()
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(layer.forward(x), [[0, 0, 2]])

    def test_backward_masks(self):
        layer = ReLULayer()
        x = np.array([[-1.0, 0.5, 2.0]], dtype=np.float32)
        layer.forward(x)
        err = np.array([[3.0, 4.0, 5.0]], dtype=np.float32)
        np.testing.assert_array_equal(layer.backward(err), [[0, 4, 5]])

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_equals_select_formulation_on_finite_values(self, dtype, rng):
        x = rng.standard_normal((4, 3, 6, 6)).astype(dtype)
        x[rng.random(x.shape) < 0.2] = 0.0
        x[0, 0, 0, :2] = (-0.0, np.finfo(dtype).tiny)
        err = rng.standard_normal(x.shape).astype(dtype)
        layer = ReLULayer()
        out, in_err = layer.forward(x), layer.backward(err)
        mask = x > 0
        assert out.dtype == in_err.dtype == dtype
        assert np.array_equal(out, np.where(mask, x, 0))
        assert np.array_equal(in_err, np.where(mask, err, 0))
        assert np.array_equal(layer._cached_mask, mask)

    def test_masked_negative_error_counts_as_zero(self):
        # ``err * False`` is -0.0 for negative err.  Everything that
        # decides "is this gradient zero?" must agree that it is.
        from repro.blas.sparse import csr_from_dense
        from repro.core.goodput import measure_sparsity

        layer = ReLULayer()
        layer.forward(np.array([[-1.0, -2.0, 3.0, -4.0]], np.float32))
        in_err = layer.backward(np.array([[-5.0, 6.0, -7.0, -8.0]], np.float32))
        assert np.signbit(in_err[0, 0]) and in_err[0, 0] == 0
        assert measure_sparsity(in_err) == 0.75
        assert np.count_nonzero(in_err) == 1
        compressed = csr_from_dense(in_err)
        assert compressed.nnz == 1 and compressed.values[0] == -7.0

    def test_non_finite_values_are_propagated_not_zeroed(self):
        layer = ReLULayer()
        x = np.array([[np.nan, np.inf, -np.inf, -1.0, 2.0]], np.float32)
        out = layer.forward(x)
        assert np.isnan(out[0, 0]) and np.isinf(out[0, 1])
        np.testing.assert_array_equal(out[0, 2:], [0, 0, 2])
        # mask: NaN, -inf and -1 are "not > 0".
        err = np.array([[1.0, np.inf, np.inf, np.nan, np.nan]], np.float32)
        with np.errstate(invalid="ignore"):
            in_err = layer.backward(err)
        assert in_err[0, 0] == 0 and np.isinf(in_err[0, 1])
        # A masked inf/NaN error comes back NaN (inf * 0), so the
        # gradient guard sees it; the select formulation returned 0.
        assert np.isnan(in_err[0, 2:]).all()

    def test_eval_forward_keeps_training_mask(self):
        layer = ReLULayer()
        layer.forward(np.array([[1.0, -1.0]], np.float32))
        layer.forward(np.array([[-1.0, 1.0]], np.float32), training=False)
        np.testing.assert_array_equal(layer._cached_mask, [[True, False]])

    def test_backward_before_forward_raises(self):
        with pytest.raises(ShapeError):
            ReLULayer().backward(np.ones((1, 2), np.float32))


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = FlattenLayer()
        x = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (3, 40)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_output_shape(self):
        assert FlattenLayer().output_shape((2, 3, 4)) == (24,)


class TestDense:
    def test_forward_affine(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.weights.T + layer.bias, atol=1e-5
        )

    def test_gradients_numerically(self, rng):
        layer = DenseLayer(3, 2, rng=rng)
        layer.weights = layer.weights.astype(np.float64)
        layer.bias = layer.bias.astype(np.float64)
        layer.d_weights = np.zeros_like(layer.weights)
        layer.d_bias = np.zeros_like(layer.bias)
        x = rng.standard_normal((4, 3))
        err = rng.standard_normal((4, 2))
        layer.forward(x)
        in_err = layer.backward(err)
        numeric = numeric_param_grad(layer, layer.weights, x, err)
        np.testing.assert_allclose(layer.d_weights, numeric, atol=1e-5)
        np.testing.assert_allclose(in_err, err @ layer.weights, atol=1e-6)

    def test_backward_accumulates_the_naive_product_bit_for_bit(self, rng):
        # The first backward of a fresh layer writes its product in
        # place, the second adds to it: exactly ``+= out_error.T @ x``
        # twice from zeros, operands left alone.
        layer = DenseLayer(6, 4, rng=rng)
        want = np.zeros_like(layer.weights)
        for batch in (5, 3):
            x = rng.standard_normal((batch, 6)).astype(np.float32)
            err = rng.standard_normal((batch, 4)).astype(np.float32)
            x0, err0 = x.copy(), err.copy()
            layer.forward(x)
            layer.backward(err)
            want += err0.T @ x0
            assert layer.d_weights.tobytes() == want.tobytes()
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(err, err0)

    def test_rejects_bad_shapes(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            DenseLayer(0, 3)


class TestConvLayerBackend:
    def make(self, backend="thread", threads=2):
        from repro.runtime.pool import WorkerPool

        spec = ConvSpec(nc=2, ny=6, nx=6, nf=3, fy=3, fx=3, name="c")
        return ConvLayer(spec, pool=WorkerPool(threads, backend=backend),
                         rng=np.random.default_rng(5))

    def test_backends_produce_identical_activations(self, rng):
        x = rng.standard_normal((4, 2, 6, 6)).astype(np.float32)
        reference = self.make(backend="serial")
        out_serial = reference.forward(x)
        for backend in ("thread", "process"):
            layer = self.make(backend=backend)
            layer.weights[...] = reference.weights
            layer.bias[...] = reference.bias
            try:
                np.testing.assert_array_equal(layer.forward(x), out_serial)
            finally:
                layer.close()
        reference.close()
