"""Tests for the reference convolutions: loop oracles, adjointness, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError
from repro.ops import reference as ref
from tests.conftest import SMALL_SPECS, random_conv_data


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
class TestLoopOracleAgreement:
    def test_forward(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=1)
        got = ref.forward(spec, inputs[0], weights)
        want = ref.forward_loops(spec, inputs[0], weights)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_backward_data(self, spec, rng):
        _, weights, err = random_conv_data(spec, rng, batch=1)
        got = ref.backward_data(spec, err[0], weights)
        want = ref.backward_data_loops(spec, err[0], weights)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_backward_weights(self, spec, rng):
        inputs, _, err = random_conv_data(spec, rng, batch=1)
        got = ref.backward_weights(spec, err[0], inputs[0])
        want = ref.backward_weights_loops(spec, err[0], inputs[0])
        np.testing.assert_allclose(got, want, atol=1e-3)


class TestAdjointness:
    """backward_data must be the exact adjoint of forward.

    For any inputs x, weights w, error e:
    <forward(x, w), e> == <x, backward_data(e, w)>.
    This is the property SGD's chain rule relies on.
    """

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
    def test_data_adjoint(self, spec, rng):
        inputs, weights, err = random_conv_data(spec, rng, batch=1)
        out = ref.forward(spec, inputs[0], weights)
        in_err = ref.backward_data(spec, err[0], weights)
        lhs = float(np.vdot(out, err[0]))
        rhs = float(np.vdot(inputs[0], in_err))
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-2)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
    def test_weight_adjoint(self, spec, rng):
        # <forward(x, w), e> == <w, backward_weights(e, x)>.
        inputs, weights, err = random_conv_data(spec, rng, batch=1)
        out = ref.forward(spec, inputs[0], weights)
        dw = ref.backward_weights(spec, err[0], inputs[0])
        lhs = float(np.vdot(out, err[0]))
        rhs = float(np.vdot(weights, dw))
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-2)


class TestNumericalGradient:
    def test_dw_matches_finite_differences(self, rng):
        spec = ConvSpec(nc=2, ny=5, nx=5, nf=2, fy=2, fx=2)
        inputs, weights, err = random_conv_data(spec, rng, batch=1)
        inputs = inputs.astype(np.float64)
        weights = weights.astype(np.float64)
        err = err.astype(np.float64)
        dw = ref.backward_weights(spec, err[0], inputs[0])
        eps = 1e-5
        # Check a handful of weight coordinates against (L(w+e) - L(w-e)) / 2e
        # where L(w) = <forward(x, w), err>.
        for idx in [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)]:
            w_plus = weights.copy()
            w_plus[idx] += eps
            w_minus = weights.copy()
            w_minus[idx] -= eps
            lp = np.vdot(ref.forward(spec, inputs[0], w_plus), err[0])
            lm = np.vdot(ref.forward(spec, inputs[0], w_minus), err[0])
            numeric = (lp - lm) / (2 * eps)
            assert dw[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


class TestValidation:
    def test_rejects_padded_spec(self, rng):
        spec = ConvSpec(nc=1, ny=6, nx=6, nf=1, fy=3, fx=3, pad=1)
        with pytest.raises(ShapeError):
            ref.forward(spec, np.zeros(spec.input_shape, np.float32),
                        np.zeros(spec.weight_shape, np.float32))

    def test_rejects_wrong_input_shape(self):
        spec = SMALL_SPECS[0]
        with pytest.raises(ShapeError):
            ref.forward(spec, np.zeros((9, 9, 9), np.float32),
                        np.zeros(spec.weight_shape, np.float32))

    def test_rejects_wrong_weight_shape(self):
        spec = SMALL_SPECS[0]
        with pytest.raises(ShapeError):
            ref.forward(spec, np.zeros(spec.input_shape, np.float32),
                        np.zeros((1, 1, 1, 1), np.float32))


conv_specs = st.builds(
    ConvSpec,
    nc=st.integers(1, 4),
    ny=st.integers(5, 12),
    nx=st.integers(5, 12),
    nf=st.integers(1, 4),
    fy=st.integers(1, 4),
    fx=st.integers(1, 4),
    sy=st.integers(1, 2),
    sx=st.integers(1, 2),
)


class TestProperties:
    @given(conv_specs, st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_vectorized_matches_loops(self, spec, seed):
        rng = np.random.default_rng(seed)
        inputs, weights, _ = random_conv_data(spec, rng, batch=1)
        got = ref.forward(spec, inputs[0], weights)
        want = ref.forward_loops(spec, inputs[0], weights)
        np.testing.assert_allclose(got, want, atol=1e-3)

    @given(conv_specs)
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_weights(self, spec):
        rng = np.random.default_rng(7)
        inputs, w1, _ = random_conv_data(spec, rng, batch=1)
        w2 = rng.standard_normal(spec.weight_shape).astype(np.float32)
        combined = ref.forward(spec, inputs[0], w1 + w2)
        separate = ref.forward(spec, inputs[0], w1) + ref.forward(spec, inputs[0], w2)
        np.testing.assert_allclose(combined, separate, atol=1e-3)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
class TestBatches:
    """The batched forms the engines fall back to: image by image, bit
    for bit, and an empty batch is an empty result of the right shape."""

    def test_forward(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=3)
        got = ref.batch_forward(spec, inputs, weights)
        for b, img in enumerate(inputs):
            assert got[b].tobytes() == ref.forward(spec, img, weights).tobytes()
        assert ref.batch_forward(spec, inputs[:0], weights).shape \
            == (0,) + spec.output_shape

    def test_backward_data(self, spec, rng):
        _, weights, err = random_conv_data(spec, rng, batch=3)
        got = ref.batch_backward_data(spec, err, weights)
        for b, e in enumerate(err):
            assert got[b].tobytes() == \
                ref.backward_data(spec, e, weights).tobytes()
        assert ref.batch_backward_data(spec, err[:0], weights).shape \
            == (0,) + spec.input_shape

    def test_backward_weights_sums_the_images_in_order(self, spec, rng):
        inputs, _, err = random_conv_data(spec, rng, batch=3)
        want = np.zeros(spec.weight_shape, np.float32)
        for e, img in zip(err, inputs):
            want += ref.backward_weights(spec, e, img)
        got = ref.batch_backward_weights(spec, err, inputs)
        assert got.tobytes() == want.tobytes()
        assert not ref.batch_backward_weights(spec, err[:0], inputs[:0]).any()
