"""Tests for the sparse BP kernels: error layout, pointer shifting, and
agreement with the reference across error sparsities."""

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError
from repro.ops import reference as ref
from repro.ops.engine import make_engine
from repro.sparse.kernels import compress_error, error_matrix
from tests.conftest import SMALL_SPECS, random_conv_data


class TestErrorMatrix:
    def test_layout_is_f_fastest(self, rng):
        spec = ConvSpec(nc=1, ny=5, nx=5, nf=3, fy=2, fx=2)
        _, _, err = random_conv_data(spec, rng, batch=1)
        mat = error_matrix(spec, err[0])
        assert mat.shape == (spec.out_ny * spec.out_nx, spec.nf)
        # Row r corresponds to output position (r // out_nx, r % out_nx).
        assert mat[5, 2] == err[0][2, 5 // spec.out_nx, 5 % spec.out_nx]
        assert mat.flags["C_CONTIGUOUS"]

    def test_rejects_wrong_shape(self):
        spec = SMALL_SPECS[0]
        with pytest.raises(ShapeError):
            error_matrix(spec, np.zeros((1, 2, 3), np.float32))

    def test_compress_preserves_sparsity(self, rng):
        spec = SMALL_SPECS[1]
        _, _, err = random_conv_data(spec, rng, batch=1, error_sparsity=0.8)
        eo = compress_error(spec, err[0])
        assert eo.nnz == np.count_nonzero(err[0])


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
@pytest.mark.parametrize("sparsity", [0.0, 0.7, 0.95])
class TestSparseKernelsMatchReference:
    def test_backward_data(self, spec, sparsity, rng):
        _, weights, err = random_conv_data(spec, rng, batch=1,
                                           error_sparsity=sparsity)
        got = make_engine("sparse", spec).backward_data(err, weights)
        want = ref.backward_data(spec, err[0], weights)
        np.testing.assert_allclose(got[0], want, atol=1e-3)

    def test_backward_weights(self, spec, sparsity, rng):
        inputs, _, err = random_conv_data(spec, rng, batch=1,
                                          error_sparsity=sparsity)
        got = make_engine("sparse", spec).backward_weights(err, inputs)
        want = ref.backward_weights(spec, err[0], inputs[0])
        np.testing.assert_allclose(got, want, atol=1e-3)


class TestPointerShifting:
    def test_single_nonzero_scatters_to_window(self, rng):
        # One non-zero error at output (y', x') must touch exactly the
        # Fy x Fx input window starting at (y'*sy, x'*sx) -- Eq. 15.
        spec = ConvSpec(nc=2, ny=8, nx=8, nf=1, fy=3, fx=3, sy=1, sx=1)
        weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
        err = np.zeros((1,) + spec.output_shape, dtype=np.float32)
        err[0, 0, 2, 3] = 1.0
        in_error = make_engine("sparse", spec).backward_data(err, weights)
        touched = np.argwhere(np.abs(in_error[0]).sum(axis=0) != 0)
        assert touched[:, 0].min() >= 2 and touched[:, 0].max() <= 4
        assert touched[:, 1].min() >= 3 and touched[:, 1].max() <= 5

    def test_zero_error_produces_zero_gradients(self, rng):
        spec = SMALL_SPECS[2]
        inputs, weights, _ = random_conv_data(spec, rng, batch=1)
        err = np.zeros((1,) + spec.output_shape, dtype=np.float32)
        engine = make_engine("sparse", spec)
        assert not engine.backward_data(err, weights).any()
        assert not engine.backward_weights(err, inputs).any()


class TestValidation:
    def test_backward_data_shape_checks(self, rng):
        spec = SMALL_SPECS[0]
        _, weights, err = random_conv_data(spec, rng, batch=1)
        engine = make_engine("sparse", spec)
        with pytest.raises(ShapeError):
            engine.backward_data(err[0], weights)  # missing batch axis
        with pytest.raises(ShapeError):
            engine.backward_data(err, np.zeros((1, 1, 1, 1), np.float32))
