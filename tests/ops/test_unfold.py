"""Tests for unfolding (im2col) and folding (col2im)."""

import numpy as np
import pytest

from repro.core.convspec import ConvSpec
from repro.errors import ShapeError
from repro.ops import reference as ref
from repro.ops import unfold as uf
from tests.conftest import SMALL_SPECS, random_conv_data


def _k(spec):
    return spec.gemm_dims[1]


def _p(spec):
    return spec.gemm_dims[2]


class TestUnfoldStructure:
    def test_shape_is_k_major(self):
        spec = ConvSpec(nc=2, ny=5, nx=6, nf=3, fy=2, fx=3)
        image = np.arange(2 * 5 * 6, dtype=np.float32).reshape(2, 5, 6)
        unfolded = uf.unfold(spec, image)
        assert unfolded.shape == (2 * 2 * 3, spec.out_ny * spec.out_nx)
        assert unfolded.flags.c_contiguous

    def test_columns_are_kernel_windows(self):
        # Column p of U^T must equal the flattened window of output
        # position p with channel the slowest row group (Fig. 2b).
        spec = ConvSpec(nc=2, ny=4, nx=5, nf=1, fy=2, fx=3)
        image = np.arange(40, dtype=np.float32).reshape(2, 4, 5)
        unfolded = uf.unfold(spec, image)
        for y in range(spec.out_ny):
            for x in range(spec.out_nx):
                column = unfolded[:, y * spec.out_nx + x]
                window = image[:, y : y + 2, x : x + 3].reshape(-1)
                np.testing.assert_array_equal(column, window)

    def test_rows_are_shifted_input_planes(self):
        # Row (c, ky, kx) is the input plane of channel c shifted by the
        # tap offset -- the long runs the K-major gather copies.
        spec = ConvSpec(nc=2, ny=6, nx=7, nf=1, fy=3, fx=2)
        image = np.arange(84, dtype=np.float32).reshape(2, 6, 7)
        unfolded = uf.unfold(spec, image).reshape(
            spec.nc, spec.fy, spec.fx, spec.out_ny, spec.out_nx
        )
        for c in range(spec.nc):
            for ky in range(spec.fy):
                for kx in range(spec.fx):
                    np.testing.assert_array_equal(
                        unfolded[c, ky, kx],
                        image[c, ky : ky + spec.out_ny, kx : kx + spec.out_nx],
                    )

    def test_paper_figure2b_example(self):
        # 3x3 image, 2 channels, 2x2 kernel: the figure's U (4 rows of 8
        # columns) is the transpose of what unfold builds.
        spec = ConvSpec(nc=2, ny=3, nx=3, nf=1, fy=2, fx=2)
        image = np.stack(
            [np.arange(9, dtype=np.float32).reshape(3, 3),
             10 + np.arange(9, dtype=np.float32).reshape(3, 3)]
        )
        figure_u = uf.unfold(spec, image).T
        assert figure_u.shape == (4, 8)
        np.testing.assert_array_equal(
            figure_u,
            [[0, 1, 3, 4, 10, 11, 13, 14],
             [1, 2, 4, 5, 11, 12, 14, 15],
             [3, 4, 6, 7, 13, 14, 16, 17],
             [4, 5, 7, 8, 14, 15, 17, 18]],
        )

    def test_strided_unfold_skips_positions(self):
        spec = ConvSpec(nc=1, ny=5, nx=5, nf=1, fy=2, fx=2, sy=2, sx=2)
        image = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        unfolded = uf.unfold(spec, image)
        assert unfolded.shape == (4, 4)
        np.testing.assert_array_equal(unfolded[:, 1], [2, 3, 7, 8])

    def test_non_square_strides(self):
        spec = ConvSpec(nc=1, ny=5, nx=8, nf=1, fy=2, fx=2, sy=1, sx=3)
        image = np.arange(40, dtype=np.float32).reshape(1, 5, 8)
        unfolded = uf.unfold(spec, image)
        assert unfolded.shape == (4, spec.out_ny * spec.out_nx)
        # Output position (y=2, x=1) reads the window at rows 2-3, cols 3-4.
        np.testing.assert_array_equal(
            unfolded[:, 2 * spec.out_nx + 1], [19, 20, 27, 28]
        )

    def test_non_contiguous_input(self):
        spec = ConvSpec(nc=2, ny=4, nx=4, nf=1, fy=2, fx=2)
        wide = np.arange(2 * 4 * 8, dtype=np.float32).reshape(2, 4, 8)
        view = wide[:, :, ::2]
        np.testing.assert_array_equal(
            uf.unfold(spec, view), uf.unfold(spec, view.copy())
        )

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
    def test_out_buffer_is_filled_and_returned(self, spec, rng):
        inputs, _, _ = random_conv_data(spec, rng, batch=1)
        out = np.full((_k(spec), _p(spec)), np.nan, dtype=np.float32)
        assert uf.unfold(spec, inputs[0], out=out) is out
        np.testing.assert_array_equal(out, uf.unfold(spec, inputs[0]))

    def test_rejects_bad_out_buffer(self):
        spec = SMALL_SPECS[1]
        image = np.zeros(spec.input_shape, np.float32)
        with pytest.raises(ShapeError):
            # The [P, K] orientation is gone, not an alternative.
            uf.unfold(spec, image, out=np.empty((_p(spec), _k(spec)), np.float32))
        with pytest.raises(ShapeError):
            uf.unfold(
                spec, image,
                out=np.empty((_p(spec), _k(spec)), np.float32).T,
            )

    def test_rejects_padded_spec(self):
        spec = ConvSpec(nc=1, ny=4, nx=4, nf=1, fy=2, fx=2, pad=1)
        with pytest.raises(ShapeError):
            uf.unfold(spec, np.zeros((1, 4, 4), np.float32))


class TestGemmEquivalence:
    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
    def test_unfold_gemm_equals_direct_convolution(self, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=1)
        unfolded = uf.unfold(spec, inputs[0])
        w_mat = uf.weights_matrix(spec, weights)
        out = (w_mat @ unfolded).reshape(spec.output_shape)
        want = ref.forward(spec, inputs[0], weights)
        np.testing.assert_allclose(out, want, atol=1e-3)


class TestFold:
    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
    def test_fold_is_adjoint_of_unfold(self, spec, rng):
        # <unfold(x), u> == <x, fold(u)> for all x, u.
        inputs, _, _ = random_conv_data(spec, rng, batch=1)
        u = rng.standard_normal((_k(spec), _p(spec))).astype(np.float32)
        lhs = float(np.vdot(uf.unfold(spec, inputs[0]), u))
        rhs = float(np.vdot(inputs[0], uf.fold(spec, u)))
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-2)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
    def test_fold_of_gemm_equals_reference_backward_data(self, spec, rng):
        _, weights, err = random_conv_data(spec, rng, batch=1)
        w_mat = uf.weights_matrix(spec, weights)
        err_mat = uf.output_image_to_matrix(spec, err[0])
        got = uf.fold(spec, w_mat.T @ err_mat)
        want = ref.backward_data(spec, err[0], weights)
        np.testing.assert_allclose(got, want, atol=1e-3)

    def test_fold_unfold_counts_multiplicity(self):
        # fold(unfold(ones)) equals, at each input position, the number of
        # kernel windows covering it.
        spec = ConvSpec(nc=1, ny=4, nx=4, nf=1, fy=2, fx=2)
        ones = np.ones(spec.input_shape, dtype=np.float32)
        counted = uf.fold(spec, uf.unfold(spec, ones))
        expected = np.array(
            [[1, 2, 2, 1], [2, 4, 4, 2], [2, 4, 4, 2], [1, 2, 2, 1]],
            dtype=np.float32,
        )[None]
        np.testing.assert_array_equal(counted, expected)

    def test_fold_into_out_overwrites_stale_contents(self, rng):
        spec = SMALL_SPECS[2]
        u = rng.standard_normal((_k(spec), _p(spec))).astype(np.float32)
        out = np.full(spec.input_shape, 7.0, dtype=np.float32)
        assert uf.fold(spec, u, out=out) is out
        np.testing.assert_array_equal(out, uf.fold(spec, u))

    def test_fold_rejects_bad_shape(self):
        spec = SMALL_SPECS[0]
        with pytest.raises(ShapeError):
            uf.fold(spec, np.zeros((3, 3), np.float32))
        with pytest.raises(ShapeError):
            uf.fold(spec, np.zeros((_p(spec), _k(spec)), np.float32))


class TestMatrixHelpers:
    def test_weights_matrix_roundtrip(self, rng):
        spec = SMALL_SPECS[1]
        weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
        w_mat = uf.weights_matrix(spec, weights)
        assert w_mat.shape == (spec.nf, spec.nc * spec.fy * spec.fx)
        np.testing.assert_array_equal(w_mat.reshape(spec.weight_shape), weights)

    def test_output_matrix_image_roundtrip(self, rng):
        spec = SMALL_SPECS[1]
        out = rng.standard_normal(spec.output_shape).astype(np.float32)
        mat = uf.output_image_to_matrix(spec, out)
        np.testing.assert_array_equal(mat.reshape(spec.output_shape), out)

    def test_helpers_reject_bad_shapes(self):
        spec = SMALL_SPECS[0]
        with pytest.raises(ShapeError):
            uf.weights_matrix(spec, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            uf.output_image_to_matrix(spec, np.zeros((2, 2)))


#: Deep enough for the implicit form: non-square kernels and planes.
IMPLICIT_SPECS = [
    ConvSpec(nc=64, ny=11, nx=14, nf=7, fy=3, fx=5),
    ConvSpec(nc=52, ny=9, nx=9, nf=3, fy=5, fx=5),
    ConvSpec(nc=256, ny=6, nx=7, nf=4, fy=1, fx=1),
]


class TestKernelRowViews:
    @pytest.mark.parametrize("spec", IMPLICIT_SPECS + SMALL_SPECS[:1],
                             ids=lambda s: s.describe())
    def test_views_are_the_rows_of_u_t_without_a_copy(self, spec, rng):
        if (spec.sy, spec.sx) != (1, 1):
            pytest.skip("column buffers serve stride-1 specs")
        images = rng.standard_normal((2,) + spec.input_shape) \
            .astype(np.float32)
        columns = np.empty(uf.column_shape(spec), np.float32)
        views = uf.kernel_row_views(spec, columns)
        assert len(views) == spec.fy
        for image, gathered in zip(images, uf.gather_columns(spec, images,
                                                            columns)):
            assert gathered is columns
            rows = np.stack(views).reshape(
                spec.fy, spec.nc, spec.fx, -1).transpose(1, 0, 2, 3)
            np.testing.assert_array_equal(
                rows.reshape(spec.gemm_dims[1:]), uf.unfold(spec, image))
        assert all(np.shares_memory(view, columns) for view in views)

    def test_strided_specs_have_no_column_buffer(self):
        spec = ConvSpec(nc=2, ny=9, nx=9, nf=2, fy=3, fx=3, sy=2, sx=2)
        with pytest.raises(ShapeError):
            next(uf.gather_columns(spec, np.zeros((1,) + spec.input_shape)))

    @pytest.mark.parametrize("spec", IMPLICIT_SPECS + SMALL_SPECS[:2],
                             ids=lambda s: s.describe())
    def test_weight_blocks_roundtrip(self, spec, rng):
        weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
        blocks = uf.weight_blocks(spec, weights)
        assert blocks.flags.c_contiguous and blocks.shape[1] == spec.nf
        assert blocks.shape[0] * blocks.shape[2] == spec.gemm_dims[1]
        np.testing.assert_array_equal(
            uf.copy_kernel_rows(uf.weights_from_blocks(spec, blocks)),
            weights)

    def test_copy_kernel_rows_is_a_contiguous_copy(self, rng):
        source = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        assert uf.copy_kernel_rows(source) is source
        for view in (source.transpose(2, 0, 1, 3), source[:, :, ::-1, ::-1]):
            copied = uf.copy_kernel_rows(view)
            assert copied.flags.c_contiguous
            np.testing.assert_array_equal(copied, view)
