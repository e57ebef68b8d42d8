"""The unfold+GEMM engines: differential agreement and batch independence.

Three properties the rest of the system leans on:

* both engines compute Eqs. 2-4 for *any* geometry -- stride, padding,
  non-square extents -- not only the zoo's (a seeded Hypothesis
  differential against the loop-nest oracles of ``ops.reference``);
* ``backward_data(..., crop=)`` of *every* registered engine is the
  interior of the full input error, whichever of the two BP-data forms
  (forward correlation, GEMM + fold) the geometry selects;
* an image's result does not depend on the batch it arrives in, bit for
  bit.  The serial/thread/process and barrier/dag identity contracts
  slice batches at arbitrary points and compare with ``==``;
* the one ``backward`` call a layer makes equals the two separate calls
  and the reference, on every stride-1 zoo and Table 2 spec.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.runner import engine_spec
from repro.core.convspec import ConvSpec, backward_data_correlation
from repro.data.tables import TABLE2_LAYERS
from repro.errors import ShapeError
from repro.ops import reference as ref
from repro.nn.zoo import alexnet_small, cifar10_net, imagenet100_net, mnist_net
from repro.ops.engine import engine_names, make_engine
from tests.conftest import SMALL_SPECS, random_conv_data

GEMM_ENGINES = ("parallel-gemm", "gemm-in-parallel")

# Kernels never exceed the padded extent: ny + 2*pad >= 5 + 0 > fy.
conv_specs = st.builds(
    ConvSpec,
    nc=st.integers(1, 4),
    ny=st.integers(5, 11),
    nx=st.integers(5, 13),
    nf=st.integers(1, 5),
    fy=st.integers(1, 4),
    fx=st.integers(1, 5),
    sy=st.integers(1, 3),
    sx=st.integers(1, 3),
    pad=st.integers(0, 2),
)


def _case(spec: ConvSpec, seed: int, batch: int = 2):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((batch,) + spec.input_shape).astype(np.float32)
    p = spec.pad
    padded = np.pad(images, ((0, 0), (0, 0), (p, p), (p, p)))
    inner = engine_spec(spec)  # the pad=0 geometry engines run on
    weights = rng.standard_normal(inner.weight_shape).astype(np.float32)
    err = rng.standard_normal((batch,) + inner.output_shape).astype(np.float32)
    return inner, padded, weights, err


@pytest.mark.parametrize("name", GEMM_ENGINES)
@pytest.mark.parametrize("cores", (1, 3))
@given(spec=conv_specs, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_gemm_engines_match_loop_oracles(name, cores, spec, seed):
    inner, padded, weights, err = _case(spec, seed)
    engine = make_engine(name, inner, num_cores=cores)
    # Twice through one engine: the second pass runs on reused scratch.
    for _ in range(2):
        np.testing.assert_allclose(
            engine.forward(padded, weights),
            np.stack([ref.forward_loops(inner, x, weights) for x in padded]),
            atol=2e-3, err_msg=f"{name} fp {inner.describe()}",
        )
        np.testing.assert_allclose(
            engine.backward_data(err, weights),
            np.stack([ref.backward_data_loops(inner, e, weights) for e in err]),
            atol=2e-3, err_msg=f"{name} bd {inner.describe()}",
        )
        np.testing.assert_allclose(
            engine.backward_weights(err, padded),
            sum(ref.backward_weights_loops(inner, e, x)
                for e, x in zip(err, padded)),
            atol=5e-3, err_msg=f"{name} dw {inner.describe()}",
        )


def _cropped_oracle(inner: ConvSpec, err, weights, crop: int):
    full = np.stack([ref.backward_data_loops(inner, e, weights) for e in err])
    return full[:, :, crop:full.shape[2] - crop, crop:full.shape[3] - crop]


@st.composite
def cropped_cases(draw):
    """``(spec, crop)`` with ``crop`` in ``[0, pad]``.

    Half the draws are any geometry (strided ones included: they keep
    ``fold`` and crop afterwards); the other half look like a padded
    layer -- stride 1, ``crop == pad``, each kernel side between
    ``pad + 1`` and ``2*pad + 1``, non-square allowed -- which is where
    the geometry rule picks the correlation form.
    """
    spec = draw(conv_specs)
    if draw(st.booleans()):
        return spec, draw(st.integers(0, spec.pad))
    pad = draw(st.integers(1, 2))
    side = st.integers(pad + 1, 2 * pad + 1)
    return ConvSpec(nc=spec.nc, ny=spec.ny, nx=spec.nx, nf=spec.nf,
                    fy=draw(side), fx=draw(side), pad=pad), pad


@given(case=cropped_cases(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cropped_backward_data_matches_cropped_loop_oracle(case, seed):
    spec, crop = case
    inner, _, weights, err = _case(spec, seed)
    want = _cropped_oracle(inner, err, weights, crop)
    assert want.shape[1:] == inner.cropped_input_shape(crop)
    for name in engine_names():
        engine = make_engine(name, inner)
        for _ in range(2):  # the second pass runs on reused scratch
            got = engine.backward_data(err, weights, crop=crop)
            assert got.shape == want.shape, name
            np.testing.assert_allclose(
                got, want, atol=2e-3,
                err_msg=f"{name} bd crop={crop} {inner.describe()}")


# (spec, crop) pairs the size rule sends down the correlation form:
# the zoo's "same" 5x5, a 3x3, a non-square kernel cropped by its shorter
# side, a partial crop, and a 1x1 (no border at all) with Nf = 2 Nc.
CORRELATION_CASES = [
    (ConvSpec(nc=3, ny=12, nx=12, nf=4, fy=5, fx=5), 2),
    (ConvSpec(nc=3, ny=9, nx=11, nf=5, fy=3, fx=3), 1),
    (ConvSpec(nc=4, ny=10, nx=13, nf=3, fy=3, fx=5), 2),
    (ConvSpec(nc=2, ny=11, nx=10, nf=2, fy=4, fx=4), 2),
    (ConvSpec(nc=3, ny=8, nx=8, nf=6, fy=1, fx=1), 0),
]
# ... and pairs it leaves on GEMM + fold: strided, unpadded, a crop too
# small to shrink the correlation's GEMM to the adjoint's, and an error
# with more than twice the input's channels.
FOLD_CASES = [
    (ConvSpec(nc=2, ny=11, nx=13, nf=5, fy=3, fx=3, sy=2, sx=2), 1),
    (ConvSpec(nc=3, ny=9, nx=8, nf=4, fy=2, fx=3), 0),
    (ConvSpec(nc=3, ny=12, nx=12, nf=2, fy=5, fx=5), 1),
    (ConvSpec(nc=4, ny=10, nx=13, nf=3, fy=3, fx=5), 1),
    (ConvSpec(nc=2, ny=9, nx=11, nf=5, fy=3, fx=3), 1),
]


class TestBackwardDataForms:
    def test_geometry_rule_selects_the_form(self):
        for spec, crop in CORRELATION_CASES:
            corr = backward_data_correlation(spec, crop)
            assert corr is not None, spec.describe()
            assert corr.output_shape == spec.cropped_input_shape(crop)
            # Same GEMM work as the adjoint form, or less.
            assert corr.flops <= spec.flops
        for spec, crop in FOLD_CASES:
            assert backward_data_correlation(spec, crop) is None

    @pytest.mark.parametrize("name", GEMM_ENGINES)
    @pytest.mark.parametrize("spec,crop", CORRELATION_CASES + FOLD_CASES,
                             ids=lambda v: v.describe()
                             if isinstance(v, ConvSpec) else f"crop{v}")
    def test_image_equals_singleton_call(self, name, spec, crop, rng):
        # Batch independence of the cropped call, bit for bit: the
        # sliced executors and the sharded step cut batches anywhere.
        _, weights, err = random_conv_data(spec, rng, batch=5)
        engine = make_engine(name, spec, num_cores=2)
        batched = engine.backward_data(err, weights, crop=crop)
        np.testing.assert_allclose(
            batched, _cropped_oracle(spec, err, weights, crop), atol=2e-3)
        for i in range(len(err)):
            alone = make_engine(name, spec, num_cores=2).backward_data(
                err[i : i + 1], weights, crop=crop)
            assert batched[i].tobytes() == alone[0].tobytes()
        # A slice taken anywhere, through the warm engine: the zero
        # border of the reused error plane is still zero.
        assert engine.backward_data(err[1:3], weights, crop=crop) \
            .tobytes() == batched[1:3].tobytes()

    def test_bp_data_shares_fp_unfold_scratch_when_shapes_agree(self, rng):
        # A same-padded layer with Nc == Nf: FP/dW and BP-data gather
        # into one U^T buffer, not one each.
        spec = ConvSpec(nc=4, ny=12, nx=12, nf=4, fy=5, fx=5)
        inputs, weights, err = random_conv_data(spec, rng, batch=2)
        engine = make_engine("gemm-in-parallel", spec)
        engine.forward(inputs, weights)
        fp_only = engine.workspace.nbytes
        engine.backward_data(err, weights, crop=2)
        bordered = 4 * (4 * 12 * 12)  # float32 [Nf, 8 + 2*2, 8 + 2*2]
        assert engine.workspace.nbytes == fp_only + bordered

    def test_crop_that_leaves_nothing_is_rejected(self):
        spec = SMALL_SPECS[0]
        weights = np.zeros(spec.weight_shape, np.float32)
        err = np.zeros((1,) + spec.output_shape, np.float32)
        for name in ("gemm-in-parallel", "stencil", "reference"):
            with pytest.raises(ShapeError):
                make_engine(name, spec).backward_data(err, weights, crop=3)


@pytest.mark.parametrize("name", GEMM_ENGINES)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
class TestBatchIndependence:
    def test_forward_image_equals_singleton_call(self, name, spec, rng):
        inputs, weights, _ = random_conv_data(spec, rng, batch=5)
        engine = make_engine(name, spec, num_cores=2)
        batched = engine.forward(inputs, weights)
        for i in range(len(inputs)):
            alone = make_engine(name, spec, num_cores=2).forward(
                inputs[i : i + 1], weights
            )
            assert batched[i].tobytes() == alone[0].tobytes()
        # ... and a slice taken anywhere, through the warm engine.
        assert engine.forward(inputs[2:4], weights).tobytes() == \
            batched[2:4].tobytes()

    def test_backward_data_image_equals_singleton_call(self, name, spec, rng):
        _, weights, err = random_conv_data(spec, rng, batch=5)
        engine = make_engine(name, spec, num_cores=2)
        batched = engine.backward_data(err, weights)
        for i in range(len(err)):
            alone = make_engine(name, spec, num_cores=2).backward_data(
                err[i : i + 1], weights
            )
            assert batched[i].tobytes() == alone[0].tobytes()
        assert engine.backward_data(err[1:3], weights).tobytes() == \
            batched[1:3].tobytes()


class TestScheduling:
    def test_more_cores_than_rows_leaves_no_row_unwritten(self, rng):
        # parallel-gemm's row partition has empty slices here; every row
        # of the (uninitialised) scratch panel must still be produced.
        spec = ConvSpec(nc=2, ny=6, nx=6, nf=2, fy=2, fx=2)
        inputs, weights, err = random_conv_data(spec, rng, batch=2)
        engine = make_engine("parallel-gemm", spec, num_cores=16)
        oracle = make_engine("reference", spec)
        np.testing.assert_allclose(
            engine.forward(inputs, weights), oracle.forward(inputs, weights),
            atol=1e-3,
        )
        np.testing.assert_allclose(
            engine.backward_weights(err, inputs),
            oracle.backward_weights(err, inputs), atol=1e-3,
        )

    def test_returned_arrays_do_not_alias_scratch(self, rng):
        spec = SMALL_SPECS[1]
        inputs, weights, err = random_conv_data(spec, rng, batch=2)
        engine = make_engine("gemm-in-parallel", spec)
        out = engine.forward(inputs, weights)
        ei = engine.backward_data(err, weights)
        dw = engine.backward_weights(err, inputs)
        kept = [a.copy() for a in (out, ei, dw)]
        # A second batch through the same engine overwrites its scratch.
        engine.forward(inputs + 1, weights)
        engine.backward_data(err + 1, weights)
        engine.backward_weights(err + 1, inputs + 1)
        for got, want in zip((out, ei, dw), kept):
            np.testing.assert_array_equal(got, want)

    def test_empty_batch(self):
        spec = SMALL_SPECS[0]
        weights = np.zeros(spec.weight_shape, np.float32)
        engine = make_engine("gemm-in-parallel", spec)
        empty_in = np.zeros((0,) + spec.input_shape, np.float32)
        empty_err = np.zeros((0,) + spec.output_shape, np.float32)
        assert engine.forward(empty_in, weights).shape == (0,) + spec.output_shape
        assert engine.backward_data(empty_err, weights).shape == empty_in.shape
        assert not engine.backward_weights(empty_err, empty_in).any()


def _stride1_cases():
    """``(label, engine spec, crop)`` of the stride-1 zoo convs (at their
    pad) and Table 2 convs (at the "same" crop, ``(F-1)//2``)."""
    cases = {}
    for build in (mnist_net, cifar10_net, imagenet100_net, alexnet_small):
        network = build()
        for layer in network.conv_layers():
            if (layer.spec.sy, layer.spec.sx) == (1, 1):
                cases.setdefault((layer.padded_spec, layer.spec.pad),
                                 f"{network.name}/{layer.name}")
    zoo = [(label, spec, crop) for (spec, crop), label in cases.items()]
    table2 = [(spec.name, spec.pre_padded(), (min(spec.fy, spec.fx) - 1) // 2)
              for table in TABLE2_LAYERS.values() for spec in table
              if (spec.sy, spec.sx) == (1, 1)]
    return zoo, table2


ZOO_STRIDE_1, TABLE2_STRIDE_1 = _stride1_cases()
#: Where the one call's dW differs from the separate call's in rounding
#: (OpenBLAS blocks the two products' shapes differently); everywhere
#: else it is bitwise.
DW_ROUNDED = {"imagenet-1k-L2"}


@pytest.mark.parametrize("name", GEMM_ENGINES)
@pytest.mark.parametrize(
    "label,spec,crop,batch",
    [(*case, batch) for case in ZOO_STRIDE_1 for batch in (1, 3, 16)]
    + [(*case, batch) for case in TABLE2_STRIDE_1 for batch in (1, 3)],
    ids=lambda v: v if isinstance(v, str) else None)
class TestOneBackward:
    """``ConvEngine.backward`` against the two separate calls and the
    reference, on a random, an all-zero and a poisoned error."""

    def _operands(self, spec, crop, batch, error):
        rng = np.random.default_rng(batch)
        inputs = np.zeros((batch,) + spec.input_shape, np.float32)
        _, ny, nx = spec.cropped_input_shape(crop)
        inputs[:, :, crop:crop + ny, crop:crop + nx] = rng.standard_normal(
            (batch, spec.nc, ny, nx), dtype=np.float32)
        weights = rng.standard_normal(spec.weight_shape, dtype=np.float32)
        err = np.zeros((batch,) + spec.output_shape, np.float32)
        if error != "zero":
            err[...] = rng.standard_normal(err.shape, dtype=np.float32)
        if error == "poisoned":
            err[-1, 0, 1, 1] = np.nan
        return inputs, weights, err

    @pytest.mark.parametrize("error", ["random", "zero"])
    def test_equals_the_two_calls_and_the_reference(self, name, label, spec,
                                                    crop, batch, error):
        inputs, weights, err = self._operands(spec, crop, batch, error)
        engine = make_engine(name, spec, num_cores=2)
        d_weights, in_error = engine.backward(err, inputs, weights, crop)
        apart = make_engine(name, spec, num_cores=2)
        want_dw = apart.backward_weights(err, inputs)
        want_bd = apart.backward_data(err, weights, crop=crop)
        assert in_error.tobytes() == want_bd.tobytes()
        if label in DW_ROUNDED:
            np.testing.assert_allclose(d_weights, want_dw, rtol=1e-4,
                                       atol=1e-3)
        else:
            assert d_weights.tobytes() == want_dw.tobytes()
        scale = max(1.0, float(np.abs(err).max()))
        np.testing.assert_allclose(
            d_weights, ref.batch_backward_weights(spec, err, inputs),
            rtol=1e-3, atol=2e-3 * scale * spec.out_ny)
        full = ref.batch_backward_data(spec, err, weights)
        np.testing.assert_allclose(
            in_error, engine._cropped(full, crop), rtol=1e-3,
            atol=2e-3 * scale)
        # dW only: the input error is neither computed nor returned.
        alone, none = engine.backward(err, inputs, weights, crop,
                                      need_input_error=False)
        assert none is None and alone.tobytes() == want_dw.tobytes()

    def test_a_poisoned_error_is_not_swallowed(self, name, label, spec,
                                               crop, batch):
        """The input error is the separate call's, NaN for NaN; dW is
        non-finite in every row of the poisoned feature and equal to the
        separate call's elsewhere (the one call skips the zero pad
        border the separate call multiplies by the NaN, so it spreads
        the poison over no more taps)."""
        inputs, weights, err = self._operands(spec, crop, batch, "poisoned")
        engine = make_engine(name, spec, num_cores=2)
        with np.errstate(invalid="ignore"):
            d_weights, in_error = engine.backward(err, inputs, weights, crop)
            want_bd = engine.backward_data(err, weights, crop=crop)
            want_dw = engine.backward_weights(err, inputs)
        assert np.array_equal(in_error, want_bd, equal_nan=True)
        assert not np.isfinite(in_error).all()
        assert not np.isfinite(d_weights[0]).all()
        assert np.isfinite(want_dw[1:]).all()
        np.testing.assert_allclose(d_weights[1:], want_dw[1:], rtol=1e-4,
                                   atol=1e-3)
        assert (np.isnan(d_weights) <= np.isnan(want_dw)).all()
