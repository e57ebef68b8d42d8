"""Property-based cross-engine equivalence over random convolutions.

Hypothesis generates arbitrary (small) convolution geometries and data;
every registered engine must agree with the reference oracle on all three
training computations.  This is the repository's strongest correctness
statement: technique choice can never change training semantics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro  # noqa: F401 - registers all engines
from repro.core.convspec import ConvSpec
from repro.ops.engine import make_engine

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

ENGINES = ("parallel-gemm", "gemm-in-parallel", "stencil", "sparse")


def _data(spec, seed, sparsity):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    err = rng.standard_normal((2,) + spec.output_shape).astype(np.float32)
    err[rng.random(err.shape) < sparsity] = 0.0
    return inputs, weights, err


@given(conv_specs, st.integers(0, 2**31 - 1), st.floats(0.0, 0.99))
@settings(max_examples=25, deadline=None)
def test_all_engines_agree_forward(spec, seed, sparsity):
    inputs, weights, _ = _data(spec, seed, sparsity)
    want = make_engine("reference", spec).forward(inputs, weights)
    for name in ENGINES:
        got = make_engine(name, spec).forward(inputs, weights)
        np.testing.assert_allclose(got, want, atol=2e-3, err_msg=name)


@given(conv_specs, st.integers(0, 2**31 - 1), st.floats(0.0, 0.99))
@settings(max_examples=25, deadline=None)
def test_all_engines_agree_backward_data(spec, seed, sparsity):
    _, weights, err = _data(spec, seed, sparsity)
    want = make_engine("reference", spec).backward_data(err, weights)
    for name in ENGINES:
        got = make_engine(name, spec).backward_data(err, weights)
        np.testing.assert_allclose(got, want, atol=2e-3, err_msg=name)


@given(conv_specs, st.integers(0, 2**31 - 1), st.floats(0.0, 0.99))
@settings(max_examples=25, deadline=None)
def test_all_engines_agree_backward_weights(spec, seed, sparsity):
    inputs, _, err = _data(spec, seed, sparsity)
    want = make_engine("reference", spec).backward_weights(err, inputs)
    for name in ENGINES:
        got = make_engine(name, spec).backward_weights(err, inputs)
        np.testing.assert_allclose(got, want, atol=5e-3, err_msg=name)


@given(conv_specs, st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_is_linear_in_inputs(spec, seed):
    """conv(a*x1 + x2) == a*conv(x1) + conv(x2) for every engine path."""
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((1,) + spec.input_shape).astype(np.float32)
    x2 = rng.standard_normal((1,) + spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    engine = make_engine("stencil", spec)
    combined = engine.forward(2.0 * x1 + x2, weights)
    separate = 2.0 * engine.forward(x1, weights) + engine.forward(x2, weights)
    np.testing.assert_allclose(combined, separate, atol=5e-3)
