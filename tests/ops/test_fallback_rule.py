"""The one fallback rule of the generated-kernel engines.

Every call a C unit does not serve -- no compiler, a stride the printer
does not cover, operands that are not C-contiguous ``float32``, stencil
BP, sparse FP -- is :mod:`repro.ops.reference`'s: the engines then
compute the ``reference`` engine's bits exactly, and say why in
``lowering_reason``.  These cases run the same with and without a
compiler on the machine.
"""

import numpy as np
import pytest

from repro import native
from repro.core.convspec import ConvSpec
from repro.ops.engine import make_engine
from tests.conftest import SMALL_SPECS, random_conv_data

#: The phases each engine's C unit serves; its other phases never do.
LOWERED = {"stencil": ("forward",),
           "sparse": ("backward_data", "backward_weights")}
PHASES = ("forward", "backward_data", "backward_weights")
STRIDED = [s for s in SMALL_SPECS if (s.sy, s.sx) != (1, 1)]
SPEC = ConvSpec(nc=3, ny=9, nx=8, nf=5, fy=3, fx=3)


def _call(engine, method, spec, rng, cast=lambda a: a):
    inputs, weights, err = random_conv_data(spec, rng, batch=3,
                                            error_sparsity=0.6)
    args = {"forward": (inputs, weights), "backward_data": (err, weights),
            "backward_weights": (err, inputs)}[method]
    args = tuple(cast(a) for a in args)
    got = getattr(engine, method)(*args)
    want = getattr(make_engine("reference", spec), method)(*args)
    return got, want


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@pytest.fixture
def no_compiler(monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    native._resolved.cache_clear()
    yield
    native._resolved.cache_clear()


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
@pytest.mark.parametrize("method", PHASES)
@pytest.mark.parametrize("engine_name", sorted(LOWERED))
def test_without_a_compiler_every_phase_is_the_references(
        no_compiler, engine_name, method, spec, rng):
    engine = make_engine(engine_name, spec)
    assert engine.lowering == "reference" and engine.artifact is None
    # The printer's own refusal comes first where it has one.
    printable = engine_name == "sparse" or (spec.sy, spec.sx) == (1, 1)
    assert ("no C compiler" if printable else "stride-1") \
        in engine.lowering_reason
    assert _same_bits(*_call(engine, method, spec, rng))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.describe())
@pytest.mark.parametrize("engine_name,method", [
    (name, method) for name in sorted(LOWERED) for method in PHASES
    if method not in LOWERED[name]])
def test_phases_no_unit_serves_are_the_references_on_every_host(
        engine_name, method, spec, rng):
    """Stencil BP and sparse FP, whatever the host can build."""
    engine = make_engine(engine_name, spec)
    assert _same_bits(*_call(engine, method, spec, rng))


@pytest.mark.parametrize("spec", STRIDED, ids=lambda s: s.describe())
def test_strided_stencil_fp_is_the_references_on_every_host(spec, rng):
    engine = make_engine("stencil", spec)
    assert engine.lowering == "reference"
    assert "stride-1" in engine.lowering_reason
    assert _same_bits(*_call(engine, "forward", spec, rng))


@pytest.mark.parametrize("cast", [
    lambda a: a.astype(np.float64),
    lambda a: np.asfortranarray(a) if a.ndim == 4 else a,
], ids=["float64", "not-c-contiguous"])
@pytest.mark.parametrize("engine_name,method", [
    (name, method) for name in sorted(LOWERED) for method in LOWERED[name]])
def test_foreign_operands_are_the_references_per_call(engine_name, method,
                                                      cast, rng):
    """Whatever the engine's lowering, operands the C kernels cannot read
    as they are take the reference for that call."""
    engine = make_engine(engine_name, SPEC)
    assert _same_bits(*_call(engine, method, SPEC, rng, cast))


def test_cropped_input_error_is_the_references_crop(no_compiler, rng):
    spec = ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3)
    _, weights, err = random_conv_data(spec, rng, batch=2)
    got = make_engine("sparse", spec).backward_data(err, weights, crop=1)
    want = make_engine("reference", spec).backward_data(err, weights, crop=1)
    assert got.shape == (2,) + spec.cropped_input_shape(1)
    assert _same_bits(got, want)
