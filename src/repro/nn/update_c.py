"""The SGD momentum update of one float32 parameter as one C pass.

:meth:`repro.nn.sgd.SGDTrainer._update` runs numpy's chain
(:func:`repro.nn.sgd.momentum_chain`) once per parameter: four
elementwise calls and a parameter-sized scratch, ten passes over
memory.  This unit does the same four operations per element in one
pass -- read gradient, velocity and parameter once, write velocity and
parameter once -- and must return the chain's bits:

* every operation is the chain's, in its order, each rounded to float32
  on its own.  The repo's :data:`repro.native.CFLAGS` let gcc contract
  ``v * m - s`` into one FMA (which changes 27% of the velocities of
  a random draw), so the text opens with :data:`NO_CONTRACTION`; a compiler
  that ignores it builds a unit the self-check rejects;
* the gradient is read as ``g + 0.0f``, as the chain reads it: ``-0.0``
  becomes ``+0.0``, every other value stays, so a gradient written
  fresh by a BLAS call updates exactly as one accumulated into a zeroed
  buffer would.

It is built, cached and self-checked through :mod:`repro.native`, and
loaded only by the process that runs an update (the trainer resolves it
at its first one): shard workers never map it.  ``repro check``
(:func:`repro.check.gen_source.verify_update_unit`) reads the pragma and
the operations' order back out of the text.
"""

from __future__ import annotations

import ctypes
import functools
import weakref
from typing import Any

import numpy as np

from repro.native import CUnit, Kernels, NativeBuildError, load_kernels

#: The line that keeps each ``*`` / ``-`` / ``+`` of the loop its own
#: rounding whatever the command line says.
NO_CONTRACTION = '#pragma GCC optimize ("fp-contract=off")'

#: The loop body: :func:`repro.nn.sgd.momentum_chain`'s operations in
#: its order, one statement each.
STEP_STATEMENTS = (
    "float scaled = (g[i] + 0.0f) * lr;",
    "float v = vel[i] * momentum;",
    "v = v - scaled;",
    "vel[i] = v;",
    "param[i] = param[i] + v;",
)

UNIT_NAME = "sgd_update"


@functools.lru_cache(maxsize=1)
def emit_update_c_unit() -> CUnit:
    """The unit's text: one exported loop, ``sgd_update_step(param, vel,
    g, n, lr, momentum)`` over ``n`` contiguous floats."""
    lines = [
        "/* Generated SGD momentum update of one float32 parameter: "
        "numpy's chain",
        "   scaled = g * lr; vel *= momentum; vel -= scaled; "
        "param += vel",
        "   in one pass, one rounding per operation. */",
        NO_CONTRACTION,
        "#include <stdint.h>",
        "",
        f"void {UNIT_NAME}_step(float *restrict param, "
        "float *restrict vel,",
        "        const float *restrict g, int64_t n, float lr, "
        "float momentum)",
        "{",
        "    for (int64_t i = 0; i < n; i++) {",
        *(f"        {statement}" for statement in STEP_STATEMENTS),
        "    }",
        "}",
        "",
    ]
    return CUnit(name=UNIT_NAME, source="\n".join(lines), literals=(),
                 kernels=(), helpers=("step",))


class NativeUpdateKernels(Kernels):
    """The loaded update unit."""

    EXPORTS = {"step": "pppiff"}

    def __init__(self, spec: None, unit: CUnit, lib: ctypes.CDLL,
                 artifact: str) -> None:
        super().__init__(spec, unit, lib, artifact)
        self._step = self._functions["step"]
        # id(param) -> weak references to the (param, vel, grad) last
        # seen with it and their call arguments (None: not the unit's).
        # A step updates the same arrays as the one before, and reading
        # three data pointers costs more than the call.
        self._bound: dict[int, tuple[Any, ...]] = {}

    def update(self, param: np.ndarray, vel: np.ndarray, grad: np.ndarray,
               lr: float, momentum: float) -> bool:
        """:func:`repro.nn.sgd.momentum_chain` in place, with ``lr`` and
        ``momentum`` rounded to float32 as numpy rounds a Python float;
        ``False`` (nothing done) unless all three arrays are C-contiguous
        float32 of one shape."""
        key = id(param)
        bound = self._bound.get(key)
        if bound is None or bound[0]() is not param \
                or bound[1]() is not vel or bound[2]() is not grad:
            fits = all(a.dtype == np.float32 and a.flags.c_contiguous
                       and a.shape == param.shape for a in (param, vel, grad))
            bound = self._bound[key] = (
                weakref.ref(param, lambda _: self._bound.pop(key, None)),
                weakref.ref(vel), weakref.ref(grad),
                (param.ctypes.data, vel.ctypes.data, grad.ctypes.data,
                 param.size) if fits else None)
        if bound[3] is None:
            return False
        self._step(*bound[3], lr, momentum)
        return True


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bit for bit, except that a NaN need only be a NaN where the
    other is one (its payload is the CPU's choice)."""
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)) and \
        got[~nan].tobytes() == want[~nan].tobytes()


#: Values the self-check plants among random ones: signed zeros,
#: denormals (the smallest of which a momentum below 0.5 rounds to a
#: signed zero), infinities and a NaN.
SPECIAL = np.array([0.0, -0.0, 1e-42, -1e-42, 1e-45, -1e-45, np.inf,
                    -np.inf, np.nan], dtype=np.float32)


def update_cases(n: int = 4099, seed: int = 0
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float,
                                 float]]:
    """``(param, velocity, gradient, lr, momentum)`` cases the unit must
    update as the chain does, one per momentum 0, 0.3 and 0.9: random
    values of a trained net's scale, led by every triple of
    :data:`SPECIAL` values and with specials planted at co-prime strides
    further on (among random values); ``n`` is no multiple of a vector,
    so the loop's tail runs."""
    rng = np.random.default_rng(seed)
    triples = np.stack(np.meshgrid(SPECIAL, SPECIAL, SPECIAL,
                                   indexing="ij")).reshape(3, -1)
    cases = []
    for momentum in (0.0, 0.3, 0.9):
        param, vel, grad = (
            (rng.standard_normal(n) * scale).astype(np.float32)
            for scale in (0.1, 1e-3, 1.0))
        for row, (array, stride) in enumerate(((grad, 5), (vel, 7),
                                               (param, 11))):
            picks = array[triples.shape[1] + row::stride]
            picks[:] = np.resize(SPECIAL, picks.size)
            array[:triples.shape[1]] = triples[row]
        cases.append((param, vel, grad, 0.01, momentum))
    return cases


def _self_check(kernels: NativeUpdateKernels) -> None:
    """The unit against the chain on :func:`update_cases`, bit for bit
    (NaNs by position), parameters and velocities both."""
    from repro.nn.sgd import momentum_chain

    for param, vel, grad, lr, momentum in update_cases():
        want_p, want_v = param.copy(), vel.copy()
        with np.errstate(all="ignore"):     # the planted infinities
            momentum_chain(want_p, want_v, grad, lr, momentum,
                           np.empty_like(grad))
        got_p, got_v = param.copy(), vel.copy()
        kernels.update(got_p, got_v, grad, lr, momentum)
        for what, got, want in (("parameters", got_p, want_p),
                                ("velocities", got_v, want_v)):
            if not same_bits(got, want):
                raise NativeBuildError(
                    f"native SGD update (momentum {momentum}) disagrees "
                    f"with its chain on the {what}")


def load_update_kernels() -> NativeUpdateKernels:
    """Build or fetch, self-check and load the update unit."""
    return load_kernels(NativeUpdateKernels, None, emit_update_c_unit(),
                        _self_check)
