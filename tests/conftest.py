"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import shutil

# One BLAS thread in this process, set before numpy loads its BLAS: the
# runtime gives spawned workers one each, and process == thread == serial
# bit-identity holds only at equal BLAS thread counts (DESIGN.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from repro.core.convspec import ConvSpec


#: For cases that build native units; the fallback cases run everywhere.
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on this machine")


def solo_layers(network) -> list:
    """The layers of ``network`` a barrier step runs on their own, each
    with its own spans: all but the ReLU and max-pool of every
    ``conv -> ReLU -> max-pool`` run whose conv fuses them (the conv's
    span covers them then)."""
    fused = {index for start, (conv, _, pool) in network._runs.items()
             if conv.fused_artifact(pool) is not None
             for index in (start + 1, start + 2)}
    return [layer for index, layer in enumerate(network.layers)
            if index not in fused]


def fake_compiler(tmp_path, build_line: str) -> str:
    """A ``cc`` that answers ``--version`` and then runs ``build_line``
    (a shell line; ``$out`` is the ``-o`` operand)."""
    path = tmp_path / "cc"
    path.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "fake cc 1.0"; exit 0; fi\n'
        'while [ "$1" != "-o" ]; do shift; done; out="$2"\n'
        f"{build_line}\n")
    path.chmod(0o755)
    return str(path)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator, fresh per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session", autouse=True)
def _native_cache(tmp_path_factory):
    """Compiled kernel units go to a per-session directory, never to the
    user's cache (spawned workers inherit the variable)."""
    from repro.native import CACHE_ENV

    previous = os.environ.get(CACHE_ENV)
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("native-cache"))
    yield
    if previous is None:
        del os.environ[CACHE_ENV]
    else:
        os.environ[CACHE_ENV] = previous


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    """Empty the process-wide quarantine registry after every test.

    The registry is shared infrastructure by design; tests that bench an
    engine must not leak the quarantine into later tests.
    """
    yield
    from repro.resilience.quarantine import default_registry

    default_registry().clear()


def random_conv_data(
    spec: ConvSpec,
    rng: np.random.Generator,
    batch: int = 2,
    error_sparsity: float = 0.0,
):
    """Random (inputs, weights, out_error) batch matching ``spec``.

    ``spec`` must be pre-padded (pad=0) since the data feeds engines
    directly.  ``error_sparsity`` zeroes that fraction of the output
    error, for sparse-kernel tests.
    """
    inputs = rng.standard_normal((batch,) + spec.input_shape).astype(np.float32)
    weights = rng.standard_normal(spec.weight_shape).astype(np.float32)
    out_error = rng.standard_normal((batch,) + spec.output_shape).astype(np.float32)
    if error_sparsity > 0:
        mask = rng.random(out_error.shape) < error_sparsity
        out_error[mask] = 0.0
    return inputs, weights, out_error


#: A small but non-trivial set of convolution geometries exercising
#: non-square spatial dims, non-square kernels and non-unit strides.
SMALL_SPECS = [
    ConvSpec(nc=1, ny=6, nx=6, nf=1, fy=3, fx=3),
    ConvSpec(nc=3, ny=9, nx=8, nf=4, fy=2, fx=3),
    ConvSpec(nc=2, ny=11, nx=13, nf=5, fy=3, fx=3, sy=2, sx=2),
    ConvSpec(nc=4, ny=10, nx=7, nf=3, fy=4, fx=2, sy=1, sx=3),
    ConvSpec(nc=2, ny=8, nx=8, nf=6, fy=1, fx=1),
    ConvSpec(nc=3, ny=12, nx=12, nf=2, fy=5, fx=5, sy=2, sx=1),
]


def assert_close(got: np.ndarray, want: np.ndarray, atol: float = 1e-3,
                 rtol: float = 1e-4, label: str = ""):
    """Float32-appropriate array comparison with a readable failure."""
    np.testing.assert_allclose(got, want, atol=atol, rtol=rtol, err_msg=label)
