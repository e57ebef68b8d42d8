"""The sanitizer lane: every zoo conv spec's C units under ASan + UBSan.

The compiled kernels "past the argument check trust their literals", so
the literals are put on trial: in a subprocess whose ``repro.native``
appends ``-fsanitize=address,undefined`` to :data:`repro.native.CFLAGS`
(the flag string is part of the artefact key, so instrumented units
never meet the ordinary ones), every zoo conv spec's sparse BP unit and,
for the stride-1 specs, its stencil FP unit and its fused units for the
2/2 and the overlapping 3/2 pool window are rebuilt -- which runs their
edge-position and bitwise-vs-chain self-checks, the sparse unit's pooled
export's among them -- and then driven through a seeded differential
against the reference engine (the fused ones forward and backward, as a
conv layer deploys them; behind the 2/2 window with sparse BP, whose
backward is the sparse unit's pooled export).  Every spec's GEMM
epilogue for both windows is rebuilt (its bitwise-vs-chain self-check)
and run forward and backward behind a GEMM FP engine, as a conv layer
deploys it.  The narrow convs (CIFAR's first, MNIST's) run dW in the
row order.  Any out-of-bounds access, misaligned or overflowing
operation aborts the subprocess.

Needs a ``cc`` that links the sanitizer runtimes and can say where
``libasan.so`` is (an instrumented unit loaded into an uninstrumented
interpreter wants it preloaded); skipped cleanly elsewhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import native

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def _libasan() -> str | None:
    """Path of the ASan runtime this host's ``cc`` links, if any."""
    compiler = native.find_compiler()
    if compiler is None:
        return None
    try:
        probe = subprocess.run(
            [compiler, *SANITIZE, "-shared", "-fPIC", "-x", "c", "-o",
             os.devnull, "-"], input="int f(int x) { return x + 1; }",
            capture_output=True, text=True, timeout=60, check=False)
        where = subprocess.run(
            [compiler, "-print-file-name=libasan.so"], capture_output=True,
            text=True, timeout=60, check=False).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    # An unresolved name comes back as it went in.
    if probe.returncode != 0 or not os.path.isabs(where) \
            or not os.path.exists(where):
        return None
    return where


LIBASAN = _libasan()
pytestmark = pytest.mark.skipif(
    LIBASAN is None, reason="cc cannot build or locate the sanitizer runtime")

_PRELUDE = f"""
import numpy as np
from repro import native
native.CFLAGS += {SANITIZE!r}
import repro.nn.layers.conv
from repro.ops.engine import make_engine
"""

_LANE = _PRELUDE + """
from repro import telemetry
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.pool import MaxPoolLayer
from repro.nn.zoo import alexnet_small, cifar10_net, imagenet100_net, mnist_net

rng = np.random.default_rng(0)
units = exports = rows = 0
epilogues = set()
for build in (mnist_net, cifar10_net, imagenet100_net, alexnet_small):
    for layer in build().conv_layers():
        spec = layer.padded_spec
        oracle = make_engine("reference", spec)
        x = rng.standard_normal((2,) + spec.input_shape).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        e = rng.standard_normal((2,) + spec.output_shape).astype(np.float32)
        e[rng.random(e.shape) < 0.8] = 0.0
        sparse = make_engine("sparse", spec)
        assert sparse.lowering == "c", sparse.lowering_reason
        for crop in (0, 1):
            np.testing.assert_allclose(
                sparse.backward_data(e, w, crop=crop),
                oracle.backward_data(e, w, crop=crop), atol=5e-3)
        np.testing.assert_allclose(sparse.backward_weights(e, x),
                                   oracle.backward_weights(e, x), atol=2e-2)
        units += 1
        if build in (mnist_net, cifar10_net) and spec.nc <= 3:
            assert "RV" in dict(sparse._native.unit.literals), spec
            rows += 1
        gemm = ConvLayer(spec, fp_engine="gemm-in-parallel")
        gemm.weights = w
        for kernel, stride in ((2, 2), (3, 2)):
            pool = MaxPoolLayer(kernel, stride)
            assert gemm.fused_unit(pool) is not None, (spec, kernel, stride)
            pooled = gemm.forward(x, pool=pool)
            assert gemm._pooled[0].takes_conv_output    # the epilogue ran
            gemm.backward(np.ones_like(pooled), pool=pool)
            epilogues.add(gemm.fused_artifact(pool))
        if (spec.sy, spec.sx) != (1, 1):
            continue
        stencil = make_engine("stencil", spec)
        assert stencil.lowering == "c", stencil.lowering_reason
        out = stencil.forward(x, w)
        np.testing.assert_allclose(out, oracle.forward(x, w), atol=5e-3)
        units += 1
        conv = ConvLayer(spec, fp_engine="stencil")
        conv.weights = w
        for kernel, stride in ((2, 2), (3, 2)):
            pool = MaxPoolLayer(kernel, stride)
            assert conv.fused_unit(pool) is not None, (spec, kernel, stride)
            pooled = conv.forward(x, pool=pool)
            assert conv._pooled[0] is not None          # it ran fused
            assert pooled.shape[2:] == pool.output_shape(spec.output_shape)[1:]
            assert np.isfinite(pooled).all() and (pooled >= 0).all()
            conv.backward(np.ones_like(pooled), pool=pool)
            units += 1
        conv.set_bp_engine("sparse")
        pool = MaxPoolLayer(2, 2)
        pooled = conv.forward(x, pool=pool)
        with telemetry.collect() as tel:
            conv.backward(rng.standard_normal(pooled.shape).astype(np.float32),
                          pool=pool)
        assert tel.spans[-1].attrs.get("fused") == "relu+pool", spec
        exports += 1
print("instrumented units:", units, "pooled exports:", exports,
      "row orders:", rows, "epilogues:", len(epilogues))
"""

_OVERFLOW = _PRELUDE + """
from repro.core.convspec import ConvSpec
from repro.stencil import emit_c

real = emit_c._block_function

def one_row_over(*args):
    name, lines = real(*args)
    return name, [line.replace("(out + ", "(out + OX + ") for line in lines]

emit_c._block_function = one_row_over
engine = make_engine("stencil", ConvSpec(nc=2, ny=8, nx=8, nf=3, fy=3, fx=3))
print("survived:", engine.lowering, engine.lowering_reason)
"""


def _run(script: str, tmp_path: Path) -> subprocess.CompletedProcess:
    source = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, LD_PRELOAD=LIBASAN, PYTHONPATH=str(source),
               ASAN_OPTIONS="detect_leaks=0",   # the interpreter's, not ours
               **{native.CACHE_ENV: str(tmp_path / "native-cache")})
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600,
                          check=False)


def test_lane_reports_a_planted_one_row_overflow(tmp_path):
    """The lane sees what it is there for: a block that stores one row
    past its array dies in the self-check, under ASan."""
    done = _run(_OVERFLOW, tmp_path)
    assert done.returncode != 0, done.stdout
    assert "AddressSanitizer" in done.stderr
    assert "survived" not in done.stdout


def test_every_zoo_unit_is_clean_under_the_sanitizers(tmp_path):
    done = _run(_LANE, tmp_path)
    assert done.returncode == 0, done.stderr[-3000:]
    assert "Sanitizer" not in done.stderr and "runtime error" not in done.stderr
    # 8 sparse units, and FP + two fused for the 6 stride-1 convs; the
    # pooled export behind each of those 6; dW's row order on 2 convs;
    # a GEMM epilogue per distinct conv output (8) and window (2).
    assert "instrumented units: 26 pooled exports: 6 row orders: 2 " \
        "epilogues: 16" in done.stdout
    built = list((tmp_path / "native-cache").glob("*.so"))
    assert len(built) == 26 + 16
