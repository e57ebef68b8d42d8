"""A training step must not keep faulting its own heap back in.

A ``cifar10_net`` step at batch 16 allocates and frees a few dozen
1-4 MB arrays.  Under glibc's default *dynamic* mmap/trim thresholds the
same pages are mapped, faulted in and returned every step (~2500 minor
faults, 5-7 ms of system time); with the thresholds the runtime pins
(:func:`repro.runtime.backends.pin_malloc_thresholds`) the heap reaches
its steady size during warm-up.  ``ru_minflt`` is a count, so this gate
is deterministic where a wall-clock assertion would not be.

The measurement runs in a fresh interpreter: the dynamic thresholds
depend on what a process freed before, and a long pytest session has
usually pushed them up already.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro

WARM_STEPS = MEASURED_STEPS = 8
FAULTS_PER_STEP = 64

_SCRIPT = f"""
import resource
import numpy as np
from repro.data.synthetic import cifar10_like
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net

net = cifar10_net(rng=np.random.default_rng(3))
data = cifar10_like(64, seed=3)
trainer = SGDTrainer(net)

def run(first, count):
    for i in range(first, first + count):
        lo = (i % 4) * 16
        result = trainer.step(data.images[lo:lo + 16], data.labels[lo:lo + 16])
        assert not result.skipped

run(0, {WARM_STEPS})
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run({WARM_STEPS}, {MEASURED_STEPS})
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the malloc thresholds the runtime pins are glibc's")
def test_steady_state_steps_take_no_page_faults():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # One BLAS thread, as the host book runs: extra BLAS threads fault
    # in their own stacks and buffers, which is not what is gated here.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    assert faults <= FAULTS_PER_STEP * MEASURED_STEPS, (
        f"{faults / MEASURED_STEPS:.0f} minor faults per step")
