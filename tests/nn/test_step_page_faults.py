"""A training step must not keep faulting its own heap back in.

A ``cifar10_net`` step at batch 16 allocates and frees a few dozen
1-4 MB arrays.  Under glibc's default *dynamic* mmap/trim thresholds the
same pages are mapped, faulted in and returned every step on most
environment-block layouts (~2500 minor faults, 5-7 ms of system time;
held at their initial 128 KiB, on all of them); with the thresholds the
runtime pins
(:func:`repro.runtime.heap.pin_malloc_thresholds`) the heap reaches
its steady size during warm-up.  ``ru_minflt`` is a count, so this gate
is deterministic where a wall-clock assertion would not be.

The budget is per *steady-state* step, judged on the quietest
``WINDOW`` consecutive steps after warm-up: a heap that keeps faulting
fails every window, while the one-off extension a heap may still make
after warm-up (128 + 384 pages on some environment-block layouts) lands
in some windows only and cannot fail the gate on its own.

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

WARM_STEPS = WINDOW = 8
MEASURED_STEPS = 2 * WINDOW
FAULTS_PER_STEP = 64

_SCRIPT = f"""
import resource
import sys
import numpy as np
from repro.data.synthetic import cifar10_like
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net

if sys.argv[1] == "default-thresholds":
    # glibc's initial 128 KiB thresholds, held there (mallopt stops their
    # dynamic growth, which settles on its own on some layouts), and the
    # runtime's pin recorded as done: every large array is mapped and
    # returned each step -- the heap this gate is there to catch.
    import ctypes
    from repro.runtime import heap
    libc = ctypes.CDLL(None)
    for param, _ in heap.MALLOC_THRESHOLDS.values():
        assert libc.mallopt(param, 128 << 10) == 1
    heap._malloc_state = "default"
net = cifar10_net(rng=np.random.default_rng(3))
data = cifar10_like(64, seed=3)
trainer = SGDTrainer(net)
marks = []
for i in range({WARM_STEPS + MEASURED_STEPS}):
    if i >= {WARM_STEPS}:
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    lo = (i % 4) * 16
    result = trainer.step(data.images[lo:lo + 16], data.labels[lo:lo + 16])
    assert not result.skipped
marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(*(b - a for a, b in zip(marks, marks[1:])))
"""


def _step_faults(heap: str) -> list[int]:
    """Minor faults of each measured step, in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # One BLAS thread, as the host book runs: extra BLAS threads fault
    # in their own stacks and buffers, which is not what is gated here.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    done = subprocess.run([sys.executable, "-c", _SCRIPT, heap], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = [int(v) for v in done.stdout.split()]
    assert len(counts) == MEASURED_STEPS
    return counts


def steady_faults(counts: list[int]) -> int:
    """Faults of the quietest ``WINDOW`` consecutive steps."""
    return min(sum(counts[i:i + WINDOW])
               for i in range(len(counts) - WINDOW + 1))


def test_a_one_off_extension_cannot_fail_the_judge():
    extension = 128 + 384
    for at in range(MEASURED_STEPS):
        counts = [0] * MEASURED_STEPS
        counts[at] = extension
        assert steady_faults(counts) == 0
    assert steady_faults([FAULTS_PER_STEP + 1] * MEASURED_STEPS) \
        > FAULTS_PER_STEP * WINDOW


glibc_only = pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the malloc thresholds the runtime pins are glibc's")


@glibc_only
def test_steady_state_steps_take_no_page_faults():
    counts = _step_faults("pinned")
    assert steady_faults(counts) <= FAULTS_PER_STEP * WINDOW, (
        f"minor faults per step: {counts}")


@glibc_only
def test_the_gate_fails_a_heap_on_glibcs_default_thresholds():
    counts = _step_faults("default-thresholds")
    assert steady_faults(counts) > FAULTS_PER_STEP * WINDOW, (
        f"minor faults per step: {counts}")
