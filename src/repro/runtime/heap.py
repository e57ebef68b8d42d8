"""The process heap, pinned like the BLAS threads.

A training step allocates and frees a few dozen 1-4 MB arrays.  Under
glibc's defaults those sizes straddle the *dynamic* mmap and trim
thresholds, so the same step keeps mapping, faulting in and returning
the same pages (2515 minor faults, 5-7 ms of system time per
``cifar10_net`` step at batch 16).  :func:`pin_malloc_thresholds` --
called by every trainer and every spawned worker -- fixes both
thresholds above the step's working set, after which the heap reaches
its steady size in the first steps and stops faulting.  Off glibc it
does nothing.

Its own module so that an inline trainer pins the heap without loading
the process runtime (:mod:`repro.runtime.backends` and
``multiprocessing``).
"""

from __future__ import annotations

import ctypes

#: glibc ``mallopt`` parameters the runtime pins, ``name: (param, bytes)``.
#: Both, always: setting one switches glibc's dynamic adjustment off and
#: freezes the *other* at its 128 KiB default, which triples the faults.
#: 32 MiB is the largest mmap threshold glibc accepts on 64-bit.
MALLOC_THRESHOLDS = {"mmap": (-3, 32 << 20), "trim": (-1, 512 << 20)}

#: What :func:`pin_malloc_thresholds` did in this process (None: not yet).
_malloc_state: str | None = None


def pin_malloc_thresholds() -> str:
    """Fix glibc's mmap and trim thresholds for this process, once.

    Returns what this process's heap runs under, for the diagnostics:
    ``"mmap:32M,trim:512M"`` where glibc took both settings, ``"default"``
    where the C library is not glibc (or refused one).  Idempotent and
    safe to call from any thread: ``mallopt`` only changes how *later*
    frees and allocations are served.
    """
    global _malloc_state
    if _malloc_state is None:
        state = "default"
        try:
            libc = ctypes.CDLL(None)
            libc.gnu_get_libc_version  # AttributeError off glibc
            libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            libc.mallopt.restype = ctypes.c_int
            if all(libc.mallopt(param, size) == 1
                   for param, size in MALLOC_THRESHOLDS.values()):
                state = ",".join(
                    f"{name}:{size >> 20}M"
                    for name, (_, size) in MALLOC_THRESHOLDS.items())
        except (OSError, AttributeError, TypeError):
            pass  # no libc handle (TypeError: Windows), or not glibc
        _malloc_state = state
    return _malloc_state
