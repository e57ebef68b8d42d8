"""Build one C translation unit with the host's ``cc`` and load it.

The generated-kernel packages print C for a layer shape
(:mod:`repro.sparse.codegen_c`, :mod:`repro.stencil.emit_c`); this
module turns that text into a loaded ``ctypes`` library: find ``cc``,
compile with :data:`CFLAGS` into a per-user cache directory and
``ctypes``-load the result.  It also holds what the native families
share: what a printer hands over (:class:`CUnit`), the wrapper guarding
each foreign call (:class:`Kernels`), the build-time check's verdict
(:func:`check_agrees`) and the per-process memo (:func:`kernels_for`).
Imported lazily by what has a native lowering -- ``import repro`` does
not reach it.

The cache
---------
``$REPRO_NATIVE_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro-native``
(``~/.cache/repro-native``).  It is created ``0700`` and refused when it
is not a directory owned by the caller that group and others cannot
write: a ``.so`` found there is executed.  An artefact is named by the
hash of its source *and* of the host -- compiler version plus CPU flag
set -- because ``-march=native`` output is only valid on the CPU that
built it; a home directory shared between machines therefore never
serves one machine's build to another.  Files appear by write-to-temp +
``os.replace``, and only after the caller's ``verify`` accepted the
loaded temp, so a reader never sees a half-written or unverified unit.

Every failure -- no compiler, a compiler that exits non-zero, an
unloadable file, a refused directory, a failed verification -- is a
:class:`NativeBuildError`; the engines then serve every call with
:mod:`repro.ops.reference`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.errors import ReproError, ShapeError
from repro.ops.workspace import Workspace

#: Environment override for the cache directory (tests point it at a
#: tmpdir; deployments at wherever a build artefact may live).
CACHE_ENV = "REPRO_NATIVE_CACHE_DIR"

#: Part of every artefact key.  ``-ffp-contract=fast`` states what gcc's
#: GNU-C mode does anyway (``a * b + c`` becomes one FMA where the CPU
#: has it) because clang's default differs: the summation's rounding is
#: decided by this line, not by the compiler's mood.
CFLAGS = ("-O3", "-march=native", "-ffp-contract=fast", "-fPIC", "-shared",
          "-Wall", "-Wextra", "-Werror")

#: Largest |native - reference| a build-time self-check accepts, as a
#: share of the reference result's largest magnitude: float32 sums of
#: thousands of terms in two orders differ by ~1e-6 of it, an indexing
#: bug by ~1.
SELF_CHECK_RTOL = 1e-4

_COMPILE_TIMEOUT_S = 120.0


class NativeBuildError(ReproError):
    """No loadable native unit could be produced for the request."""


def find_compiler() -> str | None:
    """Path of the host's ``cc``, or ``None``."""
    return shutil.which("cc")


def cache_dir() -> Path:
    """Where built units live (not created here)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-native"


def cpu_flags() -> str:
    """What ``-march=native`` keys on: the CPU's feature flags."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return " ".join(sorted(line.partition(":")[2].split()))
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


@functools.lru_cache(maxsize=8)
def _compiler_version(compiler: str) -> str:
    try:
        done = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=_COMPILE_TIMEOUT_S, check=False)
    except (OSError, subprocess.SubprocessError) as error:
        raise NativeBuildError(f"{compiler} --version failed: {error}") from error
    if done.returncode != 0:
        raise NativeBuildError(
            f"{compiler} --version exited {done.returncode}")
    return done.stdout.strip()


def host_key(compiler: str) -> str:
    """Hash of everything but the source that decides the machine code."""
    text = "\n".join((_compiler_version(compiler), " ".join(CFLAGS),
                      cpu_flags()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _usable_cache(directory: Path) -> Path:
    """``directory``, created 0700 if missing; refused unless it is the
    caller's own and closed to group/other writes."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError as error:
        raise NativeBuildError(
            f"native cache {directory} is unusable: {error}") from error
    if not stat.S_ISDIR(info.st_mode):
        raise NativeBuildError(f"native cache {directory} is not a directory")
    if hasattr(os, "getuid") and info.st_uid != os.getuid():
        raise NativeBuildError(
            f"native cache {directory} belongs to uid {info.st_uid}, "
            f"not to the caller")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise NativeBuildError(
            f"native cache {directory} is writable by group or others")
    return directory


def _compile(compiler: str, source: str, directory: Path, stem: str) -> Path:
    """Compile ``source`` to a fresh temp ``.so`` inside ``directory``."""
    fd, name = tempfile.mkstemp(prefix=f".{stem}-", suffix=".c",
                                dir=directory)
    c_path = Path(name)
    so_path = c_path.with_suffix(".so")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(source)
        done = subprocess.run(
            [compiler, *CFLAGS, "-o", str(so_path), str(c_path)],
            capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S,
            check=False)
    except (OSError, subprocess.SubprocessError) as error:
        so_path.unlink(missing_ok=True)     # a timed-out compile's stub
        raise NativeBuildError(f"{compiler} could not run: {error}") from error
    finally:
        c_path.unlink(missing_ok=True)
    if done.returncode != 0 or not so_path.exists():
        so_path.unlink(missing_ok=True)
        raise NativeBuildError(
            f"{compiler} exited {done.returncode}: "
            f"{done.stderr.strip()[-400:]}")
    return so_path


def _load(path: Path) -> ctypes.CDLL:
    try:
        return ctypes.CDLL(str(path))
    except OSError as error:
        raise NativeBuildError(f"cannot load {path}: {error}") from error


# -- what the native families share ------------------------------------------

def vector_registers() -> tuple[int, int]:
    """``(vector registers, floats per vector)`` of this host's CPU, read
    off the flags the artefact key hashes."""
    flags = cpu_flags().split()
    if "avx512f" in flags:
        return 32, 16
    return (16, 8) if "avx" in flags else (16, 4)


@dataclass(frozen=True)
class KernelFacts:
    """What a printer says it emitted for one exported kernel; ``repro
    check`` recomputes each fact from the nest it was printed from."""

    symbol: str
    #: Kernel taps in the order one output element accumulates them.
    taps: tuple[tuple[int, int], ...]
    #: Per tap, in that order, what the kernel indexes with: the tap's
    #: place in an ``[Fy, Fx]`` weight plane, and the float offset of its
    #: shifted origin in the image the taps walk over.
    tap_w: tuple[int, ...]
    tap_off: tuple[int, ...]
    #: ``(start, extent)`` per output dim of every block written.
    blocks: tuple[tuple[tuple[int, int], ...], ...]

    def table_lines(self) -> list[str]:
        """The two tap tables, as the C lines ``repro check`` reads back."""
        return [f"static const int {self.symbol.upper()}_{name}[NT] = {{"
                + ", ".join(str(v) for v in values) + "};"
                for name, values in (("TAP_W", self.tap_w),
                                     ("TAP_OFF", self.tap_off))]


@dataclass(frozen=True)
class CUnit:
    """One C translation unit and the facts it was printed from."""

    name: str
    source: str
    #: ``#define`` name -> value, exactly as emitted.  ``<S>_OFF`` /
    #: ``<S>_FLOATS`` pairs place the sections of the caller's scratch.
    literals: tuple[tuple[str, int], ...]
    kernels: tuple[KernelFacts, ...]
    #: Exported functions that walk no taps (the fused unit's backward
    #: scatter), beside one per entry of ``kernels``.
    helpers: tuple[str, ...] = ()

    @property
    def exports(self) -> tuple[str, ...]:
        """The symbol suffix of every exported function."""
        return tuple(k.symbol for k in self.kernels) + self.helpers

    def literal(self, name: str) -> int:
        return dict(self.literals)[name]

    @property
    def scratch_floats(self) -> int:
        """Capacity the caller's scratch must have, in floats."""
        return self.literal("SCRATCH_FLOATS")


def require(role: str, array: Any, shape: tuple[int, ...],
            dtype: type = np.float32) -> None:
    """Refuse anything the C side would misread."""
    if not isinstance(array, np.ndarray) or array.dtype != dtype \
            or not array.flags.c_contiguous or tuple(array.shape) != shape:
        raise ShapeError(
            f"native kernel needs {role} as a C-contiguous "
            f"{np.dtype(dtype).name} array of shape {shape}, got "
            f"{getattr(array, 'dtype', type(array))} "
            f"{getattr(array, 'shape', '')}")


class Kernels:
    """The exported kernels of one loaded unit, callable on numpy arrays.

    Subclasses name what units may export in :attr:`EXPORTS` (symbol
    suffix -> argument codes, ``p`` pointer, ``i`` ``int64``) and check
    shape, dtype, contiguity and scratch capacity with :func:`require`
    before every :meth:`call`: past it the C side trusts its literals.
    """

    EXPORTS: dict[str, str] = {}

    def __init__(self, spec: Any, unit: CUnit, lib: ctypes.CDLL,
                 artifact: str) -> None:
        self.spec = spec
        self.unit = unit
        #: Names the loaded machine code (source + compiler + CPU flags).
        self.artifact = artifact
        codes = {"p": ctypes.c_void_p, "i": ctypes.c_int64}
        self._functions = {}
        for suffix in unit.exports:
            try:
                function = getattr(lib, f"{unit.name}_{suffix}")
            except AttributeError as error:
                raise NativeBuildError(
                    f"loaded unit does not export {unit.name}_{suffix}"
                ) from error
            function.argtypes = [codes[c] for c in self.EXPORTS[suffix]]
            function.restype = None
            self._functions[suffix] = function

    def scratch(self, workspace: Workspace) -> np.ndarray:
        """The (reused) working memory the kernels run in."""
        return workspace.zeroed_once(
            "native/scratch", (self.unit.scratch_floats,), np.float32)

    def call(self, suffix: str, *arguments: Any) -> None:
        self._functions[suffix](*(
            a.ctypes.data if isinstance(a, np.ndarray) else a
            for a in arguments))


def check_agrees(what: str, got: np.ndarray, want: np.ndarray,
                 exact: bool = False) -> None:
    """The build-time differential check's verdict on one result:
    within :data:`SELF_CHECK_RTOL` of :mod:`repro.ops.reference`'s, or
    -- for two native kernels that promise equal bits -- ``exact``."""
    scale = float(np.abs(want).max(initial=0.0)) or 1.0
    if got.shape != want.shape or not (
            np.abs(got - want).max(initial=0.0)
            <= (0.0 if exact else SELF_CHECK_RTOL * scale)):
        raise NativeBuildError(
            f"native {what} disagrees with "
            f"{'its chain' if exact else 'the reference'}")


def load_kernels(wrapper: type[Kernels], spec: Any, unit: CUnit,
                 verify: Callable[[Any], None]) -> Kernels:
    """``unit`` loaded as a ``wrapper``, built first if the cache lacks it.

    ``verify`` is called on a *freshly built* unit before it enters the
    cache and raises :class:`NativeBuildError` to reject it; a unit
    found in the cache passed it when it was built (on this host key).
    The wrapper's ``artifact`` names exactly what was loaded (source +
    compiler + flags + CPU flags): two processes computing with the
    same artefact run the same machine code.
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError("no C compiler (cc) on PATH")
    directory = _usable_cache(cache_dir())
    digest = hashlib.sha256(unit.source.encode()).hexdigest()[:16]
    artifact = f"{digest}-{host_key(compiler)}"
    path = directory / f"{unit.name}-{artifact}.so"
    if path.exists():
        return wrapper(spec, unit, _load(path), artifact)
    built = _compile(compiler, unit.source, directory, unit.name)
    try:
        lib = _load(built)
        verify(wrapper(spec, unit, lib, "unverified"))
        os.replace(built, path)
    except BaseException:
        built.unlink(missing_ok=True)
        raise
    return wrapper(spec, unit, lib, artifact)


@functools.lru_cache(maxsize=512)
def _resolved(loader: Callable[..., Kernels], key: tuple[Any, ...],
              directory: str, compiler: str | None
              ) -> tuple[Kernels | None, str]:
    try:
        return loader(*key), ""
    except ReproError as error:  # NativeBuildError, CodegenError
        return None, f"{type(error).__name__}: {error}"


def kernels_for(loader: Callable[..., Kernels],
                *key: Any) -> tuple[Kernels | None, str]:
    """``(loader(*key), "")`` or ``(None, why not)`` -- once per process,
    and per cache directory and compiler found: a failed build is not
    retried by every engine the tuner constructs, a changed environment
    is."""
    return _resolved(loader, key, str(cache_dir()), find_compiler())
