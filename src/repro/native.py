"""Build one C translation unit with the host's ``cc`` and load it.

The generated-kernel packages print C for a layer shape
(:mod:`repro.sparse.codegen_c`); this module turns that text into a
loaded ``ctypes`` library: find ``cc``, compile with
``-O3 -march=native -fPIC -shared`` into a per-user cache directory and
``ctypes``-load the result.  Stdlib only, and imported lazily by the one
engine that has a native lowering -- ``import repro`` does not reach it.

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
:class:`NativeBuildError`; callers keep their Python lowering.
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
from typing import Callable

from repro.errors import ReproError

#: Environment override for the cache directory (tests point it at a
#: tmpdir; deployments at wherever a build artefact may live).
CACHE_ENV = "REPRO_NATIVE_CACHE_DIR"

CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared")

_COMPILE_TIMEOUT_S = 120.0


class NativeBuildError(ReproError):
    """No loadable native unit could be produced for the request."""


@dataclass(frozen=True)
class NativeUnit:
    """A loaded translation unit.

    ``artifact`` names exactly what was loaded (source + compiler + CPU
    flags): two processes computing with the same ``artifact`` run the
    same machine code.
    """

    lib: ctypes.CDLL
    artifact: str


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


def load_unit(source: str, stem: str,
              verify: Callable[[ctypes.CDLL], None]) -> NativeUnit:
    """The loaded unit for ``source``, built first if the cache lacks it.

    ``verify`` is called on a *freshly built* library before it enters
    the cache and raises :class:`NativeBuildError` to reject it; a unit
    found in the cache passed it when it was built (on this host key).
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError("no C compiler (cc) on PATH")
    directory = _usable_cache(cache_dir())
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    artifact = f"{digest}-{host_key(compiler)}"
    path = directory / f"{stem}-{artifact}.so"
    if path.exists():
        return NativeUnit(_load(path), artifact)
    built = _compile(compiler, source, directory, stem)
    try:
        lib = _load(built)
        verify(lib)
        os.replace(built, path)
    except BaseException:
        built.unlink(missing_ok=True)
        raise
    return NativeUnit(lib, artifact)
