"""Compile-on-first-use machinery for the native covering kernel.

The native kernel ships its match loop as a C source string
(:data:`repro.core.kernels.native.NATIVE_C_SOURCE`); this module turns
that string into a loadable shared library with whatever C compiler
the machine has, and caches the result on disk so every later process
— including the workers of a ``ProcessBackend`` sweep — pays a single
``dlopen`` instead of a compile.

Build-cache layout (``$REPRO_CACHE_DIR/native/``, default
``~/.cache/repro/native/``):

* ``native-<key>.so``   — the compiled library;
* ``native-<key>.json`` — a sidecar describing the build (compiler
  identifier, flags, source digest, OpenMP availability) for
  ``repro cache info``;
* ``native-<key>.lock`` — a transient exclusive-create lock file held
  only while a compile is in flight.

The cache key is the first 16 hex digits of SHA-256 over (source
text, compiler identifier, flags), so a source edit, a compiler
upgrade or a flag change each land in a fresh slot and stale ``.so``
files can never be loaded against the wrong source.

Concurrency follows the repo's marker-file idiom (see
``repro.parallel.chaos``): the first process to exclusively create the
``.lock`` file compiles; everyone else polls for the finished ``.so``
and warm-loads it — compile-once across any number of worker
processes.  The compiled artifact is published with ``os.replace`` so
a reader can never observe a half-written library.

The failure contract: a missing compiler, a failed compile or an
unloadable library raises :class:`NativeBuildError` (or, for a
*cached* corrupt ``.so``, discards the file with a warning and
rebuilds once) — :func:`repro.core.kernels.native.native_status`
turns that into "``native`` unavailable" so ``auto`` never selects it.
A missing toolchain can cost speed, never a run.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ...io_utils import atomic_write_json

__all__ = [
    "BUILD_FORMAT",
    "NativeBuildError",
    "build_key",
    "compile_cached",
    "describe_build_file",
    "find_compiler",
    "load_native_library",
    "native_build_dir",
]

BUILD_FORMAT = "repro-native-build"

# Probe order for the system C compiler; REPRO_NATIVE_CC overrides.
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

# Position-independent shared library, optimized; C99 for stdint.
_BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-std=c99")
# Feature-tested extras, in descending order of measured impact:
# -march=native lets the compiler vectorize the branch-free match
# loops for this machine's ISA (measured ~4-5x on the cover loop);
# -fopenmp fans the D axis across threads.  Either may be unsupported
# (e.g. -march=native on arm clang) — the build quietly drops it.
_MARCH_FLAG = "-march=native"
_OPENMP_FLAG = "-fopenmp"

# How long a waiter polls for a concurrent builder's .so before giving
# up, and the age past which an orphaned lock (builder killed mid
# compile) is broken.
_LOCK_TIMEOUT_SECONDS = 120.0
_LOCK_STALE_SECONDS = 300.0
_LOCK_POLL_SECONDS = 0.05


class NativeBuildError(RuntimeError):
    """The native kernel could not be built or loaded on this machine."""


def native_build_dir() -> Path:
    """``$REPRO_CACHE_DIR/native`` (default ``~/.cache/repro/native``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    base = Path(root) if root else Path.home() / ".cache" / "repro"
    return base / "native"


def find_compiler() -> tuple[str, str]:
    """(compiler path, compiler identifier) for this machine.

    ``REPRO_NATIVE_CC`` pins a specific compiler; otherwise the first
    of ``cc``/``gcc``/``clang`` on ``PATH`` wins.  The identifier (the
    first line of ``--version``, falling back to the basename) goes
    into the cache key so a toolchain upgrade invalidates old builds.
    Raises :class:`NativeBuildError` when nothing usable is found or
    ``REPRO_NATIVE_DISABLE`` is set.
    """
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        raise NativeBuildError("disabled via REPRO_NATIVE_DISABLE")
    override = os.environ.get("REPRO_NATIVE_CC")
    candidates = (override,) if override else _COMPILER_CANDIDATES
    for candidate in candidates:
        path = shutil.which(candidate)
        if path is not None:
            return path, _compiler_identifier(path)
    tried = ", ".join(candidates)
    raise NativeBuildError(f"no C compiler found (tried {tried})")


def _compiler_identifier(path: str) -> str:
    try:
        result = subprocess.run(
            [path, "--version"],
            capture_output=True,
            text=True,
            timeout=15,
        )
        first_line = (result.stdout or result.stderr).splitlines()
        if first_line:
            return first_line[0].strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return Path(path).name


def build_key(source: str, compiler_id: str, flags: tuple[str, ...]) -> str:
    """16-hex-digit cache key over (source, compiler, flags)."""
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update(b"\0" + compiler_id.encode())
    digest.update(b"\0" + " ".join(flags).encode())
    return digest.hexdigest()[:16]


def _supports_flag(compiler: str, flag: str, directory: Path) -> bool:
    """Feature-test one flag with a trivial compile (cold path only)."""
    with tempfile.TemporaryDirectory(dir=directory) as scratch:
        probe = Path(scratch) / "flag-probe.c"
        probe.write_text("int main(void) { return 0; }\n")
        try:
            result = subprocess.run(
                [compiler, flag, "-o", str(probe.with_suffix("")), str(probe)],
                capture_output=True,
                timeout=60,
            )
        except (OSError, subprocess.SubprocessError):
            return False
        return result.returncode == 0


def _candidate_flag_sets() -> tuple[tuple[str, ...], ...]:
    """Every flag set a cached build may exist under, best first."""
    return (
        (*_BASE_FLAGS, _MARCH_FLAG, _OPENMP_FLAG),
        (*_BASE_FLAGS, _MARCH_FLAG),
        (*_BASE_FLAGS, _OPENMP_FLAG),
        _BASE_FLAGS,
    )


def _acquire_lock(lock_path: Path, so_path: Path) -> int | None:
    """Exclusively create the compile lock, or wait the build out.

    Returns an open descriptor when this process holds the lock (it
    must compile), or ``None`` when a concurrent builder published the
    ``.so`` while we waited.  Stale locks from killed builders are
    broken after ``_LOCK_STALE_SECONDS``.
    """
    deadline = time.monotonic() + _LOCK_TIMEOUT_SECONDS
    while True:
        try:
            return os.open(str(lock_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if so_path.exists():
                return None
            try:
                age = time.time() - lock_path.stat().st_mtime
                if age > _LOCK_STALE_SECONDS:
                    lock_path.unlink(missing_ok=True)
                    continue
            except OSError:
                continue  # lock vanished between exists and stat
            if time.monotonic() > deadline:
                raise NativeBuildError(
                    f"timed out waiting for a concurrent build of {so_path.name}"
                ) from None
            time.sleep(_LOCK_POLL_SECONDS)


def compile_cached(
    source: str, directory: Path | None = None
) -> tuple[Path, bool]:
    """The compiled ``.so`` for ``source``, building it on a cache miss.

    Returns ``(path, compiled_now)`` — ``compiled_now`` is ``True``
    only in the process that actually ran the compiler, which is how
    the compile-once tests count builds across workers.  Raises
    :class:`NativeBuildError` when no compiler exists or the compile
    fails; the error message carries the compiler's stderr.
    """
    directory = Path(directory) if directory is not None else native_build_dir()
    compiler, compiler_id = find_compiler()
    # Warm path first: a hit under any candidate flag set loads with
    # zero subprocesses (feature tests run only on cold starts).
    for flags in _candidate_flag_sets():
        so_path = directory / f"native-{build_key(source, compiler_id, flags)}.so"
        if so_path.exists():
            return so_path, False
    directory.mkdir(parents=True, exist_ok=True)
    march = _supports_flag(compiler, _MARCH_FLAG, directory)
    openmp = _supports_flag(compiler, _OPENMP_FLAG, directory)
    flags = (
        *_BASE_FLAGS,
        *((_MARCH_FLAG,) if march else ()),
        *((_OPENMP_FLAG,) if openmp else ()),
    )
    key = build_key(source, compiler_id, flags)
    so_path = directory / f"native-{key}.so"
    lock_path = directory / f"native-{key}.lock"
    descriptor = _acquire_lock(lock_path, so_path)
    if descriptor is None:
        return so_path, False  # a concurrent builder finished it
    try:
        if so_path.exists():  # finished between the miss and the lock
            return so_path, False
        _compile(compiler, flags, source, so_path)
        atomic_write_json(
            directory / f"native-{key}.json",
            {
                "format": BUILD_FORMAT,
                "key": key,
                "compiler": compiler_id,
                "flags": list(flags),
                "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
                "source_bytes": len(source.encode()),
                "openmp": openmp,
                "march_native": march,
            },
        )
        return so_path, True
    finally:
        os.close(descriptor)
        lock_path.unlink(missing_ok=True)


def _compile(
    compiler: str, flags: tuple[str, ...], source: str, so_path: Path
) -> None:
    """Run one compile and publish the result atomically."""
    with tempfile.TemporaryDirectory(dir=so_path.parent) as scratch:
        c_path = Path(scratch) / "native.c"
        out_path = Path(scratch) / "native.so"
        c_path.write_text(source)
        command = [compiler, *flags, "-o", str(out_path), str(c_path)]
        try:
            result = subprocess.run(command, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as error:
            raise NativeBuildError(f"compile failed: {error}") from error
        if result.returncode != 0:
            detail = (result.stderr or result.stdout or "").strip()
            raise NativeBuildError(
                f"compile failed (exit {result.returncode}): {detail[:500]}"
            )
        # os.replace publishes a complete library or nothing; a lock
        # waiter polling for the .so can never dlopen a prefix.
        os.replace(out_path, so_path)


def load_native_library(
    source: str,
    symbols: tuple[str, ...],
    directory: Path | None = None,
    warn=None,
) -> ctypes.CDLL:
    """Compile (or warm-load) ``source`` and return it as a ``CDLL``.

    Every symbol in ``symbols`` must resolve.  A *cached* library that
    fails to load or lacks a symbol — truncated file, foreign
    architecture, stale ABI — is discarded with a ``warn`` message and
    rebuilt once: a corrupt cache costs a cold start, never a wrong
    result.  A freshly built library that fails the same checks raises
    :class:`NativeBuildError`.
    """
    if warn is None:
        warn = lambda message: print(message, file=sys.stderr)  # noqa: E731
    path, compiled_now = compile_cached(source, directory)
    try:
        return _load_checked(path, symbols)
    except NativeBuildError as error:
        if compiled_now:
            raise
        warn(f"discarding corrupt native kernel build {path.name}: {error}")
        path.unlink(missing_ok=True)
        path.with_suffix(".json").unlink(missing_ok=True)
    path, _ = compile_cached(source, directory)
    return _load_checked(path, symbols)


def _load_checked(path: Path, symbols: tuple[str, ...]) -> ctypes.CDLL:
    try:
        library = ctypes.CDLL(str(path))
    except OSError as error:
        raise NativeBuildError(f"cannot load {path.name}: {error}") from error
    for symbol in symbols:
        if not hasattr(library, symbol):
            raise NativeBuildError(f"{path.name} lacks symbol {symbol!r}")
    return library


def describe_build_file(path: Path) -> dict:
    """Metadata of one build-cache file (for ``repro cache``).

    ``.json`` sidecars decode to their build document; ``.so`` files
    report their sidecar's metadata when present.  Undecodable files
    return an ``{"error": ...}`` record instead of raising — the
    inspection tool must not crash on exactly the corrupt files it
    exists to find.
    """
    info: dict = {"file": path.name, "bytes": path.stat().st_size}
    sidecar = path if path.suffix == ".json" else path.with_suffix(".json")
    try:
        document = json.loads(sidecar.read_text())
        if not isinstance(document, dict) or document.get("format") != BUILD_FORMAT:
            info["error"] = "not a repro native-build sidecar"
            return info
        info.update(document)
    except OSError:
        info["error"] = "no build sidecar"
    except json.JSONDecodeError as error:
        info["error"] = f"unreadable sidecar ({error})"
    return info
