"""The persisted tuning profile: every hot-path threshold in one place.

PRs 1–4 made the fitness inner loop fast through *heuristics* — the
kernel auto-selection cutovers, the bitpack shard size, the Huffman
lockstep cutover — all calibrated on
one single-core container.  :class:`TuningProfile` turns those numbers
into data: a versioned JSON document under ``~/.cache/repro/`` (or an
explicit ``--profile PATH``) carrying a machine fingerprint (cpu
count, BLAS vendor, dtype timing signature) plus one field per
threshold.  ``repro tune`` measures them on the current machine
(:mod:`repro.tuning.probes`); consumers — ``select_kernel_name`` /
``resolve_kernel``, :class:`repro.core.fitness.BatchCompressionRateFitness`,
:class:`repro.core.kernels.BitpackKernel`, the Huffman batch pricer —
consult the profile *when one is set* and otherwise fall back to the
shipped measured defaults, so seeded output is byte-identical with or
without a profile (every threshold is semantically inert: it moves the
wall clock, never a result).

This module is import-light (stdlib + numpy only) so the core modules
can depend on it without cycles; the probes live separately in
:mod:`repro.tuning.probes`.
"""

from __future__ import annotations

import json
import os
import platform
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..io_utils import atomic_write_json

__all__ = [
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "MachineFingerprint",
    "ProfileLoadError",
    "TuningProfile",
    "current_fingerprint",
    "default_profile",
    "default_profile_path",
    "fingerprint_matches",
    "get_active_profile",
    "load_profile",
    "load_profile_or_none",
    "save_profile",
    "set_active_profile",
    "use_profile",
]

PROFILE_FORMAT = "repro-tuning-profile"
PROFILE_VERSION = 2


@dataclass(frozen=True)
class MachineFingerprint:
    """What the profile's numbers were measured on.

    ``cpu_count``, ``machine`` and ``blas_vendor`` gate profile reuse
    (:func:`fingerprint_matches` — a profile tuned on an AVX-512
    OpenBLAS box has nothing to say about an M-series Accelerate one);
    the dtype timing signature (``gemm_us``: one small float32 matrix
    product, ``bitand_us``: one uint64 AND sweep) is informational —
    wall-clock numbers are never compared across machines, only
    recorded so a human can judge how alike two runners really were.
    """

    cpu_count: int
    machine: str
    blas_vendor: str
    python: str
    numpy: str
    gemm_us: float = 0.0
    bitand_us: float = 0.0


@dataclass(frozen=True)
class TuningProfile:
    """Every measured threshold of the pricing hot path, as data.

    The field defaults ARE the shipped measured defaults — the same
    numbers the core modules fall back to when no profile is active —
    so ``TuningProfile()`` describes exactly the no-profile behavior.
    All thresholds are semantically inert: any values produce
    bit-identical results, only the wall clock moves.

    Kernel auto-selection (see ``repro.core.kernels``):

    * ``bitpack_min_distinct`` — distinct-block floor above which the
      fused-lane bitpack kernel beats GEMM for narrow blocks (2K bits
      in at most two uint64 words);
    * ``bitpack_wide_min_distinct`` — the same cutover for wide blocks
      (K > 64), where GEMM keeps its compute density longer;
    * ``native_min_distinct`` / ``native_wide_min_distinct`` —
      distinct-block floors above which the cc-compiled ``native``
      kernel takes precedence over both array kernels (narrow / wide
      lanes); only consulted when the native kernel is available on
      this machine, so a profile tuned with a compiler stays valid
      without one;
    * ``scalar_max_work`` — D·L ceiling under which a single uncached
      covering stays on the plain Python loop.

    Kernel internals:

    * ``bitpack_shard_size`` — distinct blocks per bitpack D-axis
      shard (``None`` keeps the kernel's cache-budget autosizing);
    * ``huffman_lockstep_min_rows`` — frequency-matrix row count at
      which the lockstep-vectorized two-queue merge overtakes the
      per-row scalar merge.
    """

    version: int = PROFILE_VERSION
    fingerprint: MachineFingerprint | None = None
    bitpack_min_distinct: int = 256
    bitpack_wide_min_distinct: int = 2048
    native_min_distinct: int = 1
    native_wide_min_distinct: int = 1
    scalar_max_work: int = 512
    bitpack_shard_size: int | None = None
    huffman_lockstep_min_rows: int = 96
    source: str = "builtin-defaults"
    created: str = ""
    probe_seconds: float = 0.0
    measurements: tuple[tuple[str, float], ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        positive = (
            "bitpack_min_distinct",
            "bitpack_wide_min_distinct",
            "native_min_distinct",
            "native_wide_min_distinct",
            "scalar_max_work",
            "huffman_lockstep_min_rows",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.bitpack_shard_size is not None and self.bitpack_shard_size < 1:
            raise ValueError(
                f"bitpack_shard_size must be >= 1 or None, "
                f"got {self.bitpack_shard_size}"
            )

    def with_updates(self, **changes) -> "TuningProfile":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -- (de)serialization --------------------------------------------

    _THRESHOLD_FIELDS = (
        "bitpack_min_distinct",
        "bitpack_wide_min_distinct",
        "native_min_distinct",
        "native_wide_min_distinct",
        "scalar_max_work",
        "bitpack_shard_size",
        "huffman_lockstep_min_rows",
    )

    def to_dict(self) -> dict:
        """The profile as the JSON document structure."""
        return {
            "format": PROFILE_FORMAT,
            "version": self.version,
            "source": self.source,
            "created": self.created,
            "probe_seconds": self.probe_seconds,
            "fingerprint": (
                asdict(self.fingerprint) if self.fingerprint else None
            ),
            "thresholds": {
                name: getattr(self, name) for name in self._THRESHOLD_FIELDS
            },
            "measurements": dict(self.measurements),
        }

    @classmethod
    def from_dict(cls, document: dict) -> "TuningProfile":
        """Parse the JSON document structure (no version gating here)."""
        thresholds = dict(document.get("thresholds", {}))
        known = {f.name for f in fields(cls)}
        unknown = set(thresholds) - known
        if unknown:
            raise ProfileLoadError(
                f"unknown threshold fields: {', '.join(sorted(unknown))}"
            )
        raw_fingerprint = document.get("fingerprint")
        fingerprint = (
            MachineFingerprint(**raw_fingerprint) if raw_fingerprint else None
        )
        measurements = tuple(
            sorted((str(k), float(v)) for k, v in
                   dict(document.get("measurements", {})).items())
        )
        return cls(
            version=int(document.get("version", -1)),
            fingerprint=fingerprint,
            source=str(document.get("source", "unknown")),
            created=str(document.get("created", "")),
            probe_seconds=float(document.get("probe_seconds", 0.0)),
            measurements=measurements,
            **thresholds,
        )


class ProfileLoadError(ValueError):
    """A tuning profile could not be loaded (missing/invalid/mismatched)."""


def _blas_vendor() -> str:
    """Best-effort BLAS vendor name from numpy's build info."""
    try:
        config = np.show_config(mode="dicts")
        return str(
            config["Build Dependencies"]["blas"].get("name", "unknown")
        )
    except Exception:
        return "unknown"


def current_fingerprint(
    gemm_us: float = 0.0, bitand_us: float = 0.0
) -> MachineFingerprint:
    """Fingerprint of this machine (timing signature optional)."""
    return MachineFingerprint(
        cpu_count=os.cpu_count() or 1,
        machine=platform.machine(),
        blas_vendor=_blas_vendor(),
        python=platform.python_version(),
        numpy=np.__version__,
        gemm_us=gemm_us,
        bitand_us=bitand_us,
    )


def fingerprint_matches(
    profile: MachineFingerprint | None, machine: MachineFingerprint
) -> bool:
    """Whether a profile's fingerprint is valid for ``machine``.

    Gates on the fields that change which thresholds are right —
    cpu count, architecture, BLAS vendor.  The timing signature and
    interpreter versions are informational: they vary run to run
    without invalidating the thresholds.
    """
    if profile is None:
        return False
    return (
        profile.cpu_count == machine.cpu_count
        and profile.machine == machine.machine
        and profile.blas_vendor == machine.blas_vendor
    )


def default_profile() -> TuningProfile:
    """The shipped defaults stamped with this machine's fingerprint."""
    return TuningProfile(fingerprint=current_fingerprint())


def default_profile_path() -> Path:
    """``$REPRO_CACHE_DIR/tuning_profile.json`` (default ``~/.cache/repro``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    base = Path(root) if root else Path.home() / ".cache" / "repro"
    return base / "tuning_profile.json"


def save_profile(profile: TuningProfile, path: Path | None = None) -> Path:
    """Write ``profile`` as JSON, creating parent directories.

    Goes through :func:`repro.io_utils.atomic_write_json` so a crash
    mid-save can never leave a truncated profile for the next run's
    loader to choke on.
    """
    path = Path(path) if path is not None else default_profile_path()
    return atomic_write_json(path, profile.to_dict())


def load_profile(path: Path | None = None, check_fingerprint: bool = True) -> TuningProfile:
    """Load and validate a profile; raise :class:`ProfileLoadError` if unusable.

    Rejects unreadable files, malformed JSON, wrong ``format`` tags,
    version mismatches, and (when ``check_fingerprint``) profiles
    measured on a different machine class — all with a reason a CLI
    can print before falling back to the shipped defaults.
    """
    path = Path(path) if path is not None else default_profile_path()
    try:
        document = json.loads(path.read_text())
    except OSError as error:
        raise ProfileLoadError(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ProfileLoadError(f"invalid JSON in {path}: {error}") from error
    if not isinstance(document, dict) or document.get("format") != PROFILE_FORMAT:
        raise ProfileLoadError(f"{path} is not a {PROFILE_FORMAT} document")
    if document.get("version") != PROFILE_VERSION:
        raise ProfileLoadError(
            f"{path} has profile version {document.get('version')!r}, "
            f"this build expects {PROFILE_VERSION} — re-run `repro tune`"
        )
    try:
        profile = TuningProfile.from_dict(document)
    except (TypeError, ValueError) as error:
        raise ProfileLoadError(f"{path} is malformed: {error}") from error
    if check_fingerprint:
        machine = current_fingerprint()
        if not fingerprint_matches(profile.fingerprint, machine):
            raise ProfileLoadError(
                f"{path} was tuned for a different machine "
                f"(profile: {profile.fingerprint}, "
                f"this machine: cpu_count={machine.cpu_count}, "
                f"machine={machine.machine!r}, "
                f"blas={machine.blas_vendor!r}) — re-run `repro tune`"
            )
    return profile


def load_profile_or_none(
    path: Path | None = None,
    check_fingerprint: bool = True,
    warn=None,
) -> TuningProfile | None:
    """:func:`load_profile` with mismatch-fallback instead of raising.

    Returns ``None`` (the caller keeps the shipped defaults) when the
    profile is missing, malformed, version-mismatched or tuned for a
    different machine; ``warn``, if given, receives the reason string.
    """
    try:
        return load_profile(path, check_fingerprint=check_fingerprint)
    except ProfileLoadError as error:
        if warn is not None:
            warn(str(error))
        return None


# -- the process-wide active profile ----------------------------------
#
# Consumers resolve thresholds as: explicit argument > active profile >
# shipped module defaults.  The active profile is how the CLI's
# `--profile` reaches code that never sees the argument parser (kernel
# auto-selection inside a fitness call, the bench harness); worker
# processes do NOT inherit it — anything crossing a ProcessBackend
# travels inside `CompressionConfig.tuning` instead.

_ACTIVE_PROFILE: TuningProfile | None = None


def set_active_profile(profile: TuningProfile | None) -> None:
    """Install (or with ``None`` clear) the process-wide profile."""
    global _ACTIVE_PROFILE
    _ACTIVE_PROFILE = profile


def get_active_profile() -> TuningProfile | None:
    """The process-wide profile, or ``None`` for shipped defaults."""
    return _ACTIVE_PROFILE


@contextmanager
def use_profile(profile: TuningProfile | None):
    """Temporarily install ``profile`` as the active one (tests, benches)."""
    previous = get_active_profile()
    set_active_profile(profile)
    try:
        yield profile
    finally:
        set_active_profile(previous)
