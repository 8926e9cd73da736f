"""Shared plumbing of the end-to-end benchmark: paths, environment, stats.

Every process the benchmark starts runs in the same hermetic
environment (:func:`hermetic_env`): one OpenMP/BLAS thread, a
benchmark-private ``REPRO_CACHE_DIR`` inside the checkout, no tuning
profile, the repo's ``src/`` on ``PYTHONPATH``.  One OpenMP thread is
both faster and about half as noisy as two on a 2-core machine, and a
private cache dir keeps a native-kernel compile (done once, before
any timed spawn) and any user tuning profile out of the numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CACHE_DIR = BUILD_DIR / "repro-cache"
RECORD_DIR = BUILD_DIR / "seed-records"

# Pinned for every child; REPRO_*, PYTHON* and thread variables
# inherited from the caller are dropped first so nothing outside the
# checkout leaks in.  Bytecode caching stays on, as for any installed
# program: the preflight writes the caches once, before any timed spawn.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
_DROPPED_PREFIXES = ("REPRO_", "PYTHON")
_DROPPED_SUFFIXES = ("_NUM_THREADS", "_MAXIMUM_THREADS")


def hermetic_env() -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(_DROPPED_PREFIXES)
        and not key.endswith(_DROPPED_SUFFIXES)
    }
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    return env


def reported_env() -> dict[str, str]:
    """The pinned part of :func:`hermetic_env`, paths made relative."""
    env = dict(PINNED_ENV)
    env["PYTHONPATH"] = "src"
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR.relative_to(ROOT))
    return env


def derive_seed(seed: int, *labels: object) -> int:
    """A 60-bit child seed of the workload seed, one per label path."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int(hashlib.sha256(text.encode()).hexdigest()[:15], 16)


def digest(payload: object) -> str:
    """Short SHA-256 of a JSON-serializable value (canonical form)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def p90(values: list[float]) -> float:
    """90th percentile (``statistics.quantiles`` exclusive method)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[8])


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux ru_maxrss)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(payload: dict) -> None:
    """Print the one-line JSON result a parent process parses."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def source_digest() -> str:
    """Digest of the program and benchmark sources in this checkout.

    Seed records (:func:`check_seed_record`) are keyed by it, so a
    record written by one version of the code is never compared with
    another version's results.
    """
    sha = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            sha.update(str(path.relative_to(ROOT)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def check_seed_record(
    workload: str, seed: int, size: str, digests: dict[str, str]
) -> list[str]:
    """Compare seed-pure digests with earlier runs of the same seed.

    The first run of a (workload, seed, size, source) stores its
    digests; every later run must reproduce each digest it shares with
    the record, and adds the ones it is first to see.  Returns the
    keys that differ.
    """
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    path = RECORD_DIR / f"{workload}-{size}-s{seed}-{source_digest()}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    mismatched = sorted(
        key for key, value in digests.items() if record.get(key, value) != value
    )
    if not mismatched:
        merged = {**record, **digests}
        if merged != record:
            temporary = path.with_suffix(f".{os.getpid()}.tmp")
            temporary.write_text(json.dumps(merged, sort_keys=True))
            os.replace(temporary, path)
    return mismatched
