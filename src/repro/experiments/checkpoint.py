"""Checkpoint/resume for experiment runs: journaled ``RunTask`` results.

A ``--budget paper`` table is hours of seeded EA runs; before this
module a crash or Ctrl-C at hour three discarded every completed run.
Now each finished :class:`~repro.core.optimizer.RunOutcome` is
journaled under ``REPRO_CACHE_DIR`` keyed by a **task fingerprint**,
and a ``--resume`` rerun serves journaled outcomes instead of
re-running the EA — producing byte-identical tables because the
journal stores exactly what the worker returned (the winning genome
and its exact rate; floats round-trip through JSON ``repr``).

The fingerprint is a SHA-256 over everything that determines a run's
result and *nothing else*:

* the semantic configuration — ``K``, ``L``, strategy, fill, run
  count and every EA parameter.  The covering kernel the fitness
  picked is not part of it: every kernel prices bit-identically, so
  a journal resumes on a machine that picks another one;
* the run index and the task's ``SeedSequence`` ``(entropy,
  spawn_key)`` — the spawn key encodes the task's position in the
  seed spawn tree, so reshaping a sweep cannot produce false hits;
* a digest of the block set (the circuit's actual bits), because
  different test sets are priced under identical configs and seeds.

Journals are per-label JSON-Lines files (one per table row or sweep),
rewritten through :func:`repro.io_utils.atomic_write_text` on every
record so a kill can never leave a truncated document; unreadable or
stale entries are skipped with a warning, never fatal.  Restored
:class:`~repro.ea.engine.EAResult` objects carry an empty
``history`` — per-generation traces are diagnostic-only and would
bloat the journal for no table-level benefit.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.blocks import block_table_digest
from ..core.config import CompressionConfig
from ..core.matching import MVSet
from ..core.optimizer import RunOutcome, RunTask
from ..ea.engine import EAResult
from ..io_utils import atomic_write_text
from ..parallel.retry import FaultToleranceStats

__all__ = [
    "default_checkpoint_root",
    "task_fingerprint",
    "encode_outcome",
    "decode_outcome",
    "RunJournal",
    "RunTaskCache",
    "CheckpointStore",
]

logger = logging.getLogger("repro.experiments.checkpoint")

FORMAT_VERSION = 1


def default_checkpoint_root() -> Path:
    """``$REPRO_CACHE_DIR/checkpoints`` (default ``~/.cache/repro``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    base = Path(root) if root else Path.home() / ".cache" / "repro"
    return base / "checkpoints"


# -- fingerprinting ----------------------------------------------------


def _semantic_config(config: CompressionConfig) -> dict[str, Any]:
    """The config fields that determine results — and nothing else.

    The inert ``kernel`` field is deliberately absent: every kernel
    produces bit-identical rates (the repo's parity tests pin this),
    so journals never depended on which one priced a run.
    """
    ea = config.ea
    return {
        "block_length": int(config.block_length),
        "n_vectors": int(config.n_vectors),
        "strategy": str(config.strategy.value),
        "fill_default": int(config.fill_default),
        "runs": int(config.runs),
        "ea": {
            "population_size": int(ea.population_size),
            "children_per_generation": int(ea.children_per_generation),
            "crossover_probability": float(ea.crossover_probability),
            "mutation_probability": float(ea.mutation_probability),
            "inversion_probability": float(ea.inversion_probability),
            "stagnation_limit": int(ea.stagnation_limit),
            "max_evaluations": (
                None if ea.max_evaluations is None else int(ea.max_evaluations)
            ),
            "max_generations": (
                None if ea.max_generations is None else int(ea.max_generations)
            ),
            "include_all_u": bool(ea.include_all_u),
            "seed_nine_c": bool(ea.seed_nine_c),
            "parent_selection": str(ea.parent_selection),
            "tournament_size": int(ea.tournament_size),
            "adaptive_operators": bool(ea.adaptive_operators),
        },
    }


def _seed_identity(sequence: np.random.SeedSequence) -> dict[str, Any]:
    entropy = sequence.entropy
    if entropy is None:
        parts: list[int] = []
    elif isinstance(entropy, (list, tuple)):
        parts = [int(part) for part in entropy]
    else:
        parts = [int(entropy)]
    # Entropy words can exceed 64 bits; stringify for exact JSON.
    return {
        "entropy": [str(part) for part in parts],
        "spawn_key": [int(key) for key in sequence.spawn_key],
    }


def task_fingerprint(task: RunTask) -> str:
    """Stable hex key naming exactly one seeded run's result."""
    payload = {
        "version": FORMAT_VERSION,
        "run_index": int(task.run_index),
        "config": _semantic_config(task.config),
        "seed": _seed_identity(task.seed_sequence),
        "blocks": block_table_digest(task.blocks),
    }
    serialized = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(serialized.encode()).hexdigest()


# -- outcome (de)serialization -----------------------------------------


def encode_outcome(outcome: RunOutcome) -> dict[str, Any]:
    """A :class:`RunOutcome` as plain JSON data (genome + exact rate)."""
    ea = outcome.ea_result
    return {
        "run_index": int(outcome.run_index),
        "rate": float(outcome.rate),
        "genome": [int(gene) for gene in np.asarray(ea.best_genome).ravel()],
        "ea": {
            "best_fitness": float(ea.best_fitness),
            "generations": int(ea.generations),
            "evaluations": int(ea.evaluations),
            "terminated_by": str(ea.terminated_by),
            "cache_hits": int(ea.cache_hits),
            "cache_hit_rate": float(ea.cache_hit_rate),
        },
    }


def decode_outcome(record: dict[str, Any], task: RunTask) -> RunOutcome:
    """Rebuild the exact :class:`RunOutcome` a worker once returned.

    The MV set is reconstructed from the journaled genome through the
    same ``MVSet.from_genome`` call :func:`execute_run_task` uses, so
    downstream re-pricing (the full-set Huffman pass in the runner)
    sees bit-identical inputs.  ``history`` is intentionally empty.
    Journals written before the MV cache was removed also carry
    ``mv_cache_*`` keys; they are ignored.
    """
    genome = np.asarray(record["genome"], dtype=np.int8)
    ea = record["ea"]
    ea_result = EAResult(
        best_genome=genome,
        best_fitness=float(ea["best_fitness"]),
        generations=int(ea["generations"]),
        evaluations=int(ea["evaluations"]),
        terminated_by=str(ea["terminated_by"]),
        history=(),
        cache_hits=int(ea["cache_hits"]),
        cache_hit_rate=float(ea["cache_hit_rate"]),
    )
    return RunOutcome(
        run_index=int(record["run_index"]),
        mv_set=MVSet.from_genome(genome, task.config.block_length),
        rate=float(record["rate"]),
        ea_result=ea_result,
    )


# -- the journal -------------------------------------------------------


@dataclass
class RunJournal:
    """Fingerprint → outcome records for one label (row/sweep), on disk.

    JSON-Lines; loaded tolerantly (corrupt or wrong-version lines are
    skipped with a warning — a half-written journal only ever costs
    re-running the affected task, never the resume).  Every
    :meth:`record` rewrites the file through
    :func:`~repro.io_utils.atomic_write_text`, so the on-disk journal
    is always a complete, parseable document.
    """

    path: Path
    _records: dict[str, dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def open(cls, path: Path) -> "RunJournal":
        journal = cls(path=Path(path))
        if not journal.path.exists():
            return journal
        try:
            text = journal.path.read_text()
        except OSError as error:
            logger.warning(
                "checkpoint journal %s unreadable (%s); starting fresh",
                journal.path, error,
            )
            return journal
        for line_number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                if entry.get("version") != FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported version {entry.get('version')!r}"
                    )
                fingerprint = entry["fingerprint"]
                outcome = entry["outcome"]
            except (ValueError, KeyError, TypeError) as error:
                logger.warning(
                    "skipping corrupt checkpoint entry %s:%d (%s)",
                    journal.path, line_number, error,
                )
                continue
            journal._records[fingerprint] = outcome
        return journal

    def __len__(self) -> int:
        return len(self._records)

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        return self._records.get(fingerprint)

    def record(self, fingerprint: str, outcome: dict[str, Any]) -> None:
        """Add (or refresh) one entry and persist the journal atomically."""
        self._records[fingerprint] = outcome
        lines = [
            json.dumps(
                {
                    "version": FORMAT_VERSION,
                    "fingerprint": key,
                    "outcome": value,
                },
                sort_keys=True,
            )
            for key, value in self._records.items()
        ]
        atomic_write_text(self.path, "\n".join(lines) + "\n")


@dataclass
class RunTaskCache:
    """The ``cache`` adapter :func:`repro.parallel.grouped_map` consumes.

    ``get(task)`` serves a journaled outcome (or ``None``), ``put``
    journals a fresh one.  Fingerprints are memoized per task object —
    tasks carry NumPy arrays and are unhashable, but within one map
    call the same object flows through ``get`` and ``put``.
    """

    journal: RunJournal
    stats: FaultToleranceStats | None = None
    hits: int = 0
    misses: int = 0
    _fingerprints: dict[int, str] = field(default_factory=dict)

    def _fingerprint(self, task: RunTask) -> str:
        key = id(task)
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            fingerprint = task_fingerprint(task)
            self._fingerprints[key] = fingerprint
        return fingerprint

    def get(self, task: Any) -> RunOutcome | None:
        if not isinstance(task, RunTask):
            return None
        record = self.journal.get(self._fingerprint(task))
        if record is None:
            self.misses += 1
            return None
        try:
            outcome = decode_outcome(record, task)
        except (ValueError, KeyError, TypeError) as error:
            logger.warning(
                "ignoring unusable checkpoint entry in %s (%s); re-running",
                self.journal.path, error,
            )
            self.misses += 1
            return None
        self.hits += 1
        if self.stats is not None:
            self.stats.resumed += 1
        return outcome

    def put(self, task: Any, outcome: Any) -> None:
        if not isinstance(task, RunTask) or not isinstance(outcome, RunOutcome):
            return
        self.journal.record(self._fingerprint(task), encode_outcome(outcome))


@dataclass(frozen=True)
class CheckpointStore:
    """Journal directory handle — small, picklable, safe to fan out.

    One journal file per label keeps concurrent row workers (table-level
    :class:`~repro.parallel.ProcessBackend` fan-out) from ever writing
    the same file: within a row, ``on_result`` fires from the row's own
    submitting thread, so journal writes are single-threaded.
    """

    root: Path

    @classmethod
    def default(cls) -> "CheckpointStore":
        return cls(root=default_checkpoint_root())

    def journal(self, label: str) -> RunJournal:
        digest = hashlib.sha256(label.encode()).hexdigest()[:12]
        printable = "".join(
            c if c.isalnum() or c in "-_." else "_" for c in label
        )
        return RunJournal.open(self.root / f"{printable[:40]}-{digest}.jsonl")

    def cache(
        self, label: str, stats: FaultToleranceStats | None = None
    ) -> RunTaskCache:
        """A grouped-map cache over this store's journal for ``label``."""
        return RunTaskCache(journal=self.journal(label), stats=stats)
