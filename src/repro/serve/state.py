"""Warm-state registry: block tables and warm fitness engines.

The registry is the daemon's memory across requests.  Everything is
keyed by the **block-table digest** (:func:`block_table_digest` —
SHA-256 over K and the distinct-block arrays), so two uploads of the
same patterns land on the same warm state and two different tables can
never cross-contaminate.

Per table the registry holds:

* the prepared :class:`~repro.core.blocks.BlockSet` itself;
* warm :class:`~repro.core.fitness.BatchCompressionRateFitness`
  engines, one per ``(L, K, strategy, kernel)`` shape, with the block
  table already prepared in the kernel's native layout.  Engines are
  *not* thread-safe, so each is driven only by the coalescer's single
  dispatcher thread (or the offline runner's single thread).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from ..core.blocks import BlockSet
from ..core.encoding import EncodingStrategy
from ..core.fitness import BatchCompressionRateFitness
from ..tuning.profile import TuningProfile

__all__ = ["FitnessKey", "TableEntry", "WarmRegistry", "block_table_digest"]


def block_table_digest(blocks) -> str:
    """SHA-256 content digest of a block set (dtype/shape-qualified).

    The same recipe the checkpoint journal uses for its run
    fingerprints: K and original bit count, then every distinct-table
    array with its dtype and shape, so two tables collide only if they
    are byte-identical in every semantic respect.
    """
    digest = hashlib.sha256()
    digest.update(
        f"K={blocks.block_length};bits={blocks.original_bits};".encode()
    )
    for name in ("ones", "zeros", "counts", "sequence"):
        array = np.ascontiguousarray(getattr(blocks, name))
        digest.update(f"{name}:{array.dtype}:{array.shape}:".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()



@dataclass(frozen=True)
class FitnessKey:
    """The shape under which a warm fitness engine is reusable.

    Digest pins the block table; the remaining fields are everything
    :class:`BatchCompressionRateFitness` construction depends on.
    Requests with equal keys coalesce into the same engine (and hence
    the same ``evaluate_batch`` call); unequal keys never share an
    engine, which is what makes mixed-digest batches impossible by
    construction.
    """

    digest: str
    n_vectors: int
    block_length: int
    strategy: EncodingStrategy
    kernel: str


class TableEntry:
    """One registered block table and its warm state."""

    def __init__(
        self,
        blocks: BlockSet,
        digest: str,
        name: str,
    ) -> None:
        self.blocks = blocks
        self.digest = digest
        self.name = name
        self.engines: dict[FitnessKey, BatchCompressionRateFitness] = {}
        self.compress_requests = 0
        self.fitness_requests = 0

    def describe(self) -> dict:
        """The `/tables` registration response payload (seed-pure)."""
        return {
            "digest": self.digest,
            "name": self.name,
            "block_length": self.blocks.block_length,
            "n_blocks": int(self.blocks.n_blocks),
            "n_distinct": int(self.blocks.n_distinct),
            "original_bits": int(self.blocks.original_bits),
        }


class WarmRegistry:
    """Digest-keyed warm state shared by every request of the daemon."""

    def __init__(self, tuning: TuningProfile | None = None) -> None:
        self._lock = threading.RLock()
        self._tables: dict[str, TableEntry] = {}
        self._tuning = tuning

    @property
    def tuning(self) -> TuningProfile | None:
        """The tuning profile every served engine runs with."""
        return self._tuning

    def register(self, blocks: BlockSet, name: str = "") -> TableEntry:
        """Register (or re-find) a block table; returns its entry.

        Idempotent by digest: re-registering the same table returns
        the existing entry with all its warm state intact.
        """
        digest = block_table_digest(blocks)
        with self._lock:
            entry = self._tables.get(digest)
            if entry is None:
                entry = TableEntry(blocks, digest, name)
                self._tables[digest] = entry
            return entry

    def get(self, digest: str) -> TableEntry | None:
        """The entry registered under ``digest``, or ``None``."""
        with self._lock:
            return self._tables.get(digest)

    def digests(self) -> list[str]:
        """Registered digests, sorted (stable for `/stats`)."""
        with self._lock:
            return sorted(self._tables)

    def engine_for(self, key: FitnessKey) -> BatchCompressionRateFitness:
        """The warm fitness engine for ``key``, built on first use.

        The returned engine is single-caller: the coalescer's
        dispatcher thread is the only driver in the daemon (the offline
        runner has only one thread to begin with).
        """
        with self._lock:
            entry = self._tables.get(key.digest)
            if entry is None:
                raise KeyError(key.digest)
            engine = entry.engines.get(key)
            if engine is None:
                engine = BatchCompressionRateFitness(
                    entry.blocks,
                    n_vectors=key.n_vectors,
                    block_length=key.block_length,
                    strategy=key.strategy,
                    kernel=key.kernel,
                    tuning=self._tuning,
                )
                entry.engines[key] = engine
            return engine

    def stats(self) -> dict:
        """Per-table warm-state counters for `/stats`."""
        with self._lock:
            return {
                entry.digest: {
                    **entry.describe(),
                    "engines": len(entry.engines),
                    "fitness_requests": entry.fitness_requests,
                    "compress_requests": entry.compress_requests,
                }
                for entry in self._tables.values()
            }
