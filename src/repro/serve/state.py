"""Warm-state registry: block tables and warm fitness engines.

The registry is the daemon's memory across requests.  Everything is
keyed by the **block-table digest**
(:func:`repro.core.blocks.block_table_digest` — SHA-256 over K and
the distinct-block arrays), so two uploads of the same patterns land
on the same warm state and two different tables can never
cross-contaminate.

Per table the registry holds:

* the prepared :class:`~repro.core.blocks.BlockSet` itself;
* warm :class:`~repro.core.fitness.BatchCompressionRateFitness`
  engines, one per ``(L, K, strategy)`` shape, each with the block
  table already prepared for the kernel it resolved.  Engines are
  *not* thread-safe, so each is driven only by the coalescer's single
  dispatcher thread (or the offline runner's single thread).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.blocks import BlockSet, block_table_digest
from ..core.encoding import EncodingStrategy
from ..core.fitness import BatchCompressionRateFitness

__all__ = ["FitnessKey", "TableEntry", "WarmRegistry"]


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

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tables: dict[str, TableEntry] = {}

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
