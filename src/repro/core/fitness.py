"""Fitness evaluation: the compression rate of a genome's MV set.

This is the EA's inner loop.  The workhorse is
:class:`BatchCompressionRateFitness`, which prices an entire
generation of ``C`` genomes in two library calls:

1. the ``(C, L·K)`` genome matrix is reshaped into a ``(C, L, K)``
   trit grid, and a covering kernel (:mod:`repro.core.kernels` —
   compiled native lanes, else bit-packed numpy lanes) covers the
   whole generation in ONE ``cover_grid`` pass: each kernel orders
   every genome's MVs by increasing ``U`` count (the paper's covering
   priority) itself and returns per-MV use frequencies, reporting
   genomes whose MVs cannot cover every block as uncovered;
2. :func:`repro.coding.huffman.huffman_total_bits_batch` prices all
   frequency rows with a two-queue merge (in C when the native
   library is loaded, else in Python), and the fill bits are one
   matrix dot away.

:class:`CompressionRateFitness` keeps the historical single-genome
callable API as a thin batch-of-one wrapper, so existing callers keep
working unchanged.  For a genome whose MVs cannot cover every block
the paper assigns "a sufficiently small number"; we use a large
negative constant, far below any reachable rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..coding.huffman import huffman_length_stats_batch, huffman_total_bits_batch
from .blocks import BlockSet, mask_word_count, pack_bits_to_words
from .decoder_hw import decoder_area_units_batch, test_application_cycles_batch
from .encoding import EncodingStrategy, build_encoding_table
from .kernels import AUTO_KERNEL, CoveringKernel, resolve_kernel
from .matching import MVSet
from .trits import DC, ONE, ZERO

__all__ = [
    "INVALID_FITNESS",
    "OBJECTIVE_COLUMNS",
    "BatchCompressionRateFitness",
    "CompressionRateFitness",
]

# Column order of ``BatchCompressionRateFitness.evaluate_objectives``:
# compression rate (%), decoder area (storage bits), test-application
# time (tester cycles).  Objective *subsets* are selected by name in
# ``repro.ea.multi_objective``; the adapter always emits all three.
OBJECTIVE_COLUMNS = ("rate", "area", "time")

INVALID_FITNESS = -1.0e6  # far below 100·(orig−comp)/orig for any valid encoding


@dataclass(frozen=True)
class _DedupRowCounts:
    """MV rows before/after a per-batch dedup: always zero (no dedup)."""

    rows_total: int = 0
    rows_unique: int = 0


_NO_DEDUP = _DedupRowCounts()


class _StageClock:
    """Accumulates per-stage wall time into a caller-owned dict."""

    def __init__(self, timings: dict) -> None:
        self._timings = timings
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self._timings[stage] = self._timings.get(stage, 0.0) + now - self._last
        self._last = now


class BatchCompressionRateFitness:
    """Price a whole generation of genomes against a fixed block set.

    The covering kernel is this class's private detail: ``"auto"``
    (the default) resolves to native, else bitpack, when the first
    batch arrives.  ``kernel`` — a registry name (``"bitpack"``,
    ``"native"``) or a :class:`~repro.core.kernels.CoveringKernel`
    instance — is the one seam that forces a kernel, for benchmarks
    and tests.  Every generation prices through the kernel's one
    ``cover_grid`` pass over the raw trit grid, and both kernels price
    bit-identically, so the choice only moves the wall clock.

    >>> blocks = BlockSet.from_string("111 000 111 111", 3)
    >>> fit = BatchCompressionRateFitness(blocks, n_vectors=2, block_length=3)
    >>> genomes = MVSet.from_strings(["111", "UUU"]).to_genome()[None, :]
    >>> [round(rate, 1) for rate in fit.evaluate_batch(genomes)]
    [41.7]
    """

    def __init__(
        self,
        blocks: BlockSet,
        n_vectors: int,
        block_length: int,
        strategy: EncodingStrategy = EncodingStrategy.HUFFMAN,
        invalid_fitness: float = INVALID_FITNESS,
        kernel: str | CoveringKernel = AUTO_KERNEL,
    ) -> None:
        if blocks.block_length != block_length:
            raise ValueError(
                f"block set has K={blocks.block_length}, expected {block_length}"
            )
        if n_vectors < 1:
            raise ValueError("n_vectors must be >= 1")
        if blocks.original_bits == 0:
            raise ValueError("cannot evaluate fitness on an empty test set")
        if strategy is EncodingStrategy.FIXED:
            raise ValueError("fitness evaluation requires a frequency-based strategy")
        self._blocks = blocks
        self._n_vectors = n_vectors
        self._block_length = block_length
        self._strategy = strategy
        self._invalid_fitness = invalid_fitness
        # The kernel choice; "auto" resolves lazily on the first batch
        # (the heuristic wants the generation size C), concrete names
        # resolve and prepare the block table right away.
        self._kernel_choice = kernel
        self._kernel: CoveringKernel | None = None
        self._prepared = None
        if kernel != AUTO_KERNEL:
            self._resolve_kernel(n_genomes=1)
        self.evaluations = 0

    def _resolve_kernel(self, n_genomes: int) -> CoveringKernel:
        if self._kernel is None:
            self._kernel = resolve_kernel(
                self._kernel_choice,
                n_genomes=n_genomes,
                n_distinct=self._blocks.n_distinct,
                n_vectors=self._n_vectors,
                block_length=self._block_length,
            )
            self._prepared = self._kernel.prepare(self._blocks)
        return self._kernel

    @property
    def blocks(self) -> BlockSet:
        """The block set this fitness prices against."""
        return self._blocks

    @property
    def kernel_name(self) -> str:
        """The resolved covering kernel's name (``auto`` if unresolved)."""
        return self._kernel.name if self._kernel is not None else AUTO_KERNEL

    @property
    def genome_length(self) -> int:
        """L·K — expected gene count per genome."""
        return self._n_vectors * self._block_length

    @property
    def mv_cache_stats(self) -> _DedupRowCounts:
        """Constant zero row counts, kept because perfbench/ reads them."""
        return _NO_DEDUP

    def genome_masks_batch(
        self, genomes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pack a ``(C, L·K)`` genome matrix into per-MV mask arrays.

        Returns ``(ones, zeros, n_unspecified)``; the masks are
        ``(C, L)`` for ``K <= 64`` and ``(C, L, W)`` word arrays for
        wider blocks, one vectorized pass over the whole batch.
        """
        matrix = self._genome_matrix(genomes)
        grid = matrix.reshape(-1, self._n_vectors, self._block_length)
        ones = pack_bits_to_words(grid == ONE)
        zeros = pack_bits_to_words(grid == ZERO)
        if mask_word_count(self._block_length) == 1:
            ones = ones[..., 0]
            zeros = zeros[..., 0]
        n_unspecified = (grid == DC).sum(axis=2).astype(np.int64)
        return ones, zeros, n_unspecified

    def _genome_matrix(self, genomes: np.ndarray) -> np.ndarray:
        matrix = np.asarray(genomes, dtype=np.int8)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[1] != self.genome_length:
            raise ValueError(
                f"genome batch must be (C, {self.genome_length}), "
                f"got shape {matrix.shape}"
            )
        return matrix

    def _cover_generation(
        self, matrix: np.ndarray, clock: _StageClock | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cover every genome row of a ``(C, L·K)`` matrix in one pass.

        The shared covering front half of :meth:`evaluate_batch` and
        :meth:`evaluate_objectives`: returns per-genome MV use
        ``frequencies`` ``(C, L)``, ``uncovered`` block counts ``(C,)``
        and per-MV ``n_unspecified`` counts ``(C, L)``.
        """
        n_genomes = matrix.shape[0]
        grid = matrix.reshape(n_genomes, self._n_vectors, self._block_length)
        n_unspecified = (grid == DC).sum(axis=2, dtype=np.int64)
        kernel = self._resolve_kernel(n_genomes)
        if clock:
            clock.mark("pack")
        frequencies, uncovered = kernel.cover_grid(self._prepared, grid)
        if clock:
            clock.mark("cover")
        return frequencies, uncovered, n_unspecified

    def evaluate_batch(
        self, genomes: np.ndarray, timings: dict | None = None
    ) -> np.ndarray:
        """Compression rate (%) for every genome row; one kernel pass.

        Rows whose MVs cannot cover every input block come back as
        ``invalid_fitness``.  Identical, element for element, to
        calling the single-genome path on each row.  ``timings``, if a
        dict, accumulates per-stage wall seconds (``pack`` / ``cover``
        / ``huffman``).
        """
        matrix = self._genome_matrix(genomes)
        n_genomes = matrix.shape[0]
        self.evaluations += n_genomes
        if n_genomes == 0:
            return np.empty(0, dtype=np.float64)
        if self._strategy is EncodingStrategy.HUFFMAN_SUBSUME:
            return np.asarray(
                [self._evaluate_with_subsumption(row) for row in matrix],
                dtype=np.float64,
            )
        clock = _StageClock(timings) if timings is not None else None
        frequencies, uncovered, n_unspecified = self._cover_generation(
            matrix, clock
        )
        rates = np.full(n_genomes, self._invalid_fitness, dtype=np.float64)
        valid = uncovered == 0
        if valid.any():
            valid_freqs = frequencies[valid]
            codeword_bits = huffman_total_bits_batch(valid_freqs)
            fill_bits = (valid_freqs * n_unspecified[valid]).sum(axis=1)
            compressed = codeword_bits + fill_bits
            original = self._blocks.original_bits
            rates[valid] = 100.0 * (original - compressed) / original
        if clock:
            clock.mark("huffman")
        return rates

    def evaluate_objectives(self, genomes: np.ndarray) -> np.ndarray:
        """``(C, 3)`` objective matrix: rate (%), area (bits), time (cycles).

        The multi-objective adapter: ONE covering pass (the same shared
        :meth:`_cover_generation` front half as :meth:`evaluate_batch`,
        so the kernel pass amortizes across objectives), then vectorized
        decoder-model columns from the batched Huffman length
        statistics.  Column order is
        :data:`OBJECTIVE_COLUMNS`; the rate column is bit-identical to
        :meth:`evaluate_batch` on the same rows.  Rows whose MVs cannot
        cover every block come back as ``(invalid_fitness, inf, inf)``.
        """
        matrix = self._genome_matrix(genomes)
        n_genomes = matrix.shape[0]
        self.evaluations += n_genomes
        if n_genomes == 0:
            return np.empty((0, 3), dtype=np.float64)
        if self._strategy is EncodingStrategy.HUFFMAN_SUBSUME:
            raise ValueError(
                "multi-objective evaluation does not support the "
                "HUFFMAN_SUBSUME strategy (no batched decoder model for "
                "subsumption-merged tables)"
            )
        frequencies, uncovered, n_unspecified = self._cover_generation(
            matrix, None
        )
        objectives = np.empty((n_genomes, 3), dtype=np.float64)
        objectives[:, 0] = self._invalid_fitness
        objectives[:, 1:] = np.inf
        valid = uncovered == 0
        if valid.any():
            valid_freqs = frequencies[valid]
            stats = huffman_length_stats_batch(valid_freqs)
            fill_bits = (valid_freqs * n_unspecified[valid]).sum(axis=1)
            compressed = stats.total_bits + fill_bits
            original = self._blocks.original_bits
            objectives[valid, 0] = 100.0 * (original - compressed) / original
            # The fill counter sizes to the largest NU among *coded*
            # MVs (frequency > 0), as in ``decoder_model``.
            max_fills = np.where(valid_freqs > 0, n_unspecified[valid], 0).max(
                axis=1
            )
            objectives[valid, 1] = decoder_area_units_batch(
                stats.n_active,
                stats.sum_lengths,
                max_fills,
                self._block_length,
            )
            objectives[valid, 2] = test_application_cycles_batch(
                stats.total_bits,
                valid_freqs.sum(axis=1),
                self._block_length,
            )
        return objectives

    def _evaluate_with_subsumption(self, genome: np.ndarray) -> float:
        """Slower path that applies the Section 3.3 subsumption merges."""
        from .covering import cover

        mv_set = MVSet.from_genome(genome, self._block_length)
        covering = cover(self._blocks, mv_set)
        if covering.uncovered:
            return self._invalid_fitness
        table = build_encoding_table(
            mv_set, covering.frequency_map(), EncodingStrategy.HUFFMAN_SUBSUME
        )
        original = self._blocks.original_bits
        return 100.0 * (original - table.total_bits) / original


class CompressionRateFitness:
    """Callable genome → compression rate (%) for a fixed block set.

    Thin batch-of-one wrapper over :class:`BatchCompressionRateFitness`
    — kept so single-genome callers (optimizer, examples, tests) see
    the historical API and exact historical values.

    >>> blocks = BlockSet.from_string("111 000 111 111", 3)
    >>> fit = CompressionRateFitness(blocks, n_vectors=2, block_length=3)
    >>> genome = MVSet.from_strings(["111", "UUU"]).to_genome()
    >>> round(fit(genome), 1)  # 3·1 + 1·(1+3) = 7 bits vs 12
    41.7
    """

    def __init__(
        self,
        blocks: BlockSet,
        n_vectors: int,
        block_length: int,
        strategy: EncodingStrategy = EncodingStrategy.HUFFMAN,
        invalid_fitness: float = INVALID_FITNESS,
    ) -> None:
        self._batch = BatchCompressionRateFitness(
            blocks, n_vectors, block_length, strategy, invalid_fitness
        )
        self._n_vectors = n_vectors
        self._block_length = block_length
        self.evaluations = 0

    @property
    def blocks(self) -> BlockSet:
        """The block set this fitness prices against."""
        return self._batch.blocks

    @property
    def batch(self) -> BatchCompressionRateFitness:
        """The underlying batch engine (shared with ``evaluate_batch``)."""
        return self._batch

    def genome_masks(
        self, genome: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pack a genome into per-MV ``(ones, zeros, n_unspecified)`` arrays."""
        ones, zeros, n_unspecified = self._batch.genome_masks_batch(genome)
        return ones[0], zeros[0], n_unspecified[0]

    def __call__(self, genome: np.ndarray) -> float:
        """Compression rate achieved by the genome's matching vectors."""
        self.evaluations += 1
        return float(self._batch.evaluate_batch(genome)[0])

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Batched evaluation; lets the EA engine batch this fitness."""
        rates = self._batch.evaluate_batch(genomes)
        self.evaluations += rates.size
        return rates

    def evaluate_mv_set(self, mv_set: MVSet) -> float:
        """Convenience: rate for an explicit :class:`MVSet`."""
        return self(mv_set.to_genome())
