"""Scalar reference covering kernel: one genome, one Python MV loop.

:func:`cover_masks` is the original covering algorithm of the seed —
an explicit loop over MVs in priority order with vectorized per-block
match tests.  It is the semantic reference the batched kernels are
property-tested against, and (wrapped per genome by
:class:`ScalarKernel`) the fallback for workloads too small to justify
batched tensor setup.
"""

from __future__ import annotations

import numpy as np

from ..blocks import BlockSet, masks_as_words, pack_bits_to_words
from ..trits import ONE, ZERO
from .base import CoveringKernel, PreparedBlocks

__all__ = ["ScalarKernel", "cover_masks"]


def cover_masks(
    block_ones: np.ndarray,
    block_zeros: np.ndarray,
    block_counts: np.ndarray,
    mv_ones: np.ndarray,
    mv_zeros: np.ndarray,
    covering_order: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-genome covering over plain mask arrays (the reference).

    Masks may be flat ``(N,)`` single-word values or ``(N, W)``
    little-endian word arrays (for ``K > 64``).  Returns
    ``(assignment, frequencies, uncovered)`` with the same meaning as
    :class:`repro.core.covering.CoveringResult`.
    """
    block_ones = masks_as_words(block_ones)
    block_zeros = masks_as_words(block_zeros)
    mv_ones = masks_as_words(mv_ones)
    mv_zeros = masks_as_words(mv_zeros)
    n_distinct = block_ones.shape[0]
    n_vectors = mv_ones.shape[0]
    assignment = np.full(n_distinct, -1, dtype=np.int64)
    unassigned = np.ones(n_distinct, dtype=bool)
    for mv_index in covering_order:
        if not unassigned.any():
            break
        conflicts = (block_ones & mv_zeros[mv_index]) | (
            block_zeros & mv_ones[mv_index]
        )
        hits = unassigned & (conflicts == 0).all(axis=1)
        assignment[hits] = mv_index
        unassigned &= ~hits
    frequencies = np.zeros(n_vectors, dtype=np.int64)
    covered = assignment >= 0
    block_counts = np.asarray(block_counts, dtype=np.int64)
    np.add.at(frequencies, assignment[covered], block_counts[covered])
    uncovered = int(block_counts[~covered].sum())
    return assignment, frequencies, uncovered


class ScalarKernel(CoveringKernel):
    """Batch adapter over the reference single-genome loop.

    Matches the batched kernels' early-exit contract: genomes with
    uncovered blocks report an exact ``uncovered`` count but all
    ``-1`` assignment rows and zero frequencies.
    """

    name = "scalar"

    def prepare(self, blocks: BlockSet) -> PreparedBlocks:
        return PreparedBlocks.of(blocks)

    def cover_grid(
        self,
        prepared: PreparedBlocks,
        ordered_grid: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_genomes, n_vectors = ordered_grid.shape[:2]
        n_distinct = prepared.n_distinct
        assignment, frequencies, uncovered = self._empty_results(
            n_genomes, n_vectors, n_distinct
        )
        if n_distinct == 0 or n_genomes == 0:
            return assignment, frequencies, uncovered
        ordered_ones = pack_bits_to_words(ordered_grid == ONE)
        ordered_zeros = pack_bits_to_words(ordered_grid == ZERO)
        identity = np.arange(n_vectors, dtype=np.int64)
        for row in range(n_genomes):
            # The MV rows are already in covering order, so cover with
            # the identity priority and map ranks back through `orders`.
            rank_assignment, rank_frequencies, row_uncovered = cover_masks(
                prepared.ones_words,
                prepared.zeros_words,
                prepared.counts,
                ordered_ones[row],
                ordered_zeros[row],
                identity,
            )
            uncovered[row] = row_uncovered
            if row_uncovered:
                continue  # early-exit contract: no assignment/frequencies
            frequencies[row, orders[row]] = rank_frequencies
            if want_assignment:
                assignment[row] = orders[row][rank_assignment]
        return assignment, frequencies, uncovered
