"""Covering: assigning a matching vector to every input block.

Section 3.2 of the paper: the MVs are sorted by increasing number of
``U`` values and each input block takes the *first* MV in that order
that matches it (fewer ``U``s → fewer fill bits → shorter encoding).
The covering also collects the frequency-of-use ``F_i`` of every MV,
which drives the Huffman codeword assignment.

Covering runs on the distinct-block table of a :class:`BlockSet`, so
its cost is O(L × distinct blocks) vectorized numpy work.
:func:`cover` covers one :class:`MVSet` (the compressor path) with
:func:`cover_masks`, the single-genome reference loop.  The EA's inner
loop prices a whole generation per pass instead, through the covering
kernels that :class:`~repro.core.fitness.BatchCompressionRateFitness`
resolves (:mod:`repro.core.kernels`), all property-tested
bit-identical to this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockSet, masks_as_words
from .matching import MVSet

__all__ = [
    "CoveringResult",
    "UncoverableError",
    "cover",
    "cover_masks",
]


class UncoverableError(ValueError):
    """Raised when some input block matches none of the MVs.

    The paper rules this out by including an all-U matching vector;
    without one, encoding with the given MV set is impossible.
    """


@dataclass(frozen=True)
class CoveringResult:
    """Outcome of covering a block set with an MV set.

    Attributes
    ----------
    assignment:
        For each *distinct* block, the index of the covering MV
        (``-1`` if no MV matches).
    frequencies:
        ``F_i`` — number of input blocks (counted with multiplicity)
        covered by MV ``i``.
    covering_order:
        MV indices in the priority order used (increasing NU).
    uncovered:
        Number of input blocks (with multiplicity) left uncovered.
    """

    assignment: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    covering_order: tuple[int, ...]
    uncovered: int

    @property
    def is_complete(self) -> bool:
        """True iff every input block found a matching MV."""
        return self.uncovered == 0

    def frequency_map(self) -> dict[int, int]:
        """Nonzero frequencies as ``{mv_index: F_i}``."""
        return {
            int(i): int(f) for i, f in enumerate(self.frequencies) if f > 0
        }


def cover_masks(
    block_ones: np.ndarray,
    block_zeros: np.ndarray,
    block_counts: np.ndarray,
    mv_ones: np.ndarray,
    mv_zeros: np.ndarray,
    covering_order: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-genome covering over plain mask arrays (the reference).

    An explicit loop over MVs in priority order with vectorized
    per-block match tests — the seed's covering algorithm, and the
    oracle the batched kernels are property-tested against.  Masks may
    be flat ``(N,)`` single-word values or ``(N, W)`` little-endian
    word arrays (for ``K > 64``).  Returns
    ``(assignment, frequencies, uncovered)`` with the same meaning as
    :class:`CoveringResult`.
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


def cover(blocks: BlockSet, mv_set: MVSet, require_complete: bool = False) -> CoveringResult:
    """Cover ``blocks`` with ``mv_set`` per the paper's first-match rule.

    >>> bs = BlockSet.from_string("111 000 11X", 3)
    >>> result = cover(bs, MVSet.from_strings(["111", "000", "UUU"]))
    >>> result.frequency_map()
    {0: 2, 1: 1}
    """
    if blocks.block_length != mv_set.block_length:
        raise ValueError(
            f"block length {blocks.block_length} != MV length {mv_set.block_length}"
        )
    mv_ones, mv_zeros = mv_set.mask_arrays()
    order = np.asarray(mv_set.covering_order(), dtype=np.int64)
    assignment, frequencies, uncovered = cover_masks(
        blocks.ones, blocks.zeros, blocks.counts, mv_ones, mv_zeros, order
    )
    if require_complete and uncovered:
        raise UncoverableError(
            f"{uncovered} input blocks match none of the {len(mv_set)} MVs"
        )
    return CoveringResult(
        assignment=assignment,
        frequencies=frequencies,
        covering_order=tuple(int(i) for i in order),
        uncovered=uncovered,
    )
