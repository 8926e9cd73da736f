"""Covering: assigning a matching vector to every input block.

Section 3.2 of the paper: the MVs are sorted by increasing number of
``U`` values and each input block takes the *first* MV in that order
that matches it (fewer ``U``s → fewer fill bits → shorter encoding).
The covering also collects the frequency-of-use ``F_i`` of every MV,
which drives the Huffman codeword assignment.

Covering runs on the distinct-block table of a :class:`BlockSet`, so
its cost is O(L × distinct blocks) vectorized numpy work — this is the
inner loop of the EA fitness evaluation.  The heavy lifting lives in
the pluggable kernel subsystem (:mod:`repro.core.kernels`): a float32
GEMM kernel, a bit-packed uint64 word-lane kernel with block-table
sharding, and the scalar reference loop, all returning bit-identical
results.  This module is the thin dispatcher over that registry:

* :func:`cover` covers one :class:`MVSet` (the compressor path) with
  the scalar reference kernel;
* :func:`cover_masks` is the single-genome mask-level primitive
  (re-exported from :mod:`repro.core.kernels.scalar`);
* :func:`cover_masks_batch` covers a whole *generation* at once,
  resolving ``kernel`` (``"auto"`` by default) through the registry;
* :func:`cover_bits_batch`/:func:`unpack_mask_bits` remain the GEMM
  kernel's bit-matrix core, re-exported for callers that manage their
  own unpacked representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import WORD_BITS, BlockSet
from .kernels import (
    cover_bits_batch,
    cover_masks,
    resolve_kernel,
    unpack_mask_bits,
)
from .matching import MVSet

__all__ = [
    "CoveringResult",
    "UncoverableError",
    "cover",
    "cover_bits_batch",
    "cover_masks",
    "cover_masks_batch",
    "unpack_mask_bits",
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


def cover_masks_batch(
    block_ones: np.ndarray,
    block_zeros: np.ndarray,
    block_counts: np.ndarray,
    mv_ones: np.ndarray,
    mv_zeros: np.ndarray,
    covering_order: np.ndarray,
    block_length: int | None = None,
    kernel: str = "auto",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cover the block set with ``C`` MV sets (genomes) in one pass.

    Batched counterpart of :func:`cover_masks`: ``mv_ones``,
    ``mv_zeros`` and ``covering_order`` are ``(C, L)`` arrays — one row
    per genome (``(C, L, W)`` word arrays for ``K > 64``) — and the
    return is ``(assignment, frequencies, uncovered)`` with shapes
    ``(C, D)``, ``(C, L)`` and ``(C,)``.

    ``block_length`` bounds the mask width (defaults to the widest bit
    used); ``kernel`` names a registered covering kernel or ``"auto"``
    to pick one from the workload shape.  Every kernel returns
    bit-identical results, so the choice only moves the wall clock.

    For every genome whose MVs cover all blocks, row ``c`` agrees
    element-for-element with ``cover_masks(..., mv_ones[c],
    mv_zeros[c], covering_order[c])``.  Genomes with uncovered blocks
    take an early exit: their ``uncovered`` count is exact, but their
    ``assignment`` row is all ``-1`` and their ``frequencies`` row all
    zero (the batched fitness prices such genomes as invalid without
    needing either).
    """
    mv_ones = np.asarray(mv_ones, dtype=np.uint64)
    mv_zeros = np.asarray(mv_zeros, dtype=np.uint64)
    order_input = np.asarray(covering_order, dtype=np.int64)
    # Promote single-genome inputs to a batch of one: flat masks are
    # 1-D, multi-word masks are (L, W) — the 1-D covering order is
    # what disambiguates the latter from a (C, L) flat batch.
    if mv_ones.ndim == 1 or (mv_ones.ndim == 2 and order_input.ndim == 1):
        mv_ones = mv_ones[None]
        mv_zeros = mv_zeros[None]
    orders = np.atleast_2d(order_input)
    n_genomes, n_vectors = mv_ones.shape[:2]

    if block_length is None:
        block_ones = np.asarray(block_ones, dtype=np.uint64)
        block_zeros = np.asarray(block_zeros, dtype=np.uint64)
        if mv_ones.ndim == 3 or block_ones.ndim == 2:
            # Word arrays: the mask width is the word count.
            words = max(
                block_ones.shape[-1] if block_ones.ndim == 2 else 1,
                mv_ones.shape[-1] if mv_ones.ndim == 3 else 1,
            )
            block_length = words * WORD_BITS
        else:
            widest = max(
                int(block_ones.max() | block_zeros.max()) if block_ones.size else 0,
                int(mv_ones.max() | mv_zeros.max()) if mv_ones.size else 0,
            )
            block_length = max(1, widest.bit_length())

    chosen = resolve_kernel(
        kernel,
        n_genomes=n_genomes,
        n_distinct=len(block_ones),
        n_vectors=n_vectors,
        block_length=block_length,
    )
    prepared = chosen.prepare_masks(
        block_ones, block_zeros, block_counts, block_length
    )
    return chosen.cover_masks(prepared, mv_ones, mv_zeros, orders)


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
