"""The covering-kernel contract shared by every backend.

A *covering kernel* answers one batched question: given the fixed
distinct-block table of a :class:`~repro.core.blocks.BlockSet` and a
generation of ``C`` genomes — each an ordered list of ``L`` matching
vectors — which MV covers each block first, how often is each MV used,
and how many blocks stay uncovered?  Everything above this layer
(fitness pricing, the EA engine, the experiment protocol) is kernel
agnostic; everything below it (compiled native lanes, bit-packed
integer lanes, the scalar reference loop) is swappable per workload
shape.

All kernels share one contract, pinned by the cross-kernel parity
suite: for identical inputs they return **bit-identical**
``(assignment, frequencies, uncovered)`` triples, including the
early-exit convention — a genome whose MVs cannot cover every block
reports an exact ``uncovered`` count but an all ``-1`` assignment row
and an all-zero frequency row.  Seeded experiments are therefore
byte-identical no matter which kernel priced them.

Kernels are stateless objects configured at construction; per-block-set
state lives in the *prepared* value returned by :meth:`prepare` (each
kernel chooses its own representation: fused integer conflict lanes
for bitpack and native, word masks for scalar).  The three entry
points differ only in input encoding:

* :meth:`cover_ordered_words` — MV masks as ``(C, L, W)`` uint64 word
  lanes *already permuted* into covering order (the abstract core);
* :meth:`cover_masks` — declaration-order masks, flat ``(C, L)`` or
  ``(C, L, W)``; permuted here and delegated;
* :meth:`cover_grid` — the ordered ``(C, L, K)`` trit grid straight
  from the EA genome matrix (the fitness hot path; kernels may
  override to skip the intermediate word packing).

:meth:`match_columns` answers a standalone question — for ``M``
individual MVs, which distinct blocks does each match? — with the
generic word-mask test.  The fitness never calls it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..blocks import (
    BlockSet,
    mask_word_count,
    masks_as_words,
    pack_bits_to_words,
)
from ..trits import ONE, ZERO

__all__ = [
    "CoveringKernel",
    "PreparedBlocks",
    "accumulate_complete_rows",
    "first_match_rank",
    "rank_word_bits",
]

@dataclass(frozen=True)
class PreparedBlocks:
    """Kernel-ready view of one distinct-block table.

    ``counts_f`` is the float64 copy used in weighted dot products
    (exact up to 2**53, far beyond any test set); subclasses add the
    kernel's private representation of the block masks.
    """

    block_length: int
    word_count: int
    n_distinct: int
    counts: np.ndarray
    counts_f: np.ndarray
    total_count: int
    ones_words: np.ndarray
    zeros_words: np.ndarray


def rank_word_bits(n_vectors: int) -> int:
    """Padded match-word width for ``n_vectors`` MVs (8/16/32/64·k)."""
    for width in (8, 16, 32, 64):
        if n_vectors <= width:
            return width
    return -(-n_vectors // 64) * 64


def first_match_rank(matches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-true index along the padded last axis, via packed bits.

    ``matches`` is ``(..., Lp)`` bool with ``Lp`` a multiple of 8 from
    :func:`rank_word_bits` (padding columns all False).  Packing the
    axis into little-endian words turns "first match in covering
    order" into "lowest set bit": isolate it with ``w & -w`` and read
    its position from the float64 exponent — no index reduction over
    L.  Returns ``(rank, hit)``: ``rank`` is the first-true index
    (unspecified where ``hit`` is False), ``hit`` says whether any
    match exists.
    """
    packed = np.packbits(matches, axis=-1, bitorder="little")
    lane_bytes = packed.shape[-1]
    word_dtype = f"<u{min(lane_bytes, 8)}"
    words = packed.view(word_dtype)
    first_word = words[..., 0]
    hit = first_word != 0
    lowest = first_word & np.negative(first_word)
    rank = np.frexp(lowest.astype(np.float64))[1].astype(np.int64) - 1
    for index in range(1, words.shape[-1]):  # only for L > 64
        word = words[..., index]
        fresh = ~hit & (word != 0)
        if not fresh.any():
            hit |= word != 0
            continue
        lowest = word & np.negative(word)
        word_rank = (
            np.frexp(lowest.astype(np.float64))[1].astype(np.int64)
            - 1
            + 64 * index
        )
        rank = np.where(fresh, word_rank, rank)
        hit |= fresh
    return rank, hit


def accumulate_complete_rows(
    assignment: np.ndarray,
    frequencies: np.ndarray,
    start: int,
    sub: np.ndarray,
    sub_rank: np.ndarray,
    order: np.ndarray,
    counts: np.ndarray,
    want_assignment: bool,
) -> None:
    """Scatter one chunk's complete genomes into the result arrays.

    ``sub`` indexes the complete genomes within the chunk starting at
    global row ``start``; ``sub_rank`` is their ``(len(sub), D)``
    first-match covering ranks.  Block multiplicities are scatter-added
    per rank, then mapped from rank space back to MV index space
    through the genomes' ``order`` rows — shared verbatim by the
    bitpack and native kernels so their results cannot drift apart.
    """
    n_vectors = frequencies.shape[1]
    flat = np.arange(sub.size)[:, None] * n_vectors + sub_rank
    counts_tiled = np.broadcast_to(counts, sub_rank.shape)
    rank_frequencies = np.bincount(
        flat.ravel(),
        weights=counts_tiled.ravel(),
        minlength=sub.size * n_vectors,
    ).reshape(sub.size, n_vectors)
    sub_order = order[start + sub]
    frequencies[start + sub[:, None], sub_order] = rank_frequencies.astype(
        np.int64
    )
    if want_assignment:
        assignment[start + sub] = sub_order[
            np.arange(sub.size)[:, None], sub_rank
        ]


class CoveringKernel(abc.ABC):
    """Abstract covering kernel; see the module docstring for the contract."""

    name: str = "abstract"

    # -- preparation --------------------------------------------------

    @abc.abstractmethod
    def prepare_masks(
        self,
        block_ones: np.ndarray,
        block_zeros: np.ndarray,
        block_counts: np.ndarray,
        block_length: int,
    ) -> PreparedBlocks:
        """Build the kernel's per-block-set state from raw mask arrays."""

    def prepare(self, blocks: BlockSet) -> PreparedBlocks:
        """Build the kernel's per-block-set state from a :class:`BlockSet`."""
        return self.prepare_masks(
            blocks.ones, blocks.zeros, blocks.counts, blocks.block_length
        )

    def _base_prepared(
        self,
        block_ones: np.ndarray,
        block_zeros: np.ndarray,
        block_counts: np.ndarray,
        block_length: int,
    ) -> PreparedBlocks:
        ones_words = masks_as_words(block_ones)
        zeros_words = masks_as_words(block_zeros)
        counts = np.asarray(block_counts, dtype=np.int64)
        return PreparedBlocks(
            block_length=block_length,
            word_count=mask_word_count(block_length),
            n_distinct=ones_words.shape[0],
            counts=counts,
            counts_f=counts.astype(np.float64),
            total_count=int(counts.sum()),
            ones_words=ones_words,
            zeros_words=zeros_words,
        )

    # -- covering entry points ----------------------------------------

    @abc.abstractmethod
    def cover_ordered_words(
        self,
        prepared: PreparedBlocks,
        ordered_ones: np.ndarray,
        ordered_zeros: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cover with ``(C, L, W)`` MV word lanes in covering order.

        Row ``j`` of genome ``c`` is the MV tried ``j``-th; ``orders``
        maps that rank back to declaration-order MV indices.  Returns
        ``(assignment, frequencies, uncovered)`` of shapes ``(C, D)``,
        ``(C, L)`` and ``(C,)``.
        """

    def cover_masks(
        self,
        prepared: PreparedBlocks,
        mv_ones: np.ndarray,
        mv_zeros: np.ndarray,
        covering_order: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cover with declaration-order ``(C, L[, W])`` mask arrays.

        Single-genome callers may pass flat ``(L,)`` masks or
        ``(L, W)`` word arrays with a 1-D ``covering_order`` — the
        order's dimensionality disambiguates ``(L, W)`` words from a
        ``(C, L)`` flat batch.
        """
        mv_ones = np.asarray(mv_ones, dtype=np.uint64)
        mv_zeros = np.asarray(mv_zeros, dtype=np.uint64)
        order_input = np.asarray(covering_order, dtype=np.int64)
        if mv_ones.ndim == 1 or (
            mv_ones.ndim == 2 and order_input.ndim == 1
        ):
            mv_ones = mv_ones[None]
            mv_zeros = mv_zeros[None]
        orders = np.atleast_2d(order_input)
        if mv_ones.ndim == 2:
            mv_ones = mv_ones[..., None]
            mv_zeros = mv_zeros[..., None]
        genome_rows = np.arange(mv_ones.shape[0])[:, None]
        return self.cover_ordered_words(
            prepared,
            mv_ones[genome_rows, orders],
            mv_zeros[genome_rows, orders],
            orders,
            want_assignment=want_assignment,
        )

    def cover_grid(
        self,
        prepared: PreparedBlocks,
        ordered_grid: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cover with the ordered ``(C, L, K)`` trit grid (fitness path)."""
        return self.cover_ordered_words(
            prepared,
            pack_bits_to_words(ordered_grid == ONE),
            pack_bits_to_words(ordered_grid == ZERO),
            np.atleast_2d(np.asarray(orders, dtype=np.int64)),
            want_assignment=want_assignment,
        )

    # -- standalone match test ----------------------------------------

    # Inert in src/: kept because perfbench/ wraps this attribute.
    def match_columns(
        self,
        prepared: PreparedBlocks,
        mv_ones: np.ndarray,
        mv_zeros: np.ndarray,
    ) -> np.ndarray:
        """Match column of each standalone MV: ``(M, D)`` bool.

        ``mv_ones``/``mv_zeros`` are ``(M,)`` flat or ``(M, W)`` word
        masks of ``M`` individual MVs — no genome structure, no
        covering order.  Row ``m`` says which distinct blocks MV ``m``
        matches, by the reference word-mask test
        ``(b₁ & mvᴢ) | (b₀ & mv₁) == 0`` — correct for every kernel
        because :class:`PreparedBlocks` always carries the canonical
        word masks.
        """
        mv_ones = masks_as_words(mv_ones)
        mv_zeros = masks_as_words(mv_zeros)
        ones_words = prepared.ones_words
        zeros_words = prepared.zeros_words
        conflict = np.zeros((mv_ones.shape[0], prepared.n_distinct), np.uint64)
        for word in range(ones_words.shape[1]):
            conflict |= (mv_zeros[:, None, word] & ones_words[None, :, word]) | (
                mv_ones[:, None, word] & zeros_words[None, :, word]
            )
        return conflict == 0

    # -- shared helpers -----------------------------------------------

    @staticmethod
    def _empty_results(
        n_genomes: int, n_vectors: int, n_distinct: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The all-uncovered result skeleton every kernel starts from."""
        return (
            np.full((n_genomes, n_distinct), -1, dtype=np.int64),
            np.zeros((n_genomes, n_vectors), dtype=np.int64),
            np.zeros(n_genomes, dtype=np.int64),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
