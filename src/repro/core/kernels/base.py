"""The covering-kernel contract shared by every backend.

A *covering kernel* answers one batched question: given the fixed
distinct-block table of a :class:`~repro.core.blocks.BlockSet` and a
generation of ``C`` genomes — each an ordered list of ``L`` matching
vectors — which MV covers each block first, how often is each MV used,
and how many blocks stay uncovered?  Kernels are private to the
fitness layer: :class:`~repro.core.fitness.BatchCompressionRateFitness`
resolves one and is its only caller, so everything above it (the EA
engine, the experiment protocol, the CLI, serve) is kernel agnostic.

All kernels share one contract, pinned by the cross-kernel parity
suite: for identical inputs they return **bit-identical**
``(assignment, frequencies, uncovered)`` triples, including the
early-exit convention — a genome whose MVs cannot cover every block
reports an exact ``uncovered`` count but an all ``-1`` assignment row
and an all-zero frequency row.  Seeded experiments are therefore
byte-identical no matter which kernel priced them.

The contract is two calls, the two the fitness makes:

* :meth:`CoveringKernel.prepare` — once per block table, the kernel's
  per-table state (:class:`PreparedBlocks`; fused integer conflict
  lanes for bitpack and native, see :func:`prepare_fused_lanes`);
* :meth:`CoveringKernel.cover_grid` — once per generation, the
  ``(C, L, K)`` trit grid with each genome's MVs already permuted
  into covering order.

:meth:`~CoveringKernel.match_columns` answers a standalone question —
for ``M`` individual MVs, which distinct blocks does each match? —
with the generic word-mask test.  The fitness never calls it.
"""

from __future__ import annotations

import abc
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from ..blocks import (
    BlockSet,
    mask_word_count,
    masks_as_words,
    pack_bits_to_words,
    unpack_words_to_bits,
)
from ..trits import ONE, ZERO

__all__ = [
    "CoveringKernel",
    "PreparedBlocks",
    "accumulate_complete_rows",
    "first_match_rank",
    "fused_mv_lanes",
    "prepare_fused_lanes",
    "rank_word_bits",
]

# Genome chunks bound the per-chunk (chunk, D) rank matrices; block
# chunks bound preparation's (chunk, 2K) unpacked-bit intermediate.
CHUNK_TENSOR_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class PreparedBlocks:
    """Kernel-ready view of one distinct-block table.

    ``counts_f`` is the float64 copy used in weighted dot products
    (exact up to 2**53, far beyond any test set); ``block_lanes`` holds
    the fused ``(D, LW)`` conflict lanes ``[b₁|b₀]`` of the lane
    kernels and stays ``None`` for the scalar one.
    """

    n_distinct: int
    counts: np.ndarray
    counts_f: np.ndarray
    total_count: int
    ones_words: np.ndarray
    zeros_words: np.ndarray
    block_lanes: np.ndarray | None = None

    @classmethod
    def of(cls, blocks: BlockSet) -> "PreparedBlocks":
        """The word masks and counts of ``blocks``, without lanes."""
        ones_words = masks_as_words(blocks.ones)
        counts = np.asarray(blocks.counts, dtype=np.int64)
        return cls(
            n_distinct=ones_words.shape[0],
            counts=counts,
            counts_f=counts.astype(np.float64),
            total_count=int(counts.sum()),
            ones_words=ones_words,
            zeros_words=masks_as_words(blocks.zeros),
        )


def prepare_fused_lanes(blocks: BlockSet, lane_dtype: np.dtype) -> PreparedBlocks:
    """Prepared state with fused ``(D, LW)`` block lanes ``[b₁|b₀]``.

    The match test ``(b₁ & mvᴢ) | (b₀ & mv₁) == 0`` is one AND over
    fused lanes: each block's ones and zeros bits concatenate into one
    2K-bit lane, stored in ``LW`` words of ``lane_dtype`` — the only
    thing the bitpack and native kernels prepare differently.
    Out-of-core tables (np.memmap masks — see core.blocks_io) get
    memmap lanes over an anonymous temp file, so covering streams them
    from disk page by page and preparation never materializes a
    D-sized array in RAM.
    """
    prepared = PreparedBlocks.of(blocks)
    block_length = blocks.block_length
    lane_bits = 2 * block_length
    shape = (prepared.n_distinct, mask_word_count(lane_bits))
    if isinstance(blocks.ones, np.memmap) or isinstance(blocks.zeros, np.memmap):
        block_lanes = np.memmap(
            tempfile.TemporaryFile(), dtype=lane_dtype, mode="w+", shape=shape
        )
    else:
        block_lanes = np.empty(shape, dtype=lane_dtype)
    # Chunk the D axis: the (chunk, 2K) unpacked-bit intermediate is
    # the preparation's RAM high-water mark.
    chunk = max(1, CHUNK_TENSOR_ELEMENTS // lane_bits)
    for start in range(0, prepared.n_distinct, chunk):
        stop = min(start + chunk, prepared.n_distinct)
        bits = np.concatenate(
            [
                unpack_words_to_bits(
                    np.asarray(prepared.ones_words[start:stop]), block_length
                ),
                unpack_words_to_bits(
                    np.asarray(prepared.zeros_words[start:stop]), block_length
                ),
            ],
            axis=1,
        )
        block_lanes[start:stop] = pack_bits_to_words(bits)
    return replace(prepared, block_lanes=block_lanes)


def fused_mv_lanes(ordered_grid: np.ndarray, lane_dtype: np.dtype) -> np.ndarray:
    """``(C, L, LW)`` fused MV lanes ``[mvᴢ|mv₁]`` of a ``(C, L, K)`` grid."""
    words = pack_bits_to_words(
        np.concatenate([ordered_grid == ZERO, ordered_grid == ONE], axis=2)
    )
    return words.astype(lane_dtype, copy=False)


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

    @abc.abstractmethod
    def prepare(self, blocks: BlockSet) -> PreparedBlocks:
        """Build the kernel's per-block-table state."""

    @abc.abstractmethod
    def cover_grid(
        self,
        prepared: PreparedBlocks,
        ordered_grid: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cover with the ordered ``(C, L, K)`` trit grid.

        Row ``j`` of genome ``c`` is the MV tried ``j``-th; ``orders``
        ``(C, L)`` maps that rank back to declaration-order MV indices.
        Returns ``(assignment, frequencies, uncovered)`` of shapes
        ``(C, D)``, ``(C, L)`` and ``(C,)``.
        """

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
