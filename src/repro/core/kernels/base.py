"""The covering-kernel contract shared by every backend.

A *covering kernel* answers one batched question: given the fixed
distinct-block table of a :class:`~repro.core.blocks.BlockSet` and a
generation of ``C`` genomes — each a list of ``L`` matching vectors —
how often is each MV used, and how many blocks stay uncovered?  Each
block takes the first MV that matches it in *covering order*: the
genome's MVs sorted by increasing unspecified-bit count, ties in
declaration order (:func:`covering_orders`).  Kernels are private to
the fitness layer: :class:`~repro.core.fitness.BatchCompressionRateFitness`
resolves one and is its only caller, so everything above it (the EA
engine, the experiment protocol, the CLI, serve) is kernel agnostic.

All kernels share one contract, pinned by the cross-kernel parity
suite: for identical inputs they return **bit-identical**
``(frequencies, uncovered)`` pairs, including the early-exit
convention — a genome whose MVs cannot cover every block reports an
exact ``uncovered`` count and an all-zero frequency row.  Seeded
experiments are therefore byte-identical no matter which kernel
priced them.

The contract is two calls, the two the fitness makes:

* :meth:`CoveringKernel.prepare` — once per block table, the kernel's
  per-table state (:class:`PreparedBlocks`: fused integer conflict
  lanes, see :func:`prepare_fused_lanes`);
* :meth:`CoveringKernel.cover_grid` — once per generation, the raw
  ``(C, L, K)`` trit grid in declaration order; each kernel orders
  the MVs itself.

:meth:`~CoveringKernel.match_columns` answers a standalone question —
for ``M`` individual MVs, which distinct blocks does each match? —
with the generic word-mask test.  The fitness never calls it.
"""

from __future__ import annotations

import abc
import tempfile
from dataclasses import dataclass

import numpy as np

from ..blocks import (
    BlockSet,
    mask_word_count,
    masks_as_words,
    pack_bits_to_words,
    unpack_words_to_bits,
)
from ..trits import DC

__all__ = [
    "CoveringKernel",
    "PreparedBlocks",
    "covering_orders",
    "prepare_fused_lanes",
]

# Genome chunks bound the per-chunk (chunk, D) rank matrices; block
# chunks bound preparation's (chunk, 2K) unpacked-bit intermediate.
CHUNK_TENSOR_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class PreparedBlocks:
    """Kernel-ready view of one distinct-block table.

    ``counts_f`` is the float64 copy used in weighted dot products
    (exact up to 2**53, far beyond any test set); ``block_lanes`` holds
    the fused ``(D, LW)`` conflict lanes ``[b₁|b₀]`` in the kernel's
    lane dtype.
    """

    n_distinct: int
    counts: np.ndarray
    counts_f: np.ndarray
    total_count: int
    ones_words: np.ndarray
    zeros_words: np.ndarray
    block_lanes: np.ndarray


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
    ones_words = masks_as_words(blocks.ones)
    zeros_words = masks_as_words(blocks.zeros)
    counts = np.ascontiguousarray(blocks.counts, dtype=np.int64)
    n_distinct = ones_words.shape[0]
    block_length = blocks.block_length
    lane_bits = 2 * block_length
    shape = (n_distinct, mask_word_count(lane_bits))
    if isinstance(blocks.ones, np.memmap) or isinstance(blocks.zeros, np.memmap):
        block_lanes = np.memmap(
            tempfile.TemporaryFile(), dtype=lane_dtype, mode="w+", shape=shape
        )
    else:
        block_lanes = np.empty(shape, dtype=lane_dtype)
    # Chunk the D axis: the (chunk, 2K) unpacked-bit intermediate is
    # the preparation's RAM high-water mark.
    chunk = max(1, CHUNK_TENSOR_ELEMENTS // lane_bits)
    for start in range(0, n_distinct, chunk):
        stop = min(start + chunk, n_distinct)
        bits = np.concatenate(
            [
                unpack_words_to_bits(np.asarray(ones_words[start:stop]), block_length),
                unpack_words_to_bits(np.asarray(zeros_words[start:stop]), block_length),
            ],
            axis=1,
        )
        block_lanes[start:stop] = pack_bits_to_words(bits)
    return PreparedBlocks(
        n_distinct=n_distinct,
        counts=counts,
        counts_f=counts.astype(np.float64),
        total_count=int(counts.sum()),
        ones_words=ones_words,
        zeros_words=zeros_words,
        block_lanes=block_lanes,
    )


def covering_orders(grid: np.ndarray) -> np.ndarray:
    """``(C, L)`` covering order of a ``(C, L, K)`` trit grid.

    Row ``c`` lists genome ``c``'s MV indices by increasing count of
    unspecified (U) trits, ties in declaration order — the paper's
    covering priority (fewer U → fewer fill bits).
    """
    return np.argsort((grid == DC).sum(axis=2), axis=1, kind="stable")


class CoveringKernel(abc.ABC):
    """Abstract covering kernel; see the module docstring for the contract."""

    name: str = "abstract"

    @abc.abstractmethod
    def prepare(self, blocks: BlockSet) -> PreparedBlocks:
        """Build the kernel's per-block-table state."""

    @abc.abstractmethod
    def cover_grid(
        self, prepared: PreparedBlocks, grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cover the blocks with every genome of a ``(C, L, K)`` trit grid.

        Row ``l`` of genome ``c`` is MV ``l`` in declaration order; the
        kernel covers in :func:`covering_orders` order.  Returns
        ``(frequencies, uncovered)`` of shapes ``(C, L)`` (int64 block
        counts per MV, declaration order) and ``(C,)`` (int64 count of
        blocks no MV matches); an uncoverable genome's frequency row is
        all zero.
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
