"""Bit-packed covering kernel: fused integer conflict lanes.

The match test ``(b₁ & mvᴢ) | (b₀ & mv₁) == 0`` is equivalent to one
AND over a *fused conflict lane*: concatenate each block's ones and
zeros bits into a single 2K-bit word ``[b₁|b₀]`` and each MV's zeros
and ones bits into ``[mvᴢ|mv₁]`` — the lanes AND to zero exactly when
the MV matches the block.  Lanes are stored at the narrowest integer
width that holds 2K bits (uint8/16/32/64, multi-word above 64), so at
the paper's K = 12 a block costs 4 bytes, and the whole match reduces
to one integer AND per (genome, MV, block).  Match booleans pack
along the MV axis and the first match in covering order falls out of
lowest-set-bit arithmetic (:func:`_first_match_rank`).

Two axes of blocking keep every temporary cache-resident:

* **Genome chunking** bounds the per-chunk rank matrices;
* **Block-table sharding** splits the D axis so each
  ``(chunk, L, shard)`` conflict tensor fits in cache no matter how
  large the distinct table grows.  Shards are independent — covering
  rank and covered weight per shard — and only tiny per-genome
  reductions cross shard boundaries.

This is the numpy kernel every machine can run: ``auto`` picks it
when the native library cannot be built.
"""

from __future__ import annotations

import numpy as np

from ..blocks import BlockSet, pack_bits_to_words
from ..trits import ONE, ZERO
from .base import (
    CHUNK_TENSOR_ELEMENTS,
    CoveringKernel,
    PreparedBlocks,
    covering_orders,
    prepare_fused_lanes,
)

__all__ = ["BitpackKernel"]

# Per-shard conflict tensors hold chunk·L·shard lane elements; this
# byte bound keeps a shard's temporaries inside typical L2 slices.
_SHARD_TENSOR_BYTES = 1 << 21


def _lane_dtype(lane_bits: int) -> np.dtype:
    """Narrowest unsigned dtype holding one 2K-bit conflict lane."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if lane_bits <= np.dtype(dtype).itemsize * 8:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _fused_mv_lanes(ordered_grid: np.ndarray, lane_dtype: np.dtype) -> np.ndarray:
    """``(C, L, LW)`` fused MV lanes ``[mvᴢ|mv₁]`` of a ``(C, L, K)`` grid."""
    words = pack_bits_to_words(
        np.concatenate([ordered_grid == ZERO, ordered_grid == ONE], axis=2)
    )
    return words.astype(lane_dtype, copy=False)


def _rank_word_bits(n_vectors: int) -> int:
    """Padded match-word width for ``n_vectors`` MVs (8/16/32/64·k)."""
    for width in (8, 16, 32, 64):
        if n_vectors <= width:
            return width
    return -(-n_vectors // 64) * 64


def _first_match_rank(matches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-true index along the padded last axis, via packed bits.

    ``matches`` is ``(..., Lp)`` bool with ``Lp`` a multiple of 8 from
    :func:`_rank_word_bits` (padding columns all False).  Packing the
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


class BitpackKernel(CoveringKernel):
    """Integer conflict-lane covering kernel with D-axis sharding.

    Parameters
    ----------
    shard_size:
        Distinct blocks per shard; ``None`` picks a size that keeps
        each shard's conflict tensor at ``_SHARD_TENSOR_BYTES``.
    """

    name = "bitpack"

    def __init__(self, shard_size: int | None = None) -> None:
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self._shard_size = shard_size

    def prepare(self, blocks: BlockSet) -> PreparedBlocks:
        return prepare_fused_lanes(blocks, _lane_dtype(2 * blocks.block_length))

    def _shard_slices(self, n_distinct, span, n_vectors, itemsize):
        if self._shard_size is not None:
            size = self._shard_size
        else:
            size = max(
                1,
                _SHARD_TENSOR_BYTES // max(1, span * n_vectors * itemsize),
            )
        return [
            slice(start, min(start + size, n_distinct))
            for start in range(0, n_distinct, size)
        ]

    def cover_grid(
        self, prepared: PreparedBlocks, grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        n_genomes, n_vectors = grid.shape[:2]
        n_distinct = prepared.n_distinct
        frequencies = np.zeros((n_genomes, n_vectors), dtype=np.int64)
        uncovered = np.zeros(n_genomes, dtype=np.int64)
        if n_distinct == 0 or n_genomes == 0:
            return frequencies, uncovered

        orders = covering_orders(grid)
        ordered_grid = grid[np.arange(n_genomes)[:, None], orders]
        block_lanes = prepared.block_lanes  # (D, LW)
        lane_words = block_lanes.shape[-1]
        mv_lanes = _fused_mv_lanes(ordered_grid, block_lanes.dtype)
        counts = prepared.counts
        total_count = prepared.total_count
        # Match bits pack along the MV axis (padded to a power-of-two
        # word width), so first-match extraction is integer bit math on
        # one word per (genome, block) instead of an index reduction
        # over L — see _first_match_rank.
        padded_vectors = _rank_word_bits(n_vectors)

        chunk = max(
            1, CHUNK_TENSOR_ELEMENTS // max(1, n_vectors * n_distinct)
        )
        for start in range(0, n_genomes, chunk):
            stop = min(start + chunk, n_genomes)
            span = stop - start
            mv_chunk = mv_lanes[start:stop]  # (span, L, LW)
            first_rank = np.empty((span, n_distinct), dtype=np.int64)
            shards = self._shard_slices(
                n_distinct, span, n_vectors, block_lanes.itemsize
            )
            shard_cap = max(shard.stop - shard.start for shard in shards)
            # Reused per shard: the conflict tensor and the (padded)
            # match booleans; padding columns stay False so packed
            # match words never see a phantom MV.
            conflict_buf = np.empty(
                (span, shard_cap, n_vectors), dtype=block_lanes.dtype
            )
            match_buf = np.zeros(
                (span, shard_cap, padded_vectors), dtype=bool
            )
            covered_weight = np.zeros(span, dtype=np.float64)
            for shard in shards:
                size = shard.stop - shard.start
                conflict = conflict_buf[:, :size]
                matches = match_buf[:, :size]
                # One AND per (genome, MV, block): zero ⇔ match.  With
                # several lane words the per-word conflicts OR together
                # — still zero iff every word is clean.
                np.bitwise_and(
                    mv_chunk[:, None, :, 0],
                    block_lanes[shard, 0][None, :, None],
                    out=conflict,
                )  # (span, shard, L)
                for word in range(1, lane_words):
                    conflict |= (
                        mv_chunk[:, None, :, word]
                        & block_lanes[shard, word][None, :, None]
                    )
                np.equal(conflict, 0, out=matches[:, :, :n_vectors])
                rank, hit = _first_match_rank(matches)
                first_rank[:, shard] = rank
                # Covered weight (exact: integer-valued float64 sums).
                covered_weight += hit @ prepared.counts_f[shard]

            uncovered[start:stop] = total_count - covered_weight.astype(
                np.int64
            )
            complete = np.flatnonzero(uncovered[start:stop] == 0)
            if complete.size == 0:
                continue
            # Scatter-add block multiplicities per covering rank, then
            # map ranks back to declaration-order MV indices.
            flat = (
                np.arange(complete.size)[:, None] * n_vectors
                + first_rank[complete]
            )
            rank_frequencies = np.bincount(
                flat.ravel(),
                weights=np.broadcast_to(counts, flat.shape).ravel(),
                minlength=complete.size * n_vectors,
            ).reshape(complete.size, n_vectors)
            rows = start + complete
            frequencies[rows[:, None], orders[rows]] = rank_frequencies.astype(
                np.int64
            )
        return frequencies, uncovered
