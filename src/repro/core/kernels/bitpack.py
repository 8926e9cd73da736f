"""Bit-packed covering kernel: fused integer conflict lanes.

The match test ``(b₁ & mvᴢ) | (b₀ & mv₁) == 0`` is equivalent to one
AND over a *fused conflict lane*: concatenate each block's ones and
zeros bits into a single 2K-bit word ``[b₁|b₀]`` and each MV's zeros
and ones bits into ``[mvᴢ|mv₁]`` — the lanes AND to zero exactly when
the MV matches the block.  Lanes are stored at the narrowest integer
width that holds 2K bits (uint8/16/32/64, multi-word above 64), so at
the paper's K = 12 a block costs 4 bytes instead of the 96 bytes of
float32 bit matrix the GEMM kernel streams — and the whole match
reduces to one integer AND plus an ``argmin`` (the first zero in
covering order *is* the first minimum when a zero exists; when none
exists the gathered value is nonzero, which is exactly the
uncovered test).  No floats, no popcounts, no BLAS.

Two axes of blocking keep every temporary cache-resident:

* **Genome chunking** (the same scheme the GEMM kernel uses) bounds
  the per-chunk rank matrices;
* **Block-table sharding** splits the D axis so each
  ``(chunk, L, shard)`` conflict tensor fits in cache no matter how
  large the distinct table grows.  Shards are independent — covering
  rank and covered weight per shard — and only tiny per-genome
  reductions cross shard boundaries, so shards can also fan out
  across threads (``shard_backend``): the integer ufuncs release the
  GIL, making a :class:`~repro.parallel.ThreadBackend` an honest
  parallel axis inside one fitness call.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np

from ..blocks import (
    mask_word_count,
    pack_bits_to_words,
    unpack_words_to_bits,
)
from ..trits import ONE, ZERO
from .base import (
    CoveringKernel,
    PreparedBlocks,
    accumulate_complete_rows,
    first_match_rank,
    rank_word_bits,
)

__all__ = ["BitpackKernel"]

# Per-shard conflict tensors hold chunk·L·shard lane elements; this
# byte bound keeps a shard's temporaries inside typical L2 slices.
_SHARD_TENSOR_BYTES = 1 << 21

# Genome chunks bound the (chunk, D) rank matrix and amortize the
# Python-level shard loop.
_CHUNK_TENSOR_ELEMENTS = 1 << 20


def _lane_dtype(lane_bits: int) -> np.dtype:
    """Narrowest unsigned dtype holding one 2K-bit conflict lane."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if lane_bits <= np.dtype(dtype).itemsize * 8:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack ``(..., 2K)`` 0/1 bits into ``(..., LW)`` conflict lanes."""
    lane_bits = bits.shape[-1]
    words = pack_bits_to_words(bits)
    dtype = _lane_dtype(lane_bits)
    if dtype != np.dtype(np.uint64):
        words = words.astype(dtype)
    return words


@dataclass(frozen=True)
class _BitpackPrepared(PreparedBlocks):
    """Adds the fused ``(D, LW)`` block conflict lanes ``[b₁|b₀]``."""

    block_lanes: np.ndarray = None


class BitpackKernel(CoveringKernel):
    """Integer conflict-lane covering kernel with D-axis sharding.

    Parameters
    ----------
    shard_size:
        Distinct blocks per shard; ``None`` picks a size that keeps
        each shard's conflict tensor at ``_SHARD_TENSOR_BYTES``.
    shard_backend:
        Optional :class:`repro.parallel.ExecutionBackend` used to fan
        the independent shards of each genome chunk out across
        threads.  Workers fill disjoint result slices, so the backend
        never changes the outcome, only the wall clock.
    """

    name = "bitpack"

    def __init__(self, shard_size: int | None = None, shard_backend=None) -> None:
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self._shard_size = shard_size
        self._shard_backend = shard_backend

    def prepare_masks(
        self,
        block_ones: np.ndarray,
        block_zeros: np.ndarray,
        block_counts: np.ndarray,
        block_length: int,
    ) -> PreparedBlocks:
        base = self._base_prepared(
            block_ones, block_zeros, block_counts, block_length
        )
        ones_words = base.ones_words
        zeros_words = base.zeros_words
        n_distinct = base.n_distinct
        lane_bits = 2 * block_length
        lane_words = mask_word_count(lane_bits)
        lane_dtype = _lane_dtype(lane_bits)
        # Out-of-core tables (np.memmap masks — see core.blocks_io)
        # get memmap lanes over an anonymous temp file, so the shard
        # loop in _cover_lanes streams them from disk page by page and
        # preparation never materializes a D-sized array in RAM.
        if isinstance(block_ones, np.memmap) or isinstance(
            block_zeros, np.memmap
        ):
            spool = tempfile.TemporaryFile()
            block_lanes = np.memmap(
                spool, dtype=lane_dtype, mode="w+",
                shape=(n_distinct, lane_words),
            )
        else:
            block_lanes = np.empty(
                (n_distinct, lane_words), dtype=lane_dtype
            )
        # Chunk the D axis: the (chunk, 2K) unpacked-bit intermediate
        # is the preparation's RAM high-water mark, so bound it instead
        # of building it for the whole table at once.
        chunk = max(1, _CHUNK_TENSOR_ELEMENTS // max(1, lane_bits))
        for start in range(0, n_distinct, chunk):
            stop = min(start + chunk, n_distinct)
            bits = np.concatenate(
                [
                    unpack_words_to_bits(
                        np.asarray(ones_words[start:stop]), block_length
                    ),
                    unpack_words_to_bits(
                        np.asarray(zeros_words[start:stop]), block_length
                    ),
                ],
                axis=1,
            )
            block_lanes[start:stop] = _pack_lanes(bits)
        return _BitpackPrepared(**vars(base), block_lanes=block_lanes)

    # -- lane construction --------------------------------------------

    @staticmethod
    def _mv_lanes_from_words(
        ordered_ones: np.ndarray,
        ordered_zeros: np.ndarray,
        block_length: int,
    ) -> np.ndarray:
        bits = np.concatenate(
            [
                unpack_words_to_bits(ordered_zeros, block_length),
                unpack_words_to_bits(ordered_ones, block_length),
            ],
            axis=2,
        )
        return _pack_lanes(bits)

    # -- covering core ------------------------------------------------

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

    def _cover_lanes(
        self,
        prepared: _BitpackPrepared,
        mv_lanes: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_genomes, n_vectors = mv_lanes.shape[:2]
        n_distinct = prepared.n_distinct
        assignment, frequencies, uncovered = self._empty_results(
            n_genomes, n_vectors, n_distinct
        )
        if n_distinct == 0 or n_genomes == 0:
            return assignment, frequencies, uncovered

        block_lanes = prepared.block_lanes  # (D, LW)
        lane_words = block_lanes.shape[-1]
        counts = prepared.counts
        total_count = prepared.total_count
        # Match bits pack along the MV axis (padded to a power-of-two
        # word width), so first-match extraction is integer bit math on
        # one word per (genome, block) instead of an index reduction
        # over L — see base.first_match_rank.
        padded_vectors = rank_word_bits(n_vectors)

        chunk = max(
            1, _CHUNK_TENSOR_ELEMENTS // max(1, n_vectors * n_distinct)
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

            def cover_shard(
                shard: slice,
                conflict_buf=conflict_buf,
                match_buf=match_buf,
            ) -> np.ndarray:
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
                rank, hit = first_match_rank(matches)
                first_rank[:, shard] = rank  # disjoint slice per shard
                # Covered weight (exact: integer-valued float64 sums).
                return hit @ prepared.counts_f[shard]

            backend = self._shard_backend
            if backend is None or len(shards) == 1:
                partials = [cover_shard(shard) for shard in shards]
            else:
                # Workers fill disjoint `first_rank` slices and hand
                # their weight vectors back through the ordered map, so
                # the reduction below is single-threaded and the result
                # is independent of worker scheduling.  Each worker
                # gets private scratch buffers — the shared ones would
                # race.
                def cover_shard_private(shard: slice) -> np.ndarray:
                    size = shard.stop - shard.start
                    return cover_shard(
                        shard,
                        conflict_buf=np.empty(
                            (span, size, n_vectors), dtype=block_lanes.dtype
                        ),
                        match_buf=np.zeros(
                            (span, size, padded_vectors), dtype=bool
                        ),
                    )

                partials = backend.map(cover_shard_private, shards)

            covered_weight = np.sum(partials, axis=0)
            uncovered[start:stop] = total_count - covered_weight.astype(
                np.int64
            )
            complete = uncovered[start:stop] == 0
            if not complete.any():
                continue
            sub = np.flatnonzero(complete)
            accumulate_complete_rows(
                assignment,
                frequencies,
                start,
                sub,
                first_rank[sub],
                orders,
                counts,
                want_assignment,
            )
        return assignment, frequencies, uncovered

    # -- kernel entry points ------------------------------------------

    def cover_ordered_words(
        self,
        prepared: PreparedBlocks,
        ordered_ones: np.ndarray,
        ordered_zeros: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mv_lanes = self._mv_lanes_from_words(
            ordered_ones, ordered_zeros, prepared.block_length
        )
        return self._cover_lanes(prepared, mv_lanes, orders, want_assignment)

    def cover_grid(
        self,
        prepared: PreparedBlocks,
        ordered_grid: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Fast path: conflict lanes straight from the trit grid.
        bits = np.concatenate(
            [ordered_grid == ZERO, ordered_grid == ONE], axis=2
        )
        mv_lanes = _pack_lanes(bits)
        return self._cover_lanes(
            prepared,
            mv_lanes,
            np.atleast_2d(np.asarray(orders, dtype=np.int64)),
            want_assignment,
        )
