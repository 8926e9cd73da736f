"""Float32 GEMM covering kernel (the PR-1 batched matcher).

Blocks and MVs are unpacked into 0/1 *bit matrices* and per-(block,
MV) conflict counts come from one float32 matrix product —
``conflicts = [b₁|b₀] · [mvᴢ|mv₁]ᵀ`` is zero exactly when the MV
matches the block — so the heavy lifting runs inside BLAS.  The MV
axis is pre-permuted into covering order, which turns
first-match-in-priority-order into a plain ``argmax`` over the
conflict-free booleans.  Work is chunked over genomes so each
``(D, chunk·L)`` conflict matrix stays cache-resident, and genomes
that fail to cover every block take an early exit (exact ``uncovered``
count, no frequency or assignment work).

Strong where BLAS is strong: compute-dense shapes with a modest
distinct-block table.  On large tables the 4-byte-per-bit matrices
make it memory-bandwidth bound — that regime belongs to the
bit-packed kernel (:mod:`repro.core.kernels.bitpack`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blocks import masks_as_words, unpack_words_to_bits
from ..trits import ONE, ZERO
from .base import CoveringKernel, PreparedBlocks, accumulate_complete_rows

__all__ = ["GemmKernel", "cover_bits_batch", "unpack_mask_bits"]

# Genome-chunk sizing: keep each (D, chunk·L) float32 conflict matrix
# at or below this many elements (~4 MiB), so a chunk's conflict and
# match tensors stay cache-resident end to end.
_BATCH_TENSOR_ELEMENTS = 1 << 20


def unpack_mask_bits(masks: np.ndarray, block_length: int) -> np.ndarray:
    """Unpack uint64 masks into a float32 0/1 bit matrix.

    ``masks`` may be flat single-word values or ``(..., W)`` word
    arrays; the output appends a ``block_length`` axis with position 0
    (the MSB) first — the layout the GEMM kernel multiplies against.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    if masks.ndim >= 1 and block_length > 64:
        return unpack_words_to_bits(masks, block_length).astype(np.float32)
    shifts = np.arange(block_length - 1, -1, -1, dtype=np.uint64)
    return ((masks[..., None] >> shifts) & np.uint64(1)).astype(np.float32)


def cover_bits_batch(
    block_bits: np.ndarray,
    block_counts: np.ndarray,
    mv_bits: np.ndarray,
    covering_order: np.ndarray,
    want_assignment: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GEMM covering core over pre-unpacked bit matrices.

    ``block_bits`` is the fixed ``(D, 2K)`` ``[b₁|b₀]`` table;
    ``mv_bits`` is ``(C, L, 2K)`` ``[mvᴢ|mv₁]`` rows *already permuted
    into covering order* (row ``j`` of genome ``c`` is the MV tried
    ``j``-th); ``covering_order`` maps that rank back to MV indices.
    Returns ``(assignment, frequencies, uncovered)`` with shapes
    ``(C, D)``, ``(C, L)`` and ``(C,)``; with ``want_assignment=False``
    the ``(C, D)`` assignment matrix is skipped (all ``-1``) — the
    batched fitness only needs frequencies, which stay in MV index
    space.
    """
    n_genomes, n_vectors = mv_bits.shape[:2]
    n_distinct = block_bits.shape[0]
    order = np.atleast_2d(covering_order)
    assignment = np.full((n_genomes, n_distinct), -1, dtype=np.int64)
    frequencies = np.zeros((n_genomes, n_vectors), dtype=np.int64)
    uncovered = np.zeros(n_genomes, dtype=np.int64)
    if n_distinct == 0 or n_genomes == 0:
        return assignment, frequencies, uncovered

    counts = np.asarray(block_counts, dtype=np.int64)
    counts_f = counts.astype(np.float64)  # exact to 2**53 in the dot
    total_count = int(counts.sum())
    chunk = max(1, _BATCH_TENSOR_ELEMENTS // max(1, n_vectors * n_distinct))
    for start in range(0, n_genomes, chunk):
        stop = min(start + chunk, n_genomes)
        span = stop - start
        conflicts = block_bits @ mv_bits[start:stop].reshape(
            span * n_vectors, -1
        ).T  # (D, span·L) GEMM — the kernel's hot loop lives in BLAS
        matches = (conflicts == 0).reshape(n_distinct, span, n_vectors)
        # argmax finds the first priority-ordered match; on an all-False
        # row it points at 0, so gathering the hit tells coverage too.
        first_rank = matches.argmax(axis=2)  # (D, span)
        covered = np.take_along_axis(matches, first_rank[:, :, None], axis=2)[
            :, :, 0
        ]
        uncovered[start:stop] = total_count - (counts_f @ covered).astype(
            np.int64
        )
        complete = uncovered[start:stop] == 0  # (span,)
        if not complete.any():
            continue
        # Early exit: frequency/assignment work only for complete genomes.
        sub = np.flatnonzero(complete)
        accumulate_complete_rows(
            assignment,
            frequencies,
            start,
            sub,
            first_rank[:, sub].T,
            order,
            counts,
            want_assignment,
        )
    return assignment, frequencies, uncovered


@dataclass(frozen=True)
class _GemmPrepared(PreparedBlocks):
    """Adds the fixed ``(D, 2K)`` float32 ``[b₁|b₀]`` bit table."""

    block_bits: np.ndarray = None


class GemmKernel(CoveringKernel):
    """The float32 GEMM covering kernel."""

    name = "gemm"

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
        block_bits = np.concatenate(
            [
                unpack_words_to_bits(
                    masks_as_words(block_ones), block_length
                ).astype(np.float32),
                unpack_words_to_bits(
                    masks_as_words(block_zeros), block_length
                ).astype(np.float32),
            ],
            axis=1,
        )
        return _GemmPrepared(**vars(base), block_bits=block_bits)

    def cover_ordered_words(
        self,
        prepared: PreparedBlocks,
        ordered_ones: np.ndarray,
        ordered_zeros: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        block_length = prepared.block_length
        mv_bits = np.concatenate(
            [
                unpack_words_to_bits(ordered_zeros, block_length).astype(
                    np.float32
                ),
                unpack_words_to_bits(ordered_ones, block_length).astype(
                    np.float32
                ),
            ],
            axis=2,
        )  # (C, L, 2K) [mvᴢ|mv₁]
        return cover_bits_batch(
            prepared.block_bits,
            prepared.counts,
            mv_bits,
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
        # Fast path: MV bit rows straight from the trit grid — no
        # intermediate uint64 packing on the fitness hot path.
        mv_bits = np.concatenate(
            [ordered_grid == ZERO, ordered_grid == ONE], axis=2
        ).astype(np.float32)
        return cover_bits_batch(
            prepared.block_bits,
            prepared.counts,
            mv_bits,
            np.atleast_2d(np.asarray(orders, dtype=np.int64)),
            want_assignment=want_assignment,
        )
