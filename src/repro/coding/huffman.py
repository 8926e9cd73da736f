"""Huffman coding (Huffman 1952), as used for MV codeword assignment.

The paper assigns codewords to matching vectors by running Huffman's
algorithm on the frequencies-of-use collected during covering
(Section 3.3).  Matching vectors with frequency zero are simply left
out.  The degenerate single-symbol case receives a one-bit codeword so
that the stream remains self-delimiting.

Codewords are *canonical*: Huffman's algorithm fixes only the lengths;
we then number the codewords canonically (see
:func:`repro.coding.prefix.canonical_code_from_lengths`), which makes
results deterministic and the decoder table compact.

Two array-based fast paths back the EA's batched fitness engine
(`repro.core.fitness`), which only needs the *weighted total*
``Σ freq·len`` — not per-symbol codewords.  That total equals the sum
of all merge weights produced by Huffman's algorithm and is identical
for every optimal tree, so it can be computed with the classic
two-queue merge over sorted frequencies (:func:`huffman_total_bits`)
— no per-genome dict or heap construction anywhere on the hot path.
For a whole generation at once (:func:`huffman_total_bits_batch`,
:func:`huffman_length_stats_batch`) the merge runs in C, one call per
frequency matrix, whenever the native kernel library
(:mod:`repro.core.kernels.native`) is loaded.  Without a compiler the
batch functions fall back to one batched sort and the per-row Python
merges :func:`_merge_total` and :func:`_merge_stats`, which also
serve as the test oracle; every path returns the same integers.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Hashable, Mapping
from typing import NamedTuple

import numpy as np

from .prefix import PrefixCode

__all__ = [
    "HuffmanLengthStats",
    "huffman_code_lengths",
    "huffman_code",
    "huffman_length_stats",
    "huffman_length_stats_batch",
    "huffman_total_bits",
    "huffman_total_bits_batch",
    "weighted_length",
    "entropy_bound",
]

def _native_stats(freqs: np.ndarray) -> np.ndarray | None:
    """``(4, R)`` merge aggregates from the C routine, or ``None``.

    ``None`` when the native library is unavailable (or the matrix is
    not integer), leaving the caller on its Python merge.  Imported
    lazily because :mod:`repro.core` imports this module.
    """
    if freqs.dtype.kind not in "iu":
        return None
    from ..core.kernels.native import huffman_stats_rows

    return huffman_stats_rows(freqs)


def huffman_code_lengths(frequencies: Mapping[Hashable, int]) -> dict[Hashable, int]:
    """Compute optimal prefix-code lengths for the given frequencies.

    Zero-frequency symbols are excluded from the result (the paper
    allocates no codeword to unused matching vectors).  A single coded
    symbol gets length 1.

    >>> huffman_code_lengths({"a": 5, "b": 3, "c": 2})
    {'a': 1, 'b': 2, 'c': 2}
    """
    active = [(sym, freq) for sym, freq in frequencies.items() if freq > 0]
    for symbol, frequency in frequencies.items():
        if frequency < 0:
            raise ValueError(f"negative frequency {frequency} for {symbol!r}")
    if not active:
        return {}
    if len(active) == 1:
        return {active[0][0]: 1}

    counter = itertools.count()  # tie-breaker keeps the heap total-ordered
    heap: list[tuple[int, int, list[Hashable]]] = [
        (freq, next(counter), [sym]) for sym, freq in active
    ]
    heapq.heapify(heap)
    lengths = {sym: 0 for sym, _ in active}
    while len(heap) > 1:
        freq_a, _, symbols_a = heapq.heappop(heap)
        freq_b, _, symbols_b = heapq.heappop(heap)
        for symbol in symbols_a:
            lengths[symbol] += 1
        for symbol in symbols_b:
            lengths[symbol] += 1
        heapq.heappush(heap, (freq_a + freq_b, next(counter), symbols_a + symbols_b))
    return lengths


def huffman_total_bits(frequencies: np.ndarray) -> int:
    """Weighted Huffman length ``Σ freq·len`` of an array of frequencies.

    Zero frequencies are ignored (unused matching vectors receive no
    codeword); a single active symbol is priced at length 1, matching
    :func:`huffman_code_lengths`.  Uses the two-queue merge over sorted
    frequencies — merged weights emerge in non-decreasing order, so the
    smallest pending node is always at the head of one of two queues —
    and therefore needs no heap or symbol dict.

    >>> huffman_total_bits(np.asarray([5, 3, 2]))
    15
    """
    freqs = np.asarray(frequencies)
    if freqs.ndim != 1:
        raise ValueError("frequencies must be one-dimensional")
    if freqs.size and int(freqs.min()) < 0:
        raise ValueError("frequencies must be non-negative")
    return _merge_total(np.sort(freqs[freqs > 0]).tolist())


def _merge_total(leaves: list[int]) -> int:
    """Two-queue merge total over an ascending list of frequencies."""
    n_active = len(leaves)
    if n_active == 0:
        return 0
    if n_active == 1:
        return int(leaves[0])
    merged: list[int] = []
    leaf_head = merge_head = 0
    total = 0
    for _ in range(n_active - 1):
        pair = 0
        for _half in range(2):
            if merge_head >= len(merged) or (
                leaf_head < n_active and leaves[leaf_head] <= merged[merge_head]
            ):
                pair += leaves[leaf_head]
                leaf_head += 1
            else:
                pair += merged[merge_head]
                merge_head += 1
        merged.append(pair)
        total += pair
    return int(total)


def huffman_total_bits_batch(frequency_matrix: np.ndarray) -> np.ndarray:
    """Row-wise :func:`huffman_total_bits` over a ``(C, L)`` matrix.

    This is the batched fitness engine's pricing kernel: one call prices
    every genome of a generation.  With the native library loaded, an
    integer matrix runs through its C merge in one call.  Otherwise
    one batched sort feeds the per-row Python merge
    :func:`_merge_total` — same results on every path.

    Frequencies must be non-negative; zeros are inactive.  Returns an
    ``int64`` array of ``Σ freq·len`` per row (0 for all-zero rows,
    ``freq`` itself for single-symbol rows).

    >>> huffman_total_bits_batch(np.asarray([[5, 3, 2], [0, 7, 0]])).tolist()
    [15, 7]
    """
    freqs = np.asarray(frequency_matrix)
    if freqs.ndim != 2:
        raise ValueError("frequency matrix must be two-dimensional")
    n_rows, n_symbols = freqs.shape
    if n_rows == 0 or n_symbols == 0:
        return np.zeros(n_rows, dtype=np.int64)
    if freqs.size and int(freqs.min()) < 0:
        raise ValueError("frequencies must be non-negative")
    stats = _native_stats(freqs)
    if stats is not None:
        return stats[1]
    # One batched sort, then pure-Python merges on plain lists — no
    # per-row numpy call overhead.
    presorted = np.sort(freqs, axis=1).tolist()
    return np.asarray(
        [_merge_total([leaf for leaf in row if leaf > 0]) for row in presorted],
        dtype=np.int64,
    )


class HuffmanLengthStats(NamedTuple):
    """Aggregate code-length statistics of one optimal Huffman tree.

    ``n_active`` — symbols with a codeword (frequency > 0);
    ``total_bits`` — weighted length ``Σ freq·len``;
    ``sum_lengths`` — unweighted length sum ``Σ len`` (the decoder
    table's codeword storage); ``max_length`` — the longest codeword.
    Each field is a scalar for :func:`huffman_length_stats` and a
    per-row ``int64`` array for :func:`huffman_length_stats_batch`.
    """

    n_active: object
    total_bits: object
    sum_lengths: object
    max_length: object


def _merge_stats(leaves: list[int]) -> tuple[int, int, int, int]:
    """Two-queue merge over ascending frequencies, tracking lengths.

    Besides the running weight of each pending merged node (as in
    :func:`_merge_total`), tracks its leaf count and height: every merge
    deepens each leaf beneath it by one, so ``Σ len`` accumulates the
    merged leaf counts and the root's height is the longest codeword.
    Ties prefer the leaf queue, which reproduces the length *multiset*
    of :func:`huffman_code_lengths` (leaves there carry smaller heap
    tie-breakers than any merged node).
    """
    n_active = len(leaves)
    if n_active == 0:
        return (0, 0, 0, 0)
    if n_active == 1:
        return (1, int(leaves[0]), 1, 1)
    merged_weight: list[int] = []
    merged_leaves: list[int] = []
    merged_height: list[int] = []
    leaf_head = merge_head = 0
    total = sum_lengths = 0
    for _ in range(n_active - 1):
        pair_weight = 0
        pair_leaves = 0
        pair_height = 0
        for _half in range(2):
            if merge_head >= len(merged_weight) or (
                leaf_head < n_active
                and leaves[leaf_head] <= merged_weight[merge_head]
            ):
                pair_weight += leaves[leaf_head]
                pair_leaves += 1
                leaf_head += 1
            else:
                pair_weight += merged_weight[merge_head]
                pair_leaves += merged_leaves[merge_head]
                pair_height = max(pair_height, merged_height[merge_head])
                merge_head += 1
        merged_weight.append(pair_weight)
        merged_leaves.append(pair_leaves)
        merged_height.append(pair_height + 1)
        total += pair_weight
        sum_lengths += pair_leaves
    return (n_active, int(total), int(sum_lengths), int(merged_height[-1]))


def huffman_length_stats(frequencies: np.ndarray) -> HuffmanLengthStats:
    """Aggregate Huffman length statistics of one frequency array.

    Zero frequencies are inactive; a single active symbol is priced at
    length 1, exactly as in :func:`huffman_code_lengths`.  The returned
    aggregates (count, ``Σ freq·len``, ``Σ len``, ``max len``) match
    what :func:`huffman_code_lengths` would yield symbol-by-symbol —
    this is the scalar reference for the decoder-model objective
    columns (see :mod:`repro.core.decoder_hw`).

    >>> huffman_length_stats(np.asarray([5, 3, 2]))
    HuffmanLengthStats(n_active=3, total_bits=15, sum_lengths=5, max_length=2)
    """
    freqs = np.asarray(frequencies)
    if freqs.ndim != 1:
        raise ValueError("frequencies must be one-dimensional")
    if freqs.size and int(freqs.min()) < 0:
        raise ValueError("frequencies must be non-negative")
    return HuffmanLengthStats(*_merge_stats(np.sort(freqs[freqs > 0]).tolist()))


def huffman_length_stats_batch(frequency_matrix: np.ndarray) -> HuffmanLengthStats:
    """Row-wise :func:`huffman_length_stats` over a ``(C, L)`` matrix.

    Backs the batched multi-objective adapter: one call yields, for
    every genome of a generation, the codeword count, the coded-stream
    size ``Σ freq·len``, the decoder table's stored-codeword bits
    ``Σ len``, and the longest codeword.  Returns a
    :class:`HuffmanLengthStats` of four ``(C,)`` ``int64`` arrays.

    With the native library loaded, an integer matrix runs through
    its C merge in one call (the leaf-first tie rule of
    :func:`_merge_stats`).  Otherwise — Pareto pricing batches are
    generation-sized (tens of rows) — this uses one batched sort plus
    the per-row Python merge.

    >>> stats = huffman_length_stats_batch(np.asarray([[5, 3, 2], [0, 7, 0]]))
    >>> [column.tolist() for column in stats]
    [[3, 1], [15, 7], [5, 1], [2, 1]]
    """
    freqs = np.asarray(frequency_matrix)
    if freqs.ndim != 2:
        raise ValueError("frequency matrix must be two-dimensional")
    n_rows = freqs.shape[0]
    if freqs.size == 0:
        zeros = np.zeros(n_rows, dtype=np.int64)
        return HuffmanLengthStats(zeros, zeros.copy(), zeros.copy(), zeros.copy())
    if int(freqs.min()) < 0:
        raise ValueError("frequencies must be non-negative")
    native = _native_stats(freqs)
    if native is not None:
        return HuffmanLengthStats(*native)
    presorted = np.sort(freqs, axis=1).tolist()
    stats = [
        _merge_stats([leaf for leaf in row if leaf > 0]) for row in presorted
    ]
    columns = np.asarray(stats, dtype=np.int64).reshape(n_rows, 4)
    return HuffmanLengthStats(
        columns[:, 0], columns[:, 1], columns[:, 2], columns[:, 3]
    )


def huffman_code(frequencies: Mapping[Hashable, int]) -> PrefixCode:
    """Build a canonical Huffman :class:`PrefixCode` for ``frequencies``.

    >>> code = huffman_code({"a": 5, "b": 3, "c": 2})
    >>> sorted((s, len(w)) for s, w in code.as_dict().items())
    [('a', 1), ('b', 2), ('c', 2)]
    """
    return PrefixCode.from_lengths(huffman_code_lengths(frequencies))


def weighted_length(
    lengths: Mapping[Hashable, int], frequencies: Mapping[Hashable, int]
) -> int:
    """Total coded size ``Σ freq(s)·len(s)`` over symbols with a codeword."""
    return sum(
        frequencies.get(symbol, 0) * length for symbol, length in lengths.items()
    )


def entropy_bound(frequencies: Mapping[Hashable, int]) -> float:
    """Shannon lower bound (in bits) on any prefix coding of the stream.

    Huffman's weighted length always lies within ``[H, H + total)``
    where ``H`` is this bound — handy as a test oracle.
    """
    total = sum(freq for freq in frequencies.values() if freq > 0)
    if total == 0:
        return 0.0
    bound = 0.0
    for frequency in frequencies.values():
        if frequency > 0:
            probability = frequency / total
            bound -= frequency * math.log2(probability)
    return bound
