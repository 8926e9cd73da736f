"""Native compiled covering kernel: cc-built AND+popcount match loop.

The match test is the same fused-lane identity the bitpack kernel
uses — concatenate each block's ones/zeros bits into one 2K-bit lane
``[b₁|b₀]`` and each MV's zeros/ones bits into ``[mvᴢ|mv₁]``, and the
lanes AND to zero exactly when the MV matches the block — but the
whole covering of a generation lives in a small C library compiled on
first use (:mod:`repro.core.kernels.build`) instead of numpy ufunc
chains.  One ``repro_cover_grid`` call takes the raw ``(C, L, K)``
trit grid and, per genome,

* orders the MVs by unspecified-bit count (a stable counting sort,
  exactly the permutation ``np.argsort(NU, kind="stable")`` yields)
  and packs their fused lanes;
* runs the first-match loop — a branch-free 64-candidate match mask
  plus count-trailing-zeros for single-word lanes, an early-exit
  AND+popcount loop above — with no numpy temporaries;
* scatters the covered block multiplicities into per-MV frequencies
  in declaration order, or reports the genome uncoverable.

The same library carries ``repro_huffman_stats``, the two-queue
Huffman merge behind :func:`repro.coding.huffman.huffman_total_bits_batch`
and :func:`~repro.coding.huffman.huffman_length_stats_batch` (see
:func:`huffman_stats_rows`).

Lanes are always little-endian ``uint64`` words (the C ABI's one mask
type; see ``docs/native-kernel.md`` for the full contract).  The
optional OpenMP ``parallel for`` fans the D axis out across threads —
each block's first-match rank is an independent write, and the
frequencies are integer sums formed after the loop, so thread count
can never move a result, only the wall clock.  GNU libgomp is not
fork-safe: once a parent has run a parallel region, a forked child's
first region waits forever for pool threads the fork did not copy.
An at-fork hook therefore drops every forked child (e.g. a
``ProcessBackend`` worker) to one OpenMP thread, whether the library
was loaded before the fork or is first loaded in the child — process
fan-out already uses the cores.

When the toolchain is missing the registry reports this kernel
unavailable: ``auto`` falls back to bitpack and the Huffman batch
functions to their Python merge — a missing compiler can cost speed,
never a run.
"""

from __future__ import annotations

import ctypes
import os
import sys

import numpy as np

from ..blocks import BlockSet, mask_word_count
from .base import CoveringKernel, PreparedBlocks, prepare_fused_lanes
from .build import NativeBuildError, load_native_library

__all__ = [
    "NATIVE_C_SOURCE",
    "NativeKernel",
    "huffman_stats_rows",
    "native_status",
    "native_warning_emitted",
]

# The C ABI: one source, two entry points, one version probe.  Block
# lanes are little-endian uint64 words exactly as numpy packs them
# (repro.core.blocks.pack_bits_to_words); the grid is the int8 trit
# grid itself (0, 1, 2 = U); all scalars are int64 so the ctypes
# signatures cannot truncate a large table.  Both entry points
# allocate their own scratch per call (nothing is shared between
# concurrent callers) and return 0, or -1 when that allocation fails.
NATIVE_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_NATIVE_ABI 3

int64_t repro_native_abi_version(void) { return REPRO_NATIVE_ABI; }

/* Single-lane-word first match (2K <= 64, the paper's K = 12 regime):
 * a branch-free inner loop builds a 64-bit "which MVs match" mask per
 * chunk of 64 candidates — trivially auto-vectorized, no data-
 * dependent branches to mispredict — and the first match is one
 * count-trailing-zeros.  Measured ~5x over the early-exit scalar loop
 * on random (unpredictable-match) workloads. */
static int64_t repro_first_match_w1(uint64_t block,
                                    const uint64_t *mv,
                                    int64_t n_vectors)
{
    for (int64_t base = 0; base < n_vectors; base += 64) {
        int64_t n = n_vectors - base < 64 ? n_vectors - base : 64;
        uint64_t mask = 0;
        for (int64_t i = 0; i < n; ++i)
            mask |= (uint64_t)((block & mv[base + i]) == 0) << i;
        if (mask) return base + __builtin_ctzll(mask);
    }
    return n_vectors;
}

/* Multi-word lanes: fused AND + popcount accumulation across the lane
 * words — zero total popcount over every word means no conflicting
 * care bit anywhere, i.e. a match — with an early exit at the first
 * matching MV. */
static int64_t repro_first_match_wn(const uint64_t *block,
                                    const uint64_t *mv_rows,
                                    int64_t n_vectors,
                                    int64_t lane_words)
{
    for (int64_t l = 0; l < n_vectors; ++l) {
        const uint64_t *mv = mv_rows + l * lane_words;
        int conflict = 0;
        for (int64_t w = 0; w < lane_words; ++w)
            conflict += __builtin_popcountll(block[w] & mv[w]);
        if (conflict == 0) return l;
    }
    return n_vectors;
}

/* One genome into covering order: count each MV's U trits, stable
 * counting sort by that count (ties keep declaration order), and pack
 * the ordered MVs' fused lanes [mvZ|mv1].  Lane bit j of 2K sits at
 * exponent 2K-1-j, as pack_bits_to_words lays out the block lanes. */
static void repro_order_genome(const int8_t *genome,
                               int64_t n_vectors,
                               int64_t block_length,
                               int64_t lane_words,
                               int64_t *bucket,   /* K + 2 scratch */
                               int64_t *n_unspec, /* L scratch */
                               int64_t *order,    /* L out: rank -> MV */
                               uint64_t *lanes)   /* L x W out */
{
    memset(bucket, 0, (size_t)(block_length + 2) * sizeof(int64_t));
    for (int64_t l = 0; l < n_vectors; ++l) {
        const int8_t *mv = genome + l * block_length;
        int64_t count = 0;
        for (int64_t k = 0; k < block_length; ++k)
            count += mv[k] == 2;
        n_unspec[l] = count;
        ++bucket[count + 1];
    }
    for (int64_t u = 1; u <= block_length + 1; ++u)
        bucket[u] += bucket[u - 1];
    for (int64_t l = 0; l < n_vectors; ++l)
        order[bucket[n_unspec[l]]++] = l;
    memset(lanes, 0, (size_t)(n_vectors * lane_words) * sizeof(uint64_t));
    for (int64_t r = 0; r < n_vectors; ++r) {
        const int8_t *mv = genome + order[r] * block_length;
        uint64_t *lane = lanes + r * lane_words;
        for (int64_t k = 0; k < block_length; ++k) {
            int64_t exponent;
            if (mv[k] == 0) exponent = 2 * block_length - 1 - k;
            else if (mv[k] == 1) exponent = block_length - 1 - k;
            else continue;
            lane[exponent >> 6] |= (uint64_t)1 << (exponent & 63);
        }
    }
}

int64_t repro_cover_grid(const uint64_t *block_lanes, /* D x W fused [b1|b0] */
                         const int64_t  *counts,      /* D multiplicities */
                         const int8_t   *grid,        /* C x L x K trits */
                         int64_t n_genomes,
                         int64_t n_vectors,
                         int64_t n_distinct,
                         int64_t block_length,
                         int64_t lane_words,
                         int64_t *frequencies,        /* C x L out */
                         int64_t *uncovered)          /* C out */
{
    int64_t n_scratch = n_distinct + 3 * n_vectors + block_length + 3;
    int64_t *scratch = malloc((size_t)n_scratch * sizeof(int64_t));
    uint64_t *lanes = malloc((size_t)(n_vectors * lane_words + 1) * sizeof(uint64_t));
    if (scratch == NULL || lanes == NULL) {
        free(scratch);
        free(lanes);
        return -1;
    }
    int64_t *rank = scratch;                       /* D */
    int64_t *order = rank + n_distinct;            /* L */
    int64_t *n_unspec = order + n_vectors;         /* L */
    int64_t *weight = n_unspec + n_vectors;        /* L + 1 */
    int64_t *bucket = weight + n_vectors + 1;      /* K + 2 */
    for (int64_t c = 0; c < n_genomes; ++c) {
        repro_order_genome(grid + c * n_vectors * block_length, n_vectors,
                           block_length, lane_words, bucket, n_unspec,
                           order, lanes);
        /* Blocks are independent: one first-match rank per d. */
        if (lane_words == 1) {
            #pragma omp parallel for schedule(static)
            for (int64_t d = 0; d < n_distinct; ++d)
                rank[d] = repro_first_match_w1(block_lanes[d], lanes,
                                               n_vectors);
        } else {
            #pragma omp parallel for schedule(static)
            for (int64_t d = 0; d < n_distinct; ++d)
                rank[d] = repro_first_match_wn(block_lanes + d * lane_words,
                                               lanes, n_vectors, lane_words);
        }
        /* Integer sums after the loop: thread count moves the clock,
         * never a result.  Rank n_vectors collects unmatched blocks. */
        memset(weight, 0, (size_t)(n_vectors + 1) * sizeof(int64_t));
        for (int64_t d = 0; d < n_distinct; ++d)
            weight[rank[d]] += counts[d];
        int64_t *row = frequencies + c * n_vectors;
        uncovered[c] = weight[n_vectors];
        if (weight[n_vectors] != 0) {
            memset(row, 0, (size_t)n_vectors * sizeof(int64_t));
        } else {
            for (int64_t r = 0; r < n_vectors; ++r)
                row[order[r]] = weight[r];
        }
    }
    free(scratch);
    free(lanes);
    return 0;
}

static int repro_compare_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Per row: drop zero frequencies, sort the rest ascending, and run the
 * two-queue Huffman merge.  Ties prefer the leaf queue (the rule of
 * coding.huffman._merge_stats).  Writes the four HuffmanLengthStats
 * aggregates column-major: stats[s * n_rows + row] for s = n_active,
 * total_bits, sum_lengths, max_length. */
int64_t repro_huffman_stats(const int64_t *frequencies, /* R x L */
                            int64_t n_rows,
                            int64_t n_symbols,
                            int64_t *stats)              /* 4 x R out */
{
    int64_t *scratch = malloc((size_t)(4 * n_symbols + 1) * sizeof(int64_t));
    if (scratch == NULL) return -1;
    int64_t *leaves = scratch;
    int64_t *merged_weight = leaves + n_symbols;
    int64_t *merged_leaves = merged_weight + n_symbols;
    int64_t *merged_height = merged_leaves + n_symbols;
    for (int64_t row = 0; row < n_rows; ++row) {
        const int64_t *freq = frequencies + row * n_symbols;
        int64_t n_active = 0;
        for (int64_t s = 0; s < n_symbols; ++s)
            if (freq[s] > 0) leaves[n_active++] = freq[s];
        int64_t total = 0, sum_lengths = 0, max_length = 0;
        if (n_active == 1) {
            total = leaves[0];
            sum_lengths = max_length = 1;
        } else if (n_active > 1) {
            qsort(leaves, (size_t)n_active, sizeof(int64_t),
                  repro_compare_int64);
            int64_t leaf_head = 0, merge_head = 0, merge_tail = 0;
            for (int64_t step = 0; step < n_active - 1; ++step) {
                int64_t pair_weight = 0, pair_leaves = 0, pair_height = 0;
                for (int half = 0; half < 2; ++half) {
                    if (merge_head >= merge_tail
                        || (leaf_head < n_active
                            && leaves[leaf_head] <= merged_weight[merge_head])) {
                        pair_weight += leaves[leaf_head++];
                        pair_leaves += 1;
                    } else {
                        pair_weight += merged_weight[merge_head];
                        pair_leaves += merged_leaves[merge_head];
                        if (merged_height[merge_head] > pair_height)
                            pair_height = merged_height[merge_head];
                        ++merge_head;
                    }
                }
                merged_weight[merge_tail] = pair_weight;
                merged_leaves[merge_tail] = pair_leaves;
                merged_height[merge_tail] = pair_height + 1;
                ++merge_tail;
                total += pair_weight;
                sum_lengths += pair_leaves;
            }
            max_length = merged_height[merge_tail - 1];
        }
        stats[row] = n_active;
        stats[n_rows + row] = total;
        stats[2 * n_rows + row] = sum_lengths;
        stats[3 * n_rows + row] = max_length;
    }
    free(scratch);
    return 0;
}
"""

_SYMBOLS = ("repro_native_abi_version", "repro_cover_grid", "repro_huffman_stats")
_ABI_VERSION = 3

# Process-wide load state: (library or None, unavailability reason).
# One attempt per process — a compile failure is not going to heal
# between fitness calls — and ONE stderr warning when it fails, so a
# toolchain-less machine sees exactly one line, not one per command.
# The warning is additionally debounced across the whole process
# *tree* through an environment marker: a long-lived daemon (or a
# process-pool backend) respawns workers that inherit the parent's
# environment, and each respawn re-warning would turn one missing
# toolchain into a stderr flood.  The marker is set by whichever
# process warns first; children see it and stay quiet.  The
# unavailability reason itself stays queryable via
# :func:`native_status` (the serve daemon surfaces it in ``/stats``).
_LOADED: tuple[ctypes.CDLL | None, str | None] | None = None
_WARNED = False
_WARNED_MARKER_ENV = "REPRO_NATIVE_WARNED"
# Set in every forked child: a library loaded there runs one thread.
_FORKED_CHILD = False

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64


def _load_library() -> tuple[ctypes.CDLL | None, str | None]:
    global _LOADED, _WARNED
    if _LOADED is None:
        try:
            library = load_native_library(NATIVE_C_SOURCE, _SYMBOLS)
            library.repro_native_abi_version.restype = _INT
            abi = int(library.repro_native_abi_version())
            if abi != _ABI_VERSION:
                raise NativeBuildError(
                    f"ABI version {abi}, this build expects {_ABI_VERSION}"
                )
            library.repro_cover_grid.argtypes = (
                (_POINTER,) * 3 + (_INT,) * 5 + (_POINTER,) * 2
            )
            library.repro_cover_grid.restype = _INT
            library.repro_huffman_stats.argtypes = (_POINTER, _INT, _INT, _POINTER)
            library.repro_huffman_stats.restype = _INT
            _LOADED = (library, None)
            if _FORKED_CHILD:
                _single_openmp_thread(library)
        except NativeBuildError as error:
            _LOADED = (None, str(error))
            if not _WARNED and _WARNED_MARKER_ENV not in os.environ:
                _WARNED = True
                os.environ[_WARNED_MARKER_ENV] = "1"
                print(
                    f"warning: native kernel unavailable ({error}); "
                    "auto kernel selection falls back to bitpack",
                    file=sys.stderr,
                )
    return _LOADED


def _single_openmp_thread(library: ctypes.CDLL) -> None:
    set_threads = getattr(library, "omp_set_num_threads", None)
    if set_threads is not None:
        set_threads(1)


def _single_thread_after_fork() -> None:
    """Run a forked child's OpenMP regions on one thread (no hang).

    Covers a library the parent had loaded and, through the flag, one
    the child loads itself: either way a pool worker would otherwise
    start one OpenMP thread per core and oversubscribe the machine.
    """
    global _FORKED_CHILD
    _FORKED_CHILD = True
    if _LOADED is not None and _LOADED[0] is not None:
        _single_openmp_thread(_LOADED[0])


os.register_at_fork(after_in_child=_single_thread_after_fork)


def native_status() -> tuple[bool, str | None]:
    """(available, unavailability reason) — compiles on first call.

    The registry's availability hook: ``auto`` selection and ``repro
    kernels`` both ask this instead of trying (and failing) to
    construct the kernel.
    """
    library, reason = _load_library()
    return library is not None, reason


def native_warning_emitted() -> bool:
    """Whether the unavailable warning fired in this process tree.

    True when this process warned or inherited the environment marker
    from an ancestor that did — the flag the serve daemon's ``/stats``
    reports so operators can see a swallowed warning.
    """
    return _WARNED or _WARNED_MARKER_ENV in os.environ


def _reset_native_state() -> None:
    """Forget the process-wide load attempt (tests only)."""
    global _LOADED, _WARNED
    _LOADED = None
    _WARNED = False
    os.environ.pop(_WARNED_MARKER_ENV, None)


def _checked(status: int) -> None:
    if status != 0:
        raise MemoryError("native kernel could not allocate its scratch")


def huffman_stats_rows(frequencies: np.ndarray) -> np.ndarray | None:
    """``(4, R)`` Huffman aggregates of an ``(R, L)`` matrix, or ``None``.

    Rows are ``n_active``, ``total_bits``, ``sum_lengths`` and
    ``max_length`` — :func:`repro.coding.huffman._merge_stats` per row,
    computed by the library's ``repro_huffman_stats``.  Returns
    ``None`` when the library is unavailable, so the caller keeps its
    Python merge.  ``frequencies`` must be non-negative.
    """
    library = _load_library()[0]
    if library is None:
        return None
    frequencies = np.ascontiguousarray(frequencies, dtype=np.int64)
    n_rows, n_symbols = frequencies.shape
    stats = np.empty((4, n_rows), dtype=np.int64)
    _checked(
        library.repro_huffman_stats(
            frequencies.ctypes.data, n_rows, n_symbols, stats.ctypes.data
        )
    )
    return stats


class NativeKernel(CoveringKernel):
    """Covering kernel backed by the cc-compiled covering pass.

    Construction loads (compiling on first use) the shared library;
    it raises :class:`~repro.core.kernels.build.NativeBuildError` when
    the toolchain is missing — resolve through the registry (which
    checks :func:`native_status` first) rather than constructing
    directly when the fallback chain matters.
    """

    name = "native"

    def __init__(self) -> None:
        library, reason = _load_library()
        if library is None:
            raise NativeBuildError(reason)
        self._library = library

    # ctypes.CDLL handles do not pickle; ProcessBackend workers rebuild
    # the kernel from the shared on-disk build cache instead (a dlopen,
    # not a recompile — compile-once is the build module's lock).
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()

    def prepare(self, blocks: BlockSet) -> PreparedBlocks:
        # Memmap lanes of an out-of-core table stream from disk page
        # by page through the mapped pointer the C loop reads.
        return prepare_fused_lanes(blocks, np.dtype(np.uint64))

    def cover_grid(
        self, prepared: PreparedBlocks, grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        n_genomes, n_vectors, block_length = grid.shape
        block_lanes = prepared.block_lanes
        lane_words = mask_word_count(2 * block_length)
        # The C pass reads D x W uint64 lane words and writes W words per
        # MV lane: a table prepared by another kernel, or for another K,
        # would send it out of bounds.
        if (
            block_lanes.dtype != np.uint64
            or block_lanes.shape != (prepared.n_distinct, lane_words)
            or not block_lanes.flags.c_contiguous
        ):
            raise ValueError(
                f"prepared block lanes {block_lanes.dtype}{block_lanes.shape} "
                f"do not fit this kernel at K={block_length}"
            )
        frequencies = np.empty((n_genomes, n_vectors), dtype=np.int64)
        uncovered = np.empty(n_genomes, dtype=np.int64)
        grid = np.ascontiguousarray(grid, dtype=np.int8)
        _checked(
            self._library.repro_cover_grid(
                block_lanes.ctypes.data,
                prepared.counts.ctypes.data,
                grid.ctypes.data,
                n_genomes,
                n_vectors,
                prepared.n_distinct,
                block_length,
                lane_words,
                frequencies.ctypes.data,
                uncovered.ctypes.data,
            )
        )
        return frequencies, uncovered
