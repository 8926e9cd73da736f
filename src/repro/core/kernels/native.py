"""Native compiled covering kernel: cc-built AND+popcount match loop.

The match test is the same fused-lane identity the bitpack kernel
uses — concatenate each block's ones/zeros bits into one 2K-bit lane
``[b₁|b₀]`` and each MV's zeros/ones bits into ``[mvᴢ|mv₁]``, and the
lanes AND to zero exactly when the MV matches the block — but the
loop lives in a small C library compiled on first use
(:mod:`repro.core.kernels.build`) instead of numpy ufunc chains.  That
buys three things the array path cannot have:

* **no temporaries** — the ``(span, shard, L)`` conflict tensors and
  padded match booleans the bitpack kernel streams through memory
  simply do not exist; each ``(genome, block)`` pair is priced in
  registers;
* **first-match early exit** — the C loop stops at the first matching
  MV, pricing an average of ~L/2 candidates per block where the array
  kernels must materialize all L;
* **one fused pass** — conflict AND, ``__builtin_popcountll`` zero
  test, first-match rank and covered-weight accumulation happen in a
  single traversal per genome.

Lanes are always little-endian ``uint64`` words (the C ABI's one mask
type; see ``docs/native-kernel.md`` for the full contract).  The
optional OpenMP ``parallel for`` fans the D axis out across threads —
the per-block results (rank, covered weight) are independent, and the
weight reduction is an integer sum, so thread count can never move a
result, only the wall clock.  GNU libgomp is not fork-safe: once a
parent has run a parallel region, a forked child's first region waits
forever for pool threads the fork did not copy.  An at-fork hook
therefore drops every forked child (e.g. a ``ProcessBackend`` worker)
to one OpenMP thread.

Results are assembled from the C core's ``(first_rank, covered)``
through the same :func:`~repro.core.kernels.base.accumulate_complete_rows`
helper the bitpack kernel uses, so the backends cannot drift apart;
the cross-kernel property suite pins bit-identity on top.  When the
toolchain is missing the registry reports this kernel unavailable and
``auto`` falls back to bitpack — a missing compiler can cost speed,
never a run.
"""

from __future__ import annotations

import ctypes
import os
import sys
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
)
from .build import NativeBuildError, load_native_library

__all__ = [
    "NATIVE_C_SOURCE",
    "NativeKernel",
    "native_status",
    "native_warning_emitted",
]

# Genome chunks bound the (chunk, D) rank matrix handed back by the C
# core (same budget as the bitpack kernel's chunking).
_CHUNK_TENSOR_ELEMENTS = 1 << 20

# The C ABI: one source, one entry point, one version probe.  Masks
# are little-endian uint64 word lanes exactly as numpy packs them
# (repro.core.blocks.pack_bits_to_words); all scalars are int64 so the
# ctypes signatures cannot truncate a large table.  `first_rank`
# receives the covering rank of each (genome, block) first match, or
# n_vectors when nothing matches; `covered` receives the exact integer
# covered weight per genome.  The popcount of the ANDed lane words is
# the match test: zero popcount ⇔ no conflicting care bit ⇔ match.
NATIVE_C_SOURCE = r"""
#include <stdint.h>

#define REPRO_NATIVE_ABI 2

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

void repro_cover(const uint64_t *block_lanes,  /* D x W fused [b1|b0] */
                 const int64_t  *counts,       /* D block multiplicities */
                 const uint64_t *mv_lanes,     /* C x L x W fused [mvZ|mv1] */
                 int64_t n_genomes,
                 int64_t n_vectors,
                 int64_t n_distinct,
                 int64_t lane_words,
                 int64_t *first_rank,          /* C x D out; n_vectors = no match */
                 int64_t *covered)             /* C out; exact covered weight */
{
    for (int64_t c = 0; c < n_genomes; ++c) {
        const uint64_t *genome = mv_lanes + c * n_vectors * lane_words;
        int64_t *rank_row = first_rank + c * n_distinct;
        int64_t weight = 0;
        /* Blocks are independent: rank and weight per d, one integer
         * reduction.  Thread count moves the clock, never a result. */
        if (lane_words == 1) {
            #pragma omp parallel for reduction(+:weight) schedule(static)
            for (int64_t d = 0; d < n_distinct; ++d) {
                int64_t rank = repro_first_match_w1(
                    block_lanes[d], genome, n_vectors);
                rank_row[d] = rank;
                if (rank < n_vectors) weight += counts[d];
            }
        } else {
            #pragma omp parallel for reduction(+:weight) schedule(static)
            for (int64_t d = 0; d < n_distinct; ++d) {
                int64_t rank = repro_first_match_wn(
                    block_lanes + d * lane_words, genome,
                    n_vectors, lane_words);
                rank_row[d] = rank;
                if (rank < n_vectors) weight += counts[d];
            }
        }
        covered[c] = weight;
    }
}
"""

_SYMBOLS = ("repro_native_abi_version", "repro_cover")
_ABI_VERSION = 2

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


def _load_library() -> tuple[ctypes.CDLL | None, str | None]:
    global _LOADED, _WARNED
    if _LOADED is None:
        try:
            library = load_native_library(NATIVE_C_SOURCE, _SYMBOLS)
            library.repro_native_abi_version.restype = ctypes.c_int64
            abi = int(library.repro_native_abi_version())
            if abi != _ABI_VERSION:
                raise NativeBuildError(
                    f"ABI version {abi}, this build expects {_ABI_VERSION}"
                )
            library.repro_cover.restype = None
            _LOADED = (library, None)
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


def _single_thread_after_fork() -> None:
    """Run a forked child's OpenMP regions on one thread (no hang)."""
    library = _LOADED[0] if _LOADED is not None else None
    set_threads = getattr(library, "omp_set_num_threads", None)
    if set_threads is not None:
        set_threads(1)


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


def _as_uint64_pointer(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))


def _as_int64_pointer(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


@dataclass(frozen=True)
class _NativePrepared(PreparedBlocks):
    """Adds C-contiguous ``(D, W)`` uint64 fused lanes ``[b₁|b₀]``."""

    block_lanes: np.ndarray = None


class NativeKernel(CoveringKernel):
    """Covering kernel backed by the cc-compiled AND+popcount loop.

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

    # -- preparation --------------------------------------------------

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
        n_distinct = base.n_distinct
        lane_words = mask_word_count(2 * block_length)
        # Out-of-core tables (np.memmap masks) get memmap lanes over an
        # anonymous temp file, as in the bitpack kernel: the C loop
        # streams them from disk page by page via the mapped pointer.
        if isinstance(block_ones, np.memmap) or isinstance(
            block_zeros, np.memmap
        ):
            spool = tempfile.TemporaryFile()
            block_lanes = np.memmap(
                spool, dtype=np.uint64, mode="w+",
                shape=(n_distinct, lane_words),
            )
        else:
            block_lanes = np.empty((n_distinct, lane_words), dtype=np.uint64)
        # Chunk the D axis so the unpacked-bit intermediate stays
        # bounded (same budget as the bitpack kernel's preparation).
        chunk = max(1, _CHUNK_TENSOR_ELEMENTS // max(1, 2 * block_length))
        for start in range(0, n_distinct, chunk):
            stop = min(start + chunk, n_distinct)
            bits = np.concatenate(
                [
                    unpack_words_to_bits(
                        np.asarray(base.ones_words[start:stop]), block_length
                    ),
                    unpack_words_to_bits(
                        np.asarray(base.zeros_words[start:stop]), block_length
                    ),
                ],
                axis=1,
            )
            block_lanes[start:stop] = pack_bits_to_words(bits)
        return _NativePrepared(**vars(base), block_lanes=block_lanes)

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
            axis=-1,
        )
        return np.ascontiguousarray(pack_bits_to_words(bits))

    # -- covering core ------------------------------------------------

    def _cover_lanes(
        self,
        prepared: _NativePrepared,
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
        block_lanes = np.ascontiguousarray(prepared.block_lanes)
        lane_words = block_lanes.shape[-1]
        counts = np.ascontiguousarray(prepared.counts, dtype=np.int64)
        mv_lanes = np.ascontiguousarray(mv_lanes, dtype=np.uint64)
        total_count = prepared.total_count
        cover = self._library.repro_cover
        chunk = max(1, _CHUNK_TENSOR_ELEMENTS // max(1, n_distinct))
        first_rank = np.empty((min(chunk, n_genomes), n_distinct), dtype=np.int64)
        covered = np.empty(min(chunk, n_genomes), dtype=np.int64)
        for start in range(0, n_genomes, chunk):
            stop = min(start + chunk, n_genomes)
            span = stop - start
            cover(
                _as_uint64_pointer(block_lanes),
                _as_int64_pointer(counts),
                _as_uint64_pointer(mv_lanes[start:stop]),
                ctypes.c_int64(span),
                ctypes.c_int64(n_vectors),
                ctypes.c_int64(n_distinct),
                ctypes.c_int64(lane_words),
                _as_int64_pointer(first_rank),
                _as_int64_pointer(covered),
            )
            uncovered[start:stop] = total_count - covered[:span]
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
                prepared.counts,
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
        # Fast path: fused lanes straight from the trit grid.
        bits = np.concatenate(
            [ordered_grid == ZERO, ordered_grid == ONE], axis=2
        )
        mv_lanes = np.ascontiguousarray(pack_bits_to_words(bits))
        return self._cover_lanes(
            prepared,
            mv_lanes,
            np.atleast_2d(np.asarray(orders, dtype=np.int64)),
            want_assignment,
        )
