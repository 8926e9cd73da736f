"""Pluggable covering kernels and their selection registry.

Four interchangeable backends price the covering inner loop (see
:mod:`repro.core.kernels.base` for the shared contract):

* ``gemm``    — float32 bit matrices, one BLAS matrix product per
  genome chunk; strongest where BLAS compute density pays — wide
  blocks (multi-word lanes) over modest distinct-block tables;
* ``bitpack`` — fused integer conflict lanes with D-axis sharding;
  the fastest *array* kernel whenever the 2K-bit lane fits two uint64
  words and the block table is large enough to make the GEMM operands
  memory-bandwidth bound;
* ``native``  — the same fused-lane match test as a cc-compiled C
  loop (:mod:`repro.core.kernels.native`): no numpy temporaries,
  branch-free single-word matching, first-match early exit, optional
  OpenMP over the D axis.  Compiled on first use and cached under
  ``$REPRO_CACHE_DIR/native/``; on machines without a C toolchain the
  registry reports it *unavailable* and every selection path below
  skips it;
* ``scalar``  — the original per-genome Python loop; the semantic
  reference and the cheapest option for tiny one-off coverings.

``auto`` picks per workload shape via :func:`select_kernel_name`,
keyed on ``(C, D, L, K)`` — consulting availability first, so a
missing compiler silently narrows the choice to the array kernels.
An *explicitly requested* kernel that is unavailable fails loudly in
:func:`resolve_kernel` instead: the caller asked for something this
machine cannot do, and silently substituting a different backend
would misattribute every downstream timing.  All kernels return
bit-identical results, so selection only ever moves the wall clock.
"""

from __future__ import annotations

from collections.abc import Callable

from ...tuning.profile import TuningProfile, get_active_profile
from .base import (
    CoveringKernel,
    PreparedBlocks,
    accumulate_complete_rows,
    first_match_rank,
    rank_word_bits,
)
from .bitpack import BitpackKernel
from .build import NativeBuildError
from .gemm import GemmKernel, cover_bits_batch, unpack_mask_bits
from .native import NativeKernel, native_status
from .scalar import ScalarKernel, cover_masks

__all__ = [
    "AUTO_KERNEL",
    "KERNEL_CHOICES",
    "BitpackKernel",
    "CoveringKernel",
    "GemmKernel",
    "NativeBuildError",
    "NativeKernel",
    "PreparedBlocks",
    "ScalarKernel",
    "accumulate_complete_rows",
    "available_kernels",
    "cover_bits_batch",
    "cover_masks",
    "first_match_rank",
    "get_kernel",
    "kernel_availability",
    "kernel_unavailable_reason",
    "rank_word_bits",
    "register_kernel",
    "resolve_kernel",
    "select_kernel_name",
    "unpack_mask_bits",
    "usable_kernels",
]

AUTO_KERNEL = "auto"

_REGISTRY: dict[str, Callable[[], CoveringKernel]] = {
    GemmKernel.name: GemmKernel,
    BitpackKernel.name: BitpackKernel,
    ScalarKernel.name: ScalarKernel,
    NativeKernel.name: NativeKernel,
}

# Per-kernel availability probes: absent = always available.  A probe
# returns None (usable) or a human-readable unavailability reason.
# The native probe triggers the compile-on-first-use machinery, so
# availability is never asked at import time — only when a selection
# or listing actually needs the answer.
_AVAILABILITY: dict[str, Callable[[], str | None]] = {
    NativeKernel.name: lambda: native_status()[1],
}

# The names the CLI/config layer accepts, `auto` first.  Unavailable
# kernels stay listed — naming one is valid configuration; it fails
# with the reason at resolution time, not at parse time.
KERNEL_CHOICES = (AUTO_KERNEL, *sorted(_REGISTRY))

# Auto-selection thresholds: the no-profile defaults, calibrated on
# the workloads of ``benchmarks/bench_batch.py`` and re-confirmed by
# the ``repro tune`` prober (single-core CI-class container; see
# ROADMAP "Tuning architecture").  Bitpack's fused conflict lane holds
# 2K bits; while it fits in at most two uint64 words (K <= 64) the
# integer kernel measured 1.3–1.4× faster once the distinct table
# outgrows BLAS's cache-resident sweet spot (medium D≈860, large
# D≈3330), while tiny tables (small D≈150) stay GEMM territory.  Past
# two lane words the per-element AND loop grows with K while BLAS
# keeps its compute density — gemm wins there until the table is
# large enough that its 4-bytes-per-bit operands go bandwidth-bound.
# A :class:`repro.tuning.TuningProfile` (explicit argument, or the
# process-wide active profile set by ``--profile``) overrides the
# distinct-table cutovers per machine; these module constants remain
# the fallback so behavior without a profile is unchanged.
# Recalibration (PR 5, `repro tune` full mode on the single-core
# CI-class container): the narrow crossover measured D>=512 at the
# probe shape (C=32, L=32) vs the 256 shipped from the L=64 bench
# workloads — the crossover moves with L because GEMM amortizes its
# operand streaming over more MV rows.  The shipped default keeps the
# bench-shape value (the EA's real shape); shape sensitivity is what
# `--profile` is for.  The wide crossover never arrived within the
# probed range (D<=4096) on this container — BLAS keeps multi-word
# lanes ahead longer than the PR-3 estimate — so 2048 stands as a
# conservative bench-derived default there too.
BITPACK_MAX_LANE_WORDS = 2
BITPACK_MIN_DISTINCT = 256
BITPACK_WIDE_MIN_DISTINCT = 2048
# Native-kernel cutovers (PR 8): on the probed container the compiled
# AND+popcount loop beat BOTH array kernels at every batched shape —
# narrow from D=64 and wide from D=256, the smallest points probed —
# growing to ~3.6× over bitpack on the bandwidth-bound large table.
# A floor of 1 therefore means "whenever the batch leaves the scalar
# corner"; the tuning prober raises these per machine if an exotic
# BLAS ever wins a region back.  Only consulted when the native
# kernel is actually available.
NATIVE_MIN_DISTINCT = 1
NATIVE_WIDE_MIN_DISTINCT = 1
# Below this many match tests (distinct blocks × MVs) a single
# uncached covering is cheaper as the plain Python loop than as
# batched tensor setup.  (Not probed by ``repro tune``: the scalar
# corner is interactive-only and off the EA hot path.)
SCALAR_MAX_WORK = 512


def register_kernel(
    name: str,
    factory: Callable[[], CoveringKernel],
    availability: Callable[[], str | None] | None = None,
) -> None:
    """Register a covering-kernel factory under ``name``.

    Extension hook for out-of-tree kernels; ``auto`` never selects a
    registered-late kernel, but explicit configuration can.
    ``availability``, when given, is called lazily and returns ``None``
    (usable) or a human-readable unavailability reason — see
    :func:`kernel_unavailable_reason`.
    """
    if not name or name == AUTO_KERNEL:
        raise ValueError(f"invalid kernel name {name!r}")
    _REGISTRY[name] = factory
    if availability is not None:
        _AVAILABILITY[name] = availability
    else:
        _AVAILABILITY.pop(name, None)


def available_kernels() -> tuple[str, ...]:
    """Names of every registered kernel (without ``auto``).

    Registration, not usability: an unavailable kernel (e.g.
    ``native`` without a C compiler) is still listed here because its
    name is still valid configuration.  Use :func:`usable_kernels` or
    :func:`kernel_availability` for what can actually run.
    """
    return tuple(sorted(_REGISTRY))


def usable_kernels() -> tuple[str, ...]:
    """Names of every registered kernel that can run on this machine."""
    return tuple(
        name
        for name in sorted(_REGISTRY)
        if kernel_unavailable_reason(name) is None
    )


def kernel_unavailable_reason(name: str) -> str | None:
    """Why ``name`` cannot run here, or ``None`` when it can.

    Unknown names raise ``ValueError`` (matching :func:`get_kernel`);
    kernels without an availability probe are always usable.  For
    ``native`` this triggers the compile-on-first-use machinery, so
    the first call may take a moment (and warms the build cache).
    """
    if name not in _REGISTRY:
        known = ", ".join((AUTO_KERNEL, *available_kernels()))
        raise ValueError(
            f"unknown covering kernel {name!r}; choose one of: {known}"
        )
    probe = _AVAILABILITY.get(name)
    return None if probe is None else probe()


def kernel_availability() -> dict[str, str | None]:
    """Every registered kernel → its unavailability reason (or ``None``)."""
    return {name: kernel_unavailable_reason(name) for name in sorted(_REGISTRY)}


def get_kernel(name: str, **options) -> CoveringKernel:
    """Instantiate the kernel registered under ``name``.

    >>> get_kernel("bitpack").name
    'bitpack'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join((AUTO_KERNEL, *available_kernels()))
        raise ValueError(
            f"unknown covering kernel {name!r}; choose one of: {known}"
        ) from None
    return factory(**options)


def select_kernel_name(
    n_genomes: int,
    n_distinct: int,
    n_vectors: int,
    block_length: int,
    profile: TuningProfile | None = None,
) -> str:
    """The ``auto`` heuristic, keyed on the workload shape (C, D, L, K).

    * The single-genome, tiny-covering corner (``D·L`` match tests
      under ``SCALAR_MAX_WORK``; interactive ``cover`` calls) goes to
      ``scalar``: batched tensor setup costs more than the loop.
    * When the compiled ``native`` kernel is available, batched shapes
      past its (per-lane-width) distinct-table floor go to it — on the
      shipped defaults that is every batched shape, matching the
      measurement that the C loop beat both array kernels everywhere
      probed.  Unavailable (no compiler) means this rule silently
      vanishes and the array heuristics below decide alone.
    * Narrow fused lanes (2K bits in at most two uint64 words) over a
      distinct table past ``BITPACK_MIN_DISTINCT`` go to ``bitpack``
      — measured 1.3–1.4× over GEMM there, growing with the table as
      GEMM goes memory-bandwidth bound.
    * Wider lanes (K > 64) go to ``gemm`` while the table is modest —
      BLAS keeps its compute density where the word loop cannot — and
      back to ``bitpack`` once the table is large enough that GEMM's
      4-bytes-per-bit operands dominate.
    * Everything else (tiny tables) stays with ``gemm``.

    ``profile`` (or, when omitted, the process-wide active profile)
    replaces the distinct-table cutovers with machine-measured ones;
    without either, the module constants above apply unchanged.
    """
    if profile is None:
        profile = get_active_profile()
    if profile is None:
        min_distinct = BITPACK_MIN_DISTINCT
        wide_min_distinct = BITPACK_WIDE_MIN_DISTINCT
        scalar_max_work = SCALAR_MAX_WORK
        native_min_distinct = NATIVE_MIN_DISTINCT
        native_wide_min_distinct = NATIVE_WIDE_MIN_DISTINCT
    else:
        min_distinct = profile.bitpack_min_distinct
        wide_min_distinct = profile.bitpack_wide_min_distinct
        scalar_max_work = profile.scalar_max_work
        native_min_distinct = profile.native_min_distinct
        native_wide_min_distinct = profile.native_wide_min_distinct
    if n_genomes <= 1 and n_distinct * n_vectors <= scalar_max_work:
        return ScalarKernel.name
    lane_words = -(-2 * block_length // 64)
    narrow = lane_words <= BITPACK_MAX_LANE_WORDS
    native_floor = native_min_distinct if narrow else native_wide_min_distinct
    if (
        n_distinct >= native_floor
        and kernel_unavailable_reason(NativeKernel.name) is None
    ):
        return NativeKernel.name
    if narrow and n_distinct >= min_distinct:
        return BitpackKernel.name
    if n_distinct >= wide_min_distinct:
        return BitpackKernel.name
    return GemmKernel.name


def resolve_kernel(
    choice: str | CoveringKernel,
    n_genomes: int,
    n_distinct: int,
    n_vectors: int,
    block_length: int,
    profile: TuningProfile | None = None,
) -> CoveringKernel:
    """Turn a kernel choice (name, ``auto`` or instance) into a kernel.

    ``profile`` tunes both halves of the decision: ``auto`` selects
    with the profile's cutovers, and a bitpack instance is built with
    the profile's ``bitpack_shard_size`` (when set) instead of the
    kernel's cache-budget autosizing.

    Availability is threaded through both paths asymmetrically:
    ``auto`` only ever selects usable kernels (an unavailable
    ``native`` silently disappears from the choice), while an
    explicitly named kernel that is unavailable raises with the
    reason — substituting a different backend behind an explicit
    request would misattribute every downstream timing.
    """
    if isinstance(choice, CoveringKernel):
        return choice
    if profile is None:
        profile = get_active_profile()
    if choice == AUTO_KERNEL:
        choice = select_kernel_name(
            n_genomes, n_distinct, n_vectors, block_length, profile=profile
        )
    elif choice in _REGISTRY:
        reason = kernel_unavailable_reason(choice)
        if reason is not None:
            raise ValueError(
                f"covering kernel {choice!r} is unavailable on this "
                f"machine: {reason}"
            )
    if (
        choice == BitpackKernel.name
        and profile is not None
        and profile.bitpack_shard_size is not None
    ):
        return get_kernel(choice, shard_size=profile.bitpack_shard_size)
    return get_kernel(choice)
