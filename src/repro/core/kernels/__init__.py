"""Pluggable covering kernels and their selection registry.

Three interchangeable backends price the covering inner loop (see
:mod:`repro.core.kernels.base` for the shared contract):

* ``bitpack`` — fused integer conflict lanes with D-axis sharding;
  the numpy kernel every machine can run;
* ``native``  — the same fused-lane match test as a cc-compiled C
  loop (:mod:`repro.core.kernels.native`): no numpy temporaries,
  branch-free single-word matching, first-match early exit, optional
  OpenMP over the D axis.  Compiled on first use and cached under
  ``$REPRO_CACHE_DIR/native/``; on machines without a C toolchain the
  registry reports it *unavailable* and every selection path below
  skips it;
* ``scalar``  — the original per-genome Python loop; the semantic
  reference and the cheapest option for tiny one-off coverings.

``auto`` picks per workload shape via :func:`select_kernel_name`:
scalar for tiny one-genome coverings, else native, else bitpack — so
a missing compiler silently falls back to the numpy kernel.
An *explicitly requested* kernel that is unavailable fails loudly in
:func:`resolve_kernel` instead: the caller asked for something this
machine cannot do, and silently substituting a different backend
would misattribute every downstream timing.  All kernels return
bit-identical results, so selection only ever moves the wall clock.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import (
    CoveringKernel,
    PreparedBlocks,
    accumulate_complete_rows,
    first_match_rank,
    rank_word_bits,
)
from .bitpack import BitpackKernel
from .build import NativeBuildError
from .native import NativeKernel, native_status
from .scalar import ScalarKernel, cover_masks

__all__ = [
    "AUTO_KERNEL",
    "KERNEL_CHOICES",
    "BitpackKernel",
    "CoveringKernel",
    "NativeBuildError",
    "NativeKernel",
    "PreparedBlocks",
    "ScalarKernel",
    "accumulate_complete_rows",
    "available_kernels",
    "cover_masks",
    "first_match_rank",
    "get_kernel",
    "kernel_availability",
    "kernel_unavailable_reason",
    "rank_word_bits",
    "resolve_kernel",
    "select_kernel_name",
    "usable_kernels",
]

AUTO_KERNEL = "auto"

_REGISTRY: dict[str, Callable[[], CoveringKernel]] = {
    BitpackKernel.name: BitpackKernel,
    ScalarKernel.name: ScalarKernel,
    NativeKernel.name: NativeKernel,
}

# The names the CLI/config layer accepts, `auto` first.  Unavailable
# kernels stay listed — naming one is valid configuration; it fails
# with the reason at resolution time, not at parse time.
KERNEL_CHOICES = (AUTO_KERNEL, *sorted(_REGISTRY))

# At or below this many match tests (distinct blocks × MVs) a
# single-genome covering runs the plain Python loop.  Measured one-off
# coverings (prepare + cover, K = 12, 2-vCPU x86 container): scalar
# ~145 µs at L = 8 for D up to 128, vs ~190–230 µs for native and
# bitpack, whose fixed setup cost dominates tiny tables; scalar's
# per-MV loop (~18 µs per MV) loses from L = 16 on.
SCALAR_MAX_WORK = 512


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

    Unknown names raise ``ValueError`` (matching :func:`get_kernel`).
    Only ``native`` can be unavailable; asking about it triggers the
    compile-on-first-use machinery, so the first call may take a
    moment (and warms the build cache).  Nothing asks at import time.
    """
    if name not in _REGISTRY:
        known = ", ".join((AUTO_KERNEL, *available_kernels()))
        raise ValueError(
            f"unknown covering kernel {name!r}; choose one of: {known}"
        )
    return native_status()[1] if name == NativeKernel.name else None


def kernel_availability() -> dict[str, str | None]:
    """Every registered kernel → its unavailability reason (or ``None``)."""
    return {name: kernel_unavailable_reason(name) for name in sorted(_REGISTRY)}


def get_kernel(name: str) -> CoveringKernel:
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
    return factory()


def select_kernel_name(
    n_genomes: int,
    n_distinct: int,
    n_vectors: int,
    block_length: int,
) -> str:
    """The ``auto`` rule, keyed on the workload shape (C, D, L, K).

    1. ``scalar`` for a single genome whose covering is tiny
       (``D·L <= SCALAR_MAX_WORK``): batched setup costs more than the
       Python loop;
    2. otherwise ``native`` when the compiled kernel is available — it
       measured fastest at every batched shape probed;
    3. otherwise ``bitpack``, the array kernel that needs no compiler.

    ``block_length`` does not enter the rule; it stays in the signature
    so the shape reads the same everywhere a kernel is resolved.
    """
    if n_genomes <= 1 and n_distinct * n_vectors <= SCALAR_MAX_WORK:
        return ScalarKernel.name
    if kernel_unavailable_reason(NativeKernel.name) is None:
        return NativeKernel.name
    return BitpackKernel.name


def resolve_kernel(
    choice: str | CoveringKernel,
    n_genomes: int,
    n_distinct: int,
    n_vectors: int,
    block_length: int,
) -> CoveringKernel:
    """Turn a kernel choice (name, ``auto`` or instance) into a kernel.

    Availability is threaded through both paths asymmetrically:
    ``auto`` only ever selects usable kernels (an unavailable
    ``native`` silently disappears from the choice), while an
    explicitly named kernel that is unavailable raises with the
    reason — substituting a different backend behind an explicit
    request would misattribute every downstream timing.
    """
    if isinstance(choice, CoveringKernel):
        return choice
    if choice == AUTO_KERNEL:
        choice = select_kernel_name(
            n_genomes, n_distinct, n_vectors, block_length
        )
    elif choice in _REGISTRY:
        reason = kernel_unavailable_reason(choice)
        if reason is not None:
            raise ValueError(
                f"covering kernel {choice!r} is unavailable on this "
                f"machine: {reason}"
            )
    return get_kernel(choice)
