"""Pluggable covering kernels and their selection registry.

Two interchangeable backends price the covering inner loop (see
:mod:`repro.core.kernels.base` for the shared contract):

* ``native``  — the whole covering of a generation as one call into a
  cc-compiled C library (:mod:`repro.core.kernels.native`): covering
  order, fused lanes, branch-free single-word matching with
  first-match early exit, optional OpenMP over the D axis, and the
  scatter into per-MV frequencies.  Compiled on first use and cached
  under ``$REPRO_CACHE_DIR/native/``; on machines without a C
  toolchain the registry reports it *unavailable* and every selection
  path below skips it;
* ``bitpack`` — fused integer conflict lanes with D-axis sharding;
  the numpy kernel every machine can run.

The single-genome Python loop :func:`repro.core.covering.cover_masks`
is the semantic reference both are property-tested against.

Kernels are private to the fitness layer:
:class:`~repro.core.fitness.BatchCompressionRateFitness` resolves
``auto`` on its first batch via :func:`select_kernel_name` — native,
else bitpack — so a missing compiler silently falls back to the numpy
kernel.  Its ``kernel=`` argument is the one seam that names a kernel
(benchmarks and tests); a named kernel that is unavailable fails
loudly in :func:`resolve_kernel`, because silently substituting a
different backend would misattribute every downstream timing.  Both
kernels return bit-identical results, so selection only ever moves
the wall clock.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import CoveringKernel, PreparedBlocks
from .bitpack import BitpackKernel
from .build import NativeBuildError
from .native import NativeKernel, native_status

__all__ = [
    "AUTO_KERNEL",
    "BitpackKernel",
    "CoveringKernel",
    "NativeBuildError",
    "NativeKernel",
    "PreparedBlocks",
    "available_kernels",
    "get_kernel",
    "kernel_availability",
    "kernel_unavailable_reason",
    "resolve_kernel",
    "select_kernel_name",
    "usable_kernels",
]

AUTO_KERNEL = "auto"

_REGISTRY: dict[str, Callable[[], CoveringKernel]] = {
    BitpackKernel.name: BitpackKernel,
    NativeKernel.name: NativeKernel,
}


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
    """The ``auto`` rule: ``native`` when available, else ``bitpack``.

    The compiled kernel measured fastest at every shape probed; the
    numpy kernel needs no compiler.  The workload shape (C, D, L, K)
    does not enter the rule; it stays in the signature so the shape
    reads the same everywhere a kernel is resolved.
    """
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
