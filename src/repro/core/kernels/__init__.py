"""The two covering kernels and the fitness layer's choice between them.

Two interchangeable backends price the covering inner loop (see
:mod:`repro.core.kernels.base` for the shared contract):

* ``native``  — the whole covering of a generation as one call into a
  cc-compiled C library (:mod:`repro.core.kernels.native`): covering
  order, fused lanes, branch-free single-word matching with
  first-match early exit, optional OpenMP over the D axis, and the
  scatter into per-MV frequencies.  Compiled on first use and cached
  under ``$REPRO_CACHE_DIR/native/``; on machines without a C
  toolchain it reports itself *unavailable* and ``auto`` skips it;
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
different backend would misattribute every downstream timing.
:func:`kernel_availability` reports both kernels for ``repro
kernels`` and serve's ``/stats``.  Both kernels return bit-identical
results, so selection only ever moves the wall clock.
"""

from __future__ import annotations

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
    "kernel_availability",
    "resolve_kernel",
    "select_kernel_name",
]

AUTO_KERNEL = "auto"


def kernel_availability() -> dict[str, str | None]:
    """Each kernel's name → why it cannot run here, or ``None``.

    Only ``native`` can be unavailable; asking about it triggers the
    compile-on-first-use machinery, so the first call may take a
    moment (and warms the build cache).  Nothing asks at import time.
    """
    return {BitpackKernel.name: None, NativeKernel.name: native_status()[1]}


def select_kernel_name() -> str:
    """The ``auto`` rule: ``native`` when available, else ``bitpack``.

    The compiled kernel measured fastest at every shape probed; the
    numpy kernel needs no compiler.
    """
    if native_status()[0]:
        return NativeKernel.name
    return BitpackKernel.name


def resolve_kernel(choice: str | CoveringKernel) -> CoveringKernel:
    """Turn a kernel choice (name, ``auto`` or instance) into a kernel.

    Availability is threaded through both paths asymmetrically:
    ``auto`` only ever selects usable kernels (an unavailable
    ``native`` silently disappears from the choice), while an
    explicitly named ``native`` that is unavailable raises with the
    reason — substituting a different backend behind an explicit
    request would misattribute every downstream timing.  Naming
    ``bitpack`` never loads or builds the native library.

    >>> resolve_kernel("bitpack").name
    'bitpack'
    """
    if isinstance(choice, CoveringKernel):
        return choice
    if choice == AUTO_KERNEL:
        choice = select_kernel_name()
    elif choice == NativeKernel.name:
        reason = native_status()[1]
        if reason is not None:
            raise ValueError(
                f"covering kernel {choice!r} is unavailable on this "
                f"machine: {reason}"
            )
    if choice == BitpackKernel.name:
        return BitpackKernel()
    if choice == NativeKernel.name:
        return NativeKernel()
    raise ValueError(
        f"unknown covering kernel {choice!r}; choose one of: "
        f"{AUTO_KERNEL}, {BitpackKernel.name}, {NativeKernel.name}"
    )
