"""Profile-guided autotuning: measure the machine, persist the thresholds.

Two pieces (see ROADMAP "Tuning architecture"):

* :mod:`repro.tuning.profile` — the versioned, fingerprinted
  :class:`TuningProfile` JSON that carries every hot-path threshold
  (kernel auto cutovers, bitpack shard size, Huffman lockstep
  cutover);
* :mod:`repro.tuning.probes` — the microbenchmarks behind
  ``repro tune`` that measure those thresholds on the current machine
  (imported lazily: probes depend on the core modules, which in turn
  import :mod:`repro.tuning.profile` — eager import here would cycle).

Every tuned threshold is semantically inert: profiles move the wall
clock, never a result, so seeded runs are byte-identical with or
without one.
"""

from __future__ import annotations

from .profile import (
    PROFILE_FORMAT,
    PROFILE_VERSION,
    MachineFingerprint,
    ProfileLoadError,
    TuningProfile,
    current_fingerprint,
    default_profile,
    default_profile_path,
    fingerprint_matches,
    get_active_profile,
    load_profile,
    load_profile_or_none,
    save_profile,
    set_active_profile,
    use_profile,
)

__all__ = [
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "MachineFingerprint",
    "ProfileLoadError",
    "TuningProfile",
    "current_fingerprint",
    "default_profile",
    "default_profile_path",
    "fingerprint_matches",
    "get_active_profile",
    "load_profile",
    "load_profile_or_none",
    "run_probes",
    "save_profile",
    "set_active_profile",
    "tuning_summary",
    "use_profile",
]

_LAZY = {"run_probes": "probes", "tuning_summary": "probes"}


def __getattr__(name: str):
    """Lazy probe exports — probes import core, core imports us."""
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
