"""Tune-then-run: profile this machine once, reuse the profile everywhere.

Run with::

    python examples/tune_then_run.py

The shipped kernel thresholds were measured on one reference
container; ``repro.tuning`` re-measures them on *your* machine and
persists them as a profile, so every later run dispatches with
thresholds that match your BLAS, cache sizes and core count.  The CLI
equivalent of this script::

    python -m repro tune --quick
    python -m repro table1 --circuits s298 --seed 1 \\
        --profile ~/.cache/repro/tuning_profile.json

Profiles are semantically inert: a seeded run is byte-identical with
or without one — only the wall clock moves (this script asserts it).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.config import CompressionConfig, EAParameters
from repro.core.optimizer import EAMVOptimizer
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set
from repro.tuning import load_profile, run_probes, save_profile


def main() -> None:
    # 1. Probe the machine (quick mode: seconds).  `repro tune` runs
    #    exactly this and prints a before/after genomes/s summary.
    print("probing this machine (quick mode) ...")
    profile = run_probes(quick=True, repeats=2)
    path = Path(tempfile.mkdtemp()) / "tuning_profile.json"
    save_profile(profile, path)
    print(f"wrote {path}")
    print(
        f"  bitpack from D>={profile.bitpack_min_distinct}, "
        f"shard size {profile.bitpack_shard_size or 'auto'}, "
        f"Huffman lockstep from {profile.huffman_lockstep_min_rows} rows"
    )

    # 2. Load it back (version + machine fingerprint checked) and pin
    #    it inside the run configuration — the profile travels with
    #    the config, so process-pool workers tune identically.
    tuned = load_profile(path)
    spec = SyntheticSpec(
        name="tune-demo", n_patterns=64, pattern_bits=64,
        care_density=0.5, seed=7,
    )
    blocks = synthetic_test_set(spec).blocks(12)
    ea = EAParameters(stagnation_limit=20, max_evaluations=800)
    untuned_config = CompressionConfig(
        block_length=12, n_vectors=16, runs=2, ea=ea,
    )
    tuned_config = untuned_config.with_updates(tuning=tuned)

    # 3. Same seed, with and without the profile: identical results.
    baseline = EAMVOptimizer(untuned_config, seed=42).optimize(blocks)
    profiled = EAMVOptimizer(tuned_config, seed=42).optimize(blocks)
    assert np.isclose(baseline.mean_rate, profiled.mean_rate)
    assert (
        baseline.best_mv_set.to_genome() == profiled.best_mv_set.to_genome()
    ).all()
    print(
        f"EA rate {profiled.mean_rate:.2f}% mean / "
        f"{profiled.best_rate:.2f}% best — identical with and without "
        "the profile, as tuning only moves the wall clock"
    )


if __name__ == "__main__":
    main()
