"""Seeded byte-parity: tuning profiles never change results.

The acceptance property of the whole subsystem — every threshold a
profile can move is semantically inert.  These tests pin it at two
layers, one batched fitness call and a full seeded EA run, and check
that the thresholds steer the decisions they claim to steer.
"""

import numpy as np
import pytest

from repro.core.config import CompressionConfig, EAParameters
from repro.core.fitness import BatchCompressionRateFitness
from repro.core.kernels import (
    BitpackKernel,
    kernel_unavailable_reason,
    resolve_kernel,
    select_kernel_name,
)
from repro.core.optimizer import EAMVOptimizer
from repro.ea.genome import random_genome
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set
from repro.tuning.profile import TuningProfile, use_profile

NATIVE_OK = kernel_unavailable_reason("native") is None
KERNELS = ("gemm", "bitpack", "scalar") + (("native",) if NATIVE_OK else ())

# Thresholds shifted hard in both directions: everything engages
# everywhere / nothing engages anywhere.  If any threshold leaked into
# results, one of these would break parity.
EAGER_PROFILE = TuningProfile(
    bitpack_min_distinct=1,
    bitpack_wide_min_distinct=1,
    scalar_max_work=1,
    native_min_distinct=1 << 30,  # keep the array plumbing observable
    native_wide_min_distinct=1 << 30,
    bitpack_shard_size=16,
    huffman_lockstep_min_rows=1,
)
LAZY_PROFILE = TuningProfile(
    bitpack_min_distinct=1 << 30,
    bitpack_wide_min_distinct=1 << 30,
    native_min_distinct=1 << 30,
    native_wide_min_distinct=1 << 30,
    scalar_max_work=1 << 30,
    huffman_lockstep_min_rows=1 << 30,
)


def small_workload():
    spec = SyntheticSpec(
        name="tuning-parity", n_patterns=24, pattern_bits=36,
        care_density=0.55, seed=11,
    )
    blocks = synthetic_test_set(spec).blocks(6)
    rng = np.random.default_rng(17)
    genomes = np.stack([random_genome(8 * 6, rng) for _ in range(24)])
    genomes[:, -6:] = 2  # pinned all-U MV
    return blocks, genomes


class TestBatchParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("profile", [None, EAGER_PROFILE, LAZY_PROFILE])
    def test_profiles_never_move_rates(self, kernel, profile):
        blocks, genomes = small_workload()
        reference = BatchCompressionRateFitness(
            blocks, n_vectors=8, block_length=6,
        ).evaluate_batch(genomes)
        tuned = BatchCompressionRateFitness(
            blocks, n_vectors=8, block_length=6,
            kernel=kernel, tuning=profile,
        ).evaluate_batch(genomes)
        assert (tuned == reference).all()

    def test_active_profile_is_parity_safe_too(self):
        blocks, genomes = small_workload()
        reference = BatchCompressionRateFitness(
            blocks, n_vectors=8, block_length=6,
        ).evaluate_batch(genomes)
        with use_profile(EAGER_PROFILE):
            ambient = BatchCompressionRateFitness(
                blocks, n_vectors=8, block_length=6,
            )
            assert ambient.tuning is EAGER_PROFILE
            assert (ambient.evaluate_batch(genomes) == reference).all()


class TestSeededRunParity:
    CONFIG = dict(
        block_length=6, n_vectors=8, runs=2,
        ea=EAParameters(
            population_size=6, children_per_generation=4,
            stagnation_limit=8, max_evaluations=250,
        ),
    )

    def run_result(self, **overrides):
        spec = SyntheticSpec(
            name="tuning-run-parity", n_patterns=30, pattern_bits=30,
            care_density=0.5, seed=5,
        )
        blocks = synthetic_test_set(spec).blocks(6)
        config = CompressionConfig(**{**self.CONFIG, **overrides})
        return EAMVOptimizer(config, seed=99).optimize(blocks)

    def digest(self, result):
        return [
            (run.rate, run.mv_set.to_genome().tobytes())
            for run in result.runs
        ]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_profiles_do_not_move_seeded_runs(self, kernel):
        reference = self.digest(self.run_result())
        variants = [
            dict(kernel=kernel),
            dict(kernel=kernel, tuning=EAGER_PROFILE),
            dict(kernel=kernel, tuning=LAZY_PROFILE),
        ]
        for overrides in variants:
            assert self.digest(self.run_result(**overrides)) == reference, (
                f"seeded run diverged under {overrides}"
            )


class TestThresholdPlumbing:
    """Profiles must actually steer the decisions they claim to steer."""

    def test_select_kernel_honors_profile(self):
        # Shape that defaults route to bitpack (narrow lanes, D >= 256)
        # — or to native when this machine can compile it.
        assert select_kernel_name(32, 1024, 32, 12) == (
            "native" if NATIVE_OK else "bitpack"
        )
        assert (
            select_kernel_name(32, 1024, 32, 12, profile=LAZY_PROFILE)
            == "gemm"
        )
        assert select_kernel_name(32, 64, 32, 12) == (
            "native" if NATIVE_OK else "gemm"
        )
        assert (
            select_kernel_name(32, 64, 32, 12, profile=EAGER_PROFILE)
            == "bitpack"
        )

    def test_select_kernel_honors_active_profile(self):
        with use_profile(LAZY_PROFILE):
            assert select_kernel_name(32, 1024, 32, 12) == "gemm"
        assert select_kernel_name(32, 1024, 32, 12) == (
            "native" if NATIVE_OK else "bitpack"
        )

    def test_resolve_kernel_applies_profile_shard_size(self):
        kernel = resolve_kernel("bitpack", 32, 4096, 32, 12, profile=EAGER_PROFILE)
        assert isinstance(kernel, BitpackKernel)
        assert kernel._shard_size == 16
        untouched = resolve_kernel("bitpack", 32, 4096, 32, 12, profile=None)
        assert untouched._shard_size is None

    def test_config_carries_profile_to_run_tasks(self):
        config = CompressionConfig(
            block_length=6, n_vectors=8, runs=1, tuning=EAGER_PROFILE,
        )
        assert config.tuning is EAGER_PROFILE
        assert config.with_updates(runs=2).tuning is EAGER_PROFILE

    def test_config_rejects_non_profile_tuning(self):
        with pytest.raises(ValueError, match="tuning"):
            CompressionConfig(tuning={"bitpack_min_distinct": 5})

    def test_huffman_lockstep_override_is_parity_safe(self):
        from repro.coding.huffman import huffman_total_bits_batch

        rng = np.random.default_rng(8)
        freqs = rng.integers(0, 40, size=(130, 24))
        per_row = huffman_total_bits_batch(freqs, lockstep_min_rows=1 << 30)
        lockstep = huffman_total_bits_batch(freqs, lockstep_min_rows=1)
        default = huffman_total_bits_batch(freqs)
        assert (per_row == lockstep).all()
        assert (per_row == default).all()
