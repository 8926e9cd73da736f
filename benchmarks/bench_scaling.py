"""Benchmark: how the pipeline scales with test-set size.

Both tables sort their rows by test-set size, and the paper's largest
row is 81 M bits.  This bench measures the two size-critical
operations — 9C compression (9 vectorized covering passes) and a
single EA fitness evaluation — across three decades of test-set size,
so regressions in the distinct-block fast path show up immediately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitness import BatchCompressionRateFitness
from repro.core.nine_c import compress_nine_c
from repro.ea.genome import random_genome
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

_SIZES = {
    "1k": (50, 20),
    "10k": (250, 40),
    "100k": (1250, 80),
    "1M": (6250, 160),
}


@pytest.mark.parametrize("label", list(_SIZES), ids=list(_SIZES))
def test_scaling_nine_c(benchmark, label):
    n_patterns, pattern_bits = _SIZES[label]
    test_set = synthetic_test_set(
        SyntheticSpec(
            f"scale-{label}",
            n_patterns=n_patterns,
            pattern_bits=pattern_bits,
            care_density=0.4,
            seed=7,
        )
    )
    blocks = test_set.blocks(8)
    benchmark.extra_info["total_bits"] = test_set.total_bits
    benchmark.extra_info["distinct_blocks"] = blocks.n_distinct
    result = benchmark.pedantic(
        compress_nine_c, args=(blocks,), rounds=3, iterations=1
    )
    assert result.payload_bits > 0


@pytest.mark.parametrize("label", list(_SIZES), ids=list(_SIZES))
def test_scaling_fitness_evaluation(benchmark, label):
    n_patterns, pattern_bits = _SIZES[label]
    test_set = synthetic_test_set(
        SyntheticSpec(
            f"scale-{label}",
            n_patterns=n_patterns,
            pattern_bits=pattern_bits,
            care_density=0.4,
            seed=7,
        )
    )
    blocks = test_set.blocks(12)
    fitness = BatchCompressionRateFitness(blocks, n_vectors=64, block_length=12)
    genome = random_genome(64 * 12, np.random.default_rng(1))
    genome[-12:] = 2
    benchmark.extra_info["total_bits"] = test_set.total_bits
    benchmark.extra_info["distinct_blocks"] = blocks.n_distinct
    rates = benchmark.pedantic(
        fitness.evaluate_batch, args=(genome[None, :],), rounds=3, iterations=1
    )
    assert rates[0] > -1000.0
