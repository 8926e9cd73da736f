"""Micro-benchmarks of the substrates behind the EA's fitness budget.

The EA spends its entire budget in cover → Huffman → price, so these
kernels bound how many generations a run can afford.  These benches
use pytest-benchmark's statistical mode (they are fast and pure).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.huffman import huffman_code_lengths
from repro.core.blocks import BlockSet
from repro.core.compressor import compress_blocks
from repro.core.decompressor import decompress
from repro.core.fitness import BatchCompressionRateFitness
from repro.core.matching import MVSet
from repro.core.nine_c import compress_nine_c
from repro.ea.genome import random_genome
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set


@pytest.fixture(scope="module")
def medium_test_set():
    return synthetic_test_set(
        SyntheticSpec(
            "micro", n_patterns=200, pattern_bits=64, care_density=0.4, seed=1
        )
    )


@pytest.fixture(scope="module")
def medium_blocks(medium_test_set):
    return medium_test_set.blocks(12)


def test_blockset_construction(benchmark, medium_test_set):
    flat = medium_test_set.flatten()
    benchmark(BlockSet.from_trit_array, flat, 12)


def test_fitness_evaluation(benchmark, medium_blocks):
    """One EA fitness evaluation (cover + Huffman + price), L=64, K=12."""
    fitness = BatchCompressionRateFitness(
        medium_blocks, n_vectors=64, block_length=12
    )
    genome = random_genome(64 * 12, np.random.default_rng(3))
    genome[-12:] = 2  # all-U tail, as the optimizer pins it
    rates = benchmark(fitness.evaluate_batch, genome[None, :])
    assert rates[0] > -100.0


def test_fitness_generation_batch(benchmark, medium_blocks):
    """One generation priced in one batched call (C=64, L=64, K=12)."""
    fitness = BatchCompressionRateFitness(
        medium_blocks, n_vectors=64, block_length=12
    )
    rng = np.random.default_rng(3)
    genomes = rng.integers(0, 3, size=(64, 64 * 12), dtype=np.int8)
    genomes[:, -12:] = 2
    rates = benchmark(fitness.evaluate_batch, genomes)
    assert rates.shape == (64,)


def test_huffman_on_64_symbols(benchmark):
    rng = np.random.default_rng(5)
    frequencies = {i: int(f) for i, f in enumerate(rng.integers(1, 5000, 64))}
    lengths = benchmark(huffman_code_lengths, frequencies)
    assert len(lengths) == 64


def test_nine_c_compression(benchmark, medium_test_set):
    blocks = medium_test_set.blocks(8)
    result = benchmark(compress_nine_c, blocks)
    assert result.payload_bits > 0


def test_compress_and_decompress_roundtrip(benchmark, medium_blocks):
    mv_set = MVSet.from_genome(
        np.concatenate(
            [
                random_genome(15 * 12, np.random.default_rng(9)),
                np.full(12, 2, dtype=np.int8),
            ]
        ),
        12,
    )

    def roundtrip():
        compressed = compress_blocks(medium_blocks, mv_set)
        return decompress(compressed)

    decoded = benchmark(roundtrip)
    assert decoded.blocks_decoded == medium_blocks.n_blocks
