"""Fitness pricing throughput: batching (PR 1) and covering kernels.

Two comparisons share the synthetic workloads:

* **Batching** — the pre-batching per-genome ``reference`` algorithm
  (dict/heap Huffman over a Python covering loop, pinned verbatim),
  ``scalar`` (one genome per ``evaluate_batch`` call), and the
  ``batched`` generation path (PR 1's tentpole: ≥5× batched over
  reference on ``medium``).
* **Covering kernels** — the same batched pipeline under each
  usable kernel (``bitpack``, ``native``;
  :mod:`repro.core.kernels`), including the ``wide`` K = 96 workload
  the single-word seed could not express.

:func:`stage_timings` splits one batched call into its pack / cover /
Huffman stages so a future regression can be localized, not just
detected.

Run with ``pytest benchmarks/bench_batch.py --benchmark-only`` and
compare the ``genomes_per_second`` extra-info columns, or use
``python benchmarks/run_bench.py`` for a JSON trajectory artifact
(``BENCH_fitness.json``) suitable for regression tracking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.huffman import huffman_code_lengths
from repro.core.covering import cover_masks
from repro.core.fitness import INVALID_FITNESS, BatchCompressionRateFitness
from repro.core.kernels import kernel_availability, select_kernel_name
from repro.ea.genome import random_genome
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

# (spec, K, L, genomes per batch) — "medium" is the paper's default
# EA configuration on the acceptance workload.
WORKLOADS = {
    "small": (
        SyntheticSpec("bench-small", n_patterns=50, pattern_bits=32,
                      care_density=0.4, seed=11),
        8, 16, 64,
    ),
    "medium": (
        SyntheticSpec("bench-medium", n_patterns=200, pattern_bits=64,
                      care_density=0.4, seed=12),
        12, 64, 256,
    ),
    "large": (
        SyntheticSpec("bench-large", n_patterns=500, pattern_bits=128,
                      care_density=0.35, seed=13),
        12, 64, 256,
    ),
}

# The kernel comparison adds a wide-block workload (two-word masks);
# the pinned reference path cannot price it — K > 64 was impossible
# before the multi-word refactor — so it lives outside WORKLOADS.
KERNEL_WORKLOADS = {
    **WORKLOADS,
    "wide": (
        SyntheticSpec("bench-wide", n_patterns=400, pattern_bits=192,
                      care_density=0.35, seed=14),
        96, 32, 128,
    ),
}

# Only kernels this machine can actually run: a toolchain-less
# container benches bitpack only, a full one adds `native`.
KERNELS = tuple(
    name for name, reason in sorted(kernel_availability().items()) if reason is None
)


def reference_scalar_fitness(blocks, n_vectors, block_length):
    """The seed's per-genome pricing path, kept verbatim as baseline."""
    shifts = np.arange(block_length - 1, -1, -1, dtype=np.uint64)
    weights = np.left_shift(np.uint64(1), shifts)
    original = blocks.original_bits

    def evaluate(genome: np.ndarray) -> float:
        grid = genome.reshape(n_vectors, block_length)
        ones = ((grid == 1) * weights).sum(axis=1, dtype=np.uint64)
        zeros = ((grid == 0) * weights).sum(axis=1, dtype=np.uint64)
        n_unspecified = (grid == 2).sum(axis=1).astype(np.int64)
        order = np.argsort(n_unspecified, kind="stable")
        _, frequencies, uncovered = cover_masks(
            blocks.ones, blocks.zeros, blocks.counts, ones, zeros, order
        )
        if uncovered:
            return INVALID_FITNESS
        active = {int(i): int(f) for i, f in enumerate(frequencies) if f > 0}
        lengths = huffman_code_lengths(active)
        compressed = sum(
            frequency * (lengths[index] + int(n_unspecified[index]))
            for index, frequency in active.items()
        )
        return 100.0 * (original - compressed) / original

    return evaluate


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    spec, block_length, n_vectors, batch_size = WORKLOADS[request.param]
    blocks = synthetic_test_set(spec).blocks(block_length)
    rng = np.random.default_rng(spec.seed)
    genomes = np.stack(
        [
            random_genome(n_vectors * block_length, rng)
            for _ in range(batch_size)
        ]
    )
    genomes[:, -block_length:] = 2  # all-U tail, as the optimizer pins it
    return request.param, blocks, block_length, n_vectors, genomes


def _report(benchmark, n_genomes):
    benchmark.extra_info["genomes"] = n_genomes
    benchmark.extra_info["genomes_per_second"] = (
        n_genomes / benchmark.stats.stats.mean
    )


def test_reference_scalar_path(benchmark, workload):
    name, blocks, block_length, n_vectors, genomes = workload
    evaluate = reference_scalar_fitness(blocks, n_vectors, block_length)
    benchmark.group = f"fitness-{name}"
    rates = benchmark(lambda: [evaluate(genome) for genome in genomes])
    _report(benchmark, len(genomes))
    assert len(rates) == len(genomes)


def test_scalar_wrapper_path(benchmark, workload):
    name, blocks, block_length, n_vectors, genomes = workload
    fitness = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length
    )
    benchmark.group = f"fitness-{name}"
    rates = benchmark(
        lambda: [fitness.evaluate_batch(genome[None, :]) for genome in genomes]
    )
    _report(benchmark, len(genomes))
    assert len(rates) == len(genomes)


def test_batched_path(benchmark, workload):
    name, blocks, block_length, n_vectors, genomes = workload
    fitness = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length
    )
    benchmark.group = f"fitness-{name}"
    rates = benchmark(fitness.evaluate_batch, genomes)
    _report(benchmark, len(genomes))
    assert rates.shape == (len(genomes),)


def test_all_paths_agree(workload):
    """Not a benchmark: the three contenders must price identically."""
    _, blocks, block_length, n_vectors, genomes = workload
    evaluate = reference_scalar_fitness(blocks, n_vectors, block_length)
    batch = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length
    )
    sample = genomes[:16]
    batched_rates = batch.evaluate_batch(sample)
    for index, genome in enumerate(sample):
        single = batch.evaluate_batch(genome[None, :])[0]
        assert batched_rates[index] == evaluate(genome) == single


def build_kernel_workload(name):
    """Blocks + genome batch for one kernel-comparison workload."""
    spec, block_length, n_vectors, batch_size = KERNEL_WORKLOADS[name]
    blocks = synthetic_test_set(spec).blocks(block_length)
    rng = np.random.default_rng(spec.seed)
    genomes = np.stack(
        [
            random_genome(n_vectors * block_length, rng)
            for _ in range(batch_size)
        ]
    )
    genomes[:, -block_length:] = 2  # all-U tail, as the optimizer pins it
    return blocks, block_length, n_vectors, genomes


def stage_timings(fitness, genomes, repeats=3):
    """Per-stage wall seconds of ``evaluate_batch`` (best-of-N).

    Stages are ``pack`` (genome reshape and covering order), ``cover``
    (the kernel's fused covering pass) and ``huffman`` (codeword + fill
    pricing).
    """
    fitness.evaluate_batch(genomes)  # warm caches and allocations
    best = None
    for _ in range(repeats):
        timings: dict[str, float] = {}
        fitness.evaluate_batch(genomes, timings=timings)
        if best is None or sum(timings.values()) < sum(best.values()):
            best = timings
    return best


@pytest.fixture(scope="module", params=sorted(KERNEL_WORKLOADS))
def kernel_workload(request):
    return (request.param, *build_kernel_workload(request.param))


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_path(benchmark, kernel_workload, kernel):
    """The batched pipeline under each registered covering kernel."""
    name, blocks, block_length, n_vectors, genomes = kernel_workload
    fitness = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length, kernel=kernel,
    )
    benchmark.group = f"kernel-{name}"
    benchmark.extra_info["auto_pick"] = select_kernel_name()
    rates = benchmark(fitness.evaluate_batch, genomes)
    _report(benchmark, len(genomes))
    assert rates.shape == (len(genomes),)


def test_kernels_agree(kernel_workload):
    """Not a benchmark: every kernel must price bit-identically."""
    _, blocks, block_length, n_vectors, genomes = kernel_workload
    sample = genomes[:16]
    rates = {
        kernel: BatchCompressionRateFitness(
            blocks,
            n_vectors=n_vectors,
            block_length=block_length,
            kernel=kernel,
        ).evaluate_batch(sample)
        for kernel in KERNELS
    }
    reference = rates[KERNELS[0]]
    for kernel in KERNELS[1:]:
        assert (rates[kernel] == reference).all(), kernel


def test_stage_timings_cover_the_whole_call():
    """Not a benchmark: the stage breakdown must account for the call."""
    blocks, block_length, n_vectors, genomes = build_kernel_workload("medium")
    fitness = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length
    )
    timings = stage_timings(fitness, genomes, repeats=2)
    assert set(timings) == {"pack", "cover", "huffman"}
    assert all(seconds >= 0.0 for seconds in timings.values())
