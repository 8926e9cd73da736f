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

``python benchmarks/run_bench.py`` times these paths and writes the
JSON trajectory artifact (``BENCH_fitness.json``) that its
``--check`` gate compares against.
"""

from __future__ import annotations

import numpy as np

from repro.coding.huffman import huffman_code_lengths
from repro.core.covering import cover_masks
from repro.core.fitness import INVALID_FITNESS
from repro.core.kernels import kernel_availability
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
