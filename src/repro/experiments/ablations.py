"""Ablation studies for the design choices the paper calls out.

Section 4 of the paper motivates four follow-up questions, each
implemented here as a parameterized study:

* **K/L sweep** — "We generated data for numerous values of K and L
  ... we report our best results in the last column";
* **operator probabilities** — "further improvements are possible by
  fitting the parameters of the Evolutionary Optimization";
* **9C seeding** — "This could be ruled out by adding the 9C matching
  vector set to the initial population (which we did not)";
* **subsumption-aware encoding** — the Section 3.3 example:
  "Handling such cases explicitly could improve the compression
  rate."

Every sweep point is an independent set of EA runs, all sharing the
same master seed (a controlled comparison: variants differ only in
the knob under study).  The points' runs are flattened into one
self-seeded task list and submitted through an
:class:`repro.parallel.ExecutionBackend`, with per-point progress
released in point order; results are identical on every backend.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..core.blocks import BlockSet
from ..core.compressor import compress_blocks
from ..core.config import CompressionConfig, EAParameters
from ..core.encoding import EncodingStrategy
from ..core.nine_c import DEFAULT_NINE_C_BLOCK_LENGTH, compress_nine_c
from ..core.optimizer import EAMVOptimizer, OptimizationResult, execute_run_task
from ..parallel import (
    ExecutionBackend,
    FaultToleranceStats,
    RetryPolicy,
    SerialBackend,
    grouped_map,
)
from ..testdata.test_set import TestSet
from .checkpoint import CheckpointStore

__all__ = [
    "AblationPoint",
    "kl_sweep",
    "operator_sweep",
    "seeding_ablation",
    "subsumption_ablation",
    "decoder_cost_study",
]


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation and its measured rates."""

    label: str
    mean_rate: float
    best_rate: float
    evaluations: int = 0


def _sweep(
    test_set: TestSet,
    points: Sequence[tuple[str, CompressionConfig]],
    seed: int,
    backend: ExecutionBackend | None,
    progress: Callable[[str], None] | None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
    checkpoint_label: str = "ablation",
) -> list[AblationPoint]:
    """Run every (label, config) point and collect its rates.

    All points' runs go through the backend as one flat task list;
    each point re-uses the same master seed so variants face identical
    random initial conditions (the knob under study is the only
    difference).  ``retry``/``timeout`` engage the backend's fault
    tolerance and ``checkpoint`` journals completed runs under
    ``checkpoint_label`` so an interrupted sweep resumes.
    """
    backend = backend or SerialBackend()
    blocks_cache: dict[int, BlockSet] = {}
    tasks_per_point = []
    for _, config in points:
        if config.block_length not in blocks_cache:
            blocks_cache[config.block_length] = test_set.blocks(
                config.block_length
            )
        optimizer = EAMVOptimizer(config, seed=seed)
        tasks_per_point.append(
            optimizer.build_run_tasks(blocks_cache[config.block_length])
        )

    cache = (
        checkpoint.cache(f"{checkpoint_label}:seed{seed}")
        if checkpoint is not None
        else None
    )
    grouped = grouped_map(
        backend,
        execute_run_task,
        [
            (label, tasks)
            for (label, _), tasks in zip(points, tasks_per_point)
        ],
        progress=progress,
        retry=retry,
        timeout=timeout,
        cache=cache,
    )

    results = []
    for (label, config), point_outcomes in zip(points, grouped):
        result = OptimizationResult(config=config, runs=tuple(point_outcomes))
        results.append(
            AblationPoint(
                label=label,
                mean_rate=result.mean_rate,
                best_rate=result.best_rate,
                evaluations=result.total_evaluations,
            )
        )
    return results


def kl_sweep(
    test_set: TestSet,
    grid: Sequence[tuple[int, int]] = ((4, 8), (8, 9), (8, 32), (12, 64), (16, 64)),
    ea: EAParameters | None = None,
    runs: int = 3,
    seed: int = 7,
    backend: ExecutionBackend | None = None,
    progress: Callable[[str], None] | None = None,
    kernel: str = "auto",
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
) -> list[AblationPoint]:
    """Compression rate across (K, L) — the source of 'EA-Best'."""
    ea = ea or EAParameters(stagnation_limit=30, max_evaluations=1200)
    points = [
        (
            f"K={block_length},L={n_vectors}",
            CompressionConfig(
                block_length=block_length,
                n_vectors=n_vectors,
                runs=runs,
                kernel=kernel,
                ea=ea,
            ),
        )
        for block_length, n_vectors in grid
    ]
    return _sweep(
        test_set, points, seed, backend, progress,
        retry=retry, timeout=timeout, checkpoint=checkpoint,
        checkpoint_label=f"ablation:kl:{test_set.name}",
    )


def operator_sweep(
    test_set: TestSet,
    block_length: int = 12,
    n_vectors: int = 64,
    runs: int = 3,
    seed: int = 7,
    backend: ExecutionBackend | None = None,
    progress: Callable[[str], None] | None = None,
    kernel: str = "auto",
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
) -> list[AblationPoint]:
    """Vary the operator-probability mix around the paper's setting."""
    base = dict(stagnation_limit=30, max_evaluations=1200)
    variants = {
        "paper (30/30/10)": EAParameters(**base),
        "crossover-heavy (60/20/10)": EAParameters(
            crossover_probability=0.6, mutation_probability=0.2, **base
        ),
        "mutation-heavy (10/70/10)": EAParameters(
            crossover_probability=0.1, mutation_probability=0.7, **base
        ),
        "no inversion (40/40/0)": EAParameters(
            crossover_probability=0.4,
            mutation_probability=0.4,
            inversion_probability=0.0,
            **base,
        ),
        "mutation only (0/100/0)": EAParameters(
            crossover_probability=0.0,
            mutation_probability=1.0,
            inversion_probability=0.0,
            **base,
        ),
    }
    points = [
        (
            label,
            CompressionConfig(
                block_length=block_length, n_vectors=n_vectors, runs=runs,
                kernel=kernel, ea=ea,
            ),
        )
        for label, ea in variants.items()
    ]
    return _sweep(
        test_set, points, seed, backend, progress,
        retry=retry, timeout=timeout, checkpoint=checkpoint,
        checkpoint_label=f"ablation:operators:{test_set.name}",
    )


def seeding_ablation(
    test_set: TestSet,
    block_length: int = 12,
    n_vectors: int = 64,
    runs: int = 3,
    seed: int = 7,
    backend: ExecutionBackend | None = None,
    progress: Callable[[str], None] | None = None,
    kernel: str = "auto",
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
) -> list[AblationPoint]:
    """Random initial population vs one individual seeded with 9C MVs."""
    base = dict(stagnation_limit=30, max_evaluations=1200)
    points = [
        (
            label,
            CompressionConfig(
                block_length=block_length, n_vectors=n_vectors, runs=runs,
                kernel=kernel, ea=ea,
            ),
        )
        for label, ea in (
            ("random init (paper)", EAParameters(**base)),
            ("9C-seeded init", EAParameters(seed_nine_c=True, **base)),
        )
    ]
    return _sweep(
        test_set, points, seed, backend, progress,
        retry=retry, timeout=timeout, checkpoint=checkpoint,
        checkpoint_label=f"ablation:seeding:{test_set.name}",
    )


def subsumption_ablation(
    test_set: TestSet,
    block_length: int = 12,
    n_vectors: int = 64,
    runs: int = 3,
    seed: int = 7,
    backend: ExecutionBackend | None = None,
    progress: Callable[[str], None] | None = None,
    kernel: str = "auto",
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
) -> list[AblationPoint]:
    """Plain Huffman vs subsumption-refined encoding of the same MVs.

    The EA searches once under plain Huffman (the paper's setup); the
    found MV sets are then re-encoded with the Section 3.3 merge.
    """
    ea = EAParameters(stagnation_limit=30, max_evaluations=1200)
    config = CompressionConfig(
        block_length=block_length, n_vectors=n_vectors, runs=runs,
        kernel=kernel, ea=ea,
    )
    blocks = test_set.blocks(block_length)
    result = EAMVOptimizer(config, seed=seed, backend=backend).optimize(
        blocks, retry=retry, timeout=timeout
    )
    if progress is not None:
        progress(f"  search done ({runs} runs); re-encoding both ways")
    plain = [
        compress_blocks(blocks, run.mv_set, EncodingStrategy.HUFFMAN).rate
        for run in result.runs
    ]
    refined = [
        compress_blocks(blocks, run.mv_set, EncodingStrategy.HUFFMAN_SUBSUME).rate
        for run in result.runs
    ]
    return [
        AblationPoint(
            label="huffman (paper)",
            mean_rate=float(sum(plain) / len(plain)),
            best_rate=float(max(plain)),
            evaluations=result.total_evaluations,
        ),
        AblationPoint(
            label="huffman + subsumption (Sec. 3.3)",
            mean_rate=float(sum(refined) / len(refined)),
            best_rate=float(max(refined)),
            evaluations=result.total_evaluations,
        ),
    ]


def decoder_cost_study(
    test_set: TestSet,
    block_length: int = 12,
    n_vectors: int = 64,
    seed: int = 7,
    backend: ExecutionBackend | None = None,
    kernel: str = "auto",
) -> dict[str, dict[str, float]]:
    """Payload vs code-table cost for 9C and the EA decoder.

    Supports the paper's Section 5 discussion of reconfigurable
    decoders: the EA decoder needs a per-test-set code table whose
    size is tiny next to the payload saving.
    """
    nine_c_blocks = test_set.blocks(DEFAULT_NINE_C_BLOCK_LENGTH)
    nine_c = compress_nine_c(nine_c_blocks)
    ea_config = CompressionConfig(
        block_length=block_length,
        n_vectors=n_vectors,
        runs=1,
        kernel=kernel,
        ea=EAParameters(stagnation_limit=30, max_evaluations=1200),
    )
    blocks = test_set.blocks(block_length)
    best = (
        EAMVOptimizer(ea_config, seed=seed, backend=backend)
        .optimize(blocks)
        .best_mv_set
    )
    ea = compress_blocks(blocks, best)
    return {
        "9C": {
            "rate": nine_c.rate,
            "payload_bits": float(nine_c.compressed_bits),
            "code_table_bits": float(nine_c.code_table_bits()),
        },
        "EA": {
            "rate": ea.rate,
            "payload_bits": float(ea.compressed_bits),
            "code_table_bits": float(ea.code_table_bits()),
        },
    }
