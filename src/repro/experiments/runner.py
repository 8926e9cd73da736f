"""Run the paper's four methods on one table row.

A row run is: calibrate a synthetic test set against the paper's 9C
column, then evaluate

* **9C** — fixed nine-vector code at K = 8 [20],
* **9C+HC** — same covering, Huffman codewords,
* **EA** (Table 1) / **EA1**, **EA2** (Table 2) — the paper's EA
  configurations, averaged over independent runs,
* **EA-Best** (Table 1) — best run over a K/L grid.

Budgets are explicit: the ``PAPER`` budget mirrors Section 4 (5 runs,
500-generation stagnation); the default ``QUICK`` budget shrinks the
run count and stagnation window so a full table regenerates in
minutes on a laptop.  Test sets larger than ``search_bit_cap`` are
subsampled for the EA *search* only — the reported rate always prices
the found MV sets on the complete test set.

Parallel architecture
---------------------
All EA work of a row — every independent run of every configuration,
including the whole EA-Best K/L grid — is flattened into one list of
self-seeded :class:`repro.core.optimizer.RunTask` units and submitted
through an :class:`repro.parallel.ExecutionBackend` in a single
``map`` call, so a row with a 5-point grid and 5 runs per point keeps
30 workers busy at once.  Seeds are spawned per configuration from the
row seed via :func:`repro.parallel.spawn_seeds` (one
``SeedSequence`` child per configuration, one grandchild per run), so
results are bit-identical on every backend and at every job count.
Per-configuration progress is routed through an ordered fan-in — no
interleaved lines under concurrency.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.blocks import BlockSet
from ..core.compressor import compress_blocks
from ..core.config import CompressionConfig, EAParameters
from ..core.encoding import EncodingStrategy
from ..core.nine_c import DEFAULT_NINE_C_BLOCK_LENGTH, compress_nine_c
from ..core.optimizer import (
    EAMVOptimizer,
    OptimizationResult,
    RunTask,
    execute_run_task,
)
from ..parallel import (
    ExecutionBackend,
    FaultToleranceStats,
    RetryPolicy,
    SerialBackend,
    grouped_map,
    spawn_seeds,
)
from ..testdata.calibration import calibrate_spec
from ..testdata.registry import PaperRow
from ..testdata.synthetic import SyntheticSpec
from ..testdata.test_set import TestSet
from .checkpoint import CheckpointStore

__all__ = ["ExperimentBudget", "QUICK", "PAPER", "RowResult", "run_row"]


@dataclass(frozen=True)
class ExperimentBudget:
    """How much EA effort a table run spends per row."""

    runs: int
    stagnation_limit: int
    max_evaluations: int | None
    kl_grid: tuple[tuple[int, int], ...]  # EA-Best candidates (K, L)
    search_bit_cap: int  # subsample test sets beyond this for the search

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"budget runs must be >= 1, got {self.runs}")
        if self.stagnation_limit < 1:
            raise ValueError(
                f"stagnation_limit must be >= 1, got {self.stagnation_limit}"
            )
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError(
                f"max_evaluations must be >= 1 or None, got {self.max_evaluations}"
            )
        if not self.kl_grid:
            raise ValueError(
                "kl_grid must name at least one (K, L) candidate — "
                "EA-Best is a maximum over the grid"
            )
        if any(
            block_length < 1 or n_vectors < 1
            for block_length, n_vectors in self.kl_grid
        ):
            raise ValueError(f"kl_grid entries must be positive, got {self.kl_grid}")
        if self.search_bit_cap < 1:
            raise ValueError(
                f"search_bit_cap must be >= 1, got {self.search_bit_cap}"
            )

    def ea_parameters(self) -> EAParameters:
        """Paper operator probabilities with this budget's termination."""
        return EAParameters(
            stagnation_limit=self.stagnation_limit,
            max_evaluations=self.max_evaluations,
        )


QUICK = ExperimentBudget(
    runs=3,
    stagnation_limit=30,
    max_evaluations=1500,
    kl_grid=((8, 16), (12, 64)),
    search_bit_cap=50_000,
)

PAPER = ExperimentBudget(
    runs=5,
    stagnation_limit=500,
    max_evaluations=None,
    kl_grid=((8, 16), (8, 32), (12, 64), (16, 64), (16, 128)),
    search_bit_cap=250_000,
)


@dataclass(frozen=True)
class RowResult:
    """Measured vs published rates for one circuit row."""

    circuit: str
    kind: str  # "stuck-at" | "path-delay"
    test_set_bits: int
    care_density: float
    anchor_error: float
    measured: dict[str, float]
    published: dict[str, float]
    seconds: float = field(default=0.0, compare=False)
    # What the fault-tolerance layer absorbed while measuring this row
    # (attempts/retries/timeouts/crashes/resumed, see
    # FaultToleranceStats.as_dict).  Diagnostic only: excluded from
    # comparison and never rendered into tables, so resumed or retried
    # rows stay byte-identical to clean ones.
    fault_stats: dict[str, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def delta(self, column: str) -> float:
        """measured − published, in percentage points."""
        return self.measured[column] - self.published[column]


def _subsample(test_set: TestSet, max_bits: int, seed: int) -> TestSet:
    """Random pattern subset with at most ``max_bits`` total bits."""
    if test_set.total_bits <= max_bits:
        return test_set
    keep = max(1, max_bits // test_set.n_inputs)
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(test_set.n_patterns, size=keep, replace=False))
    return TestSet(
        name=f"{test_set.name}-sample", patterns=test_set.patterns[chosen]
    )


@dataclass(frozen=True)
class _EAConfigJob:
    """One EA configuration of a row, expanded to per-run tasks."""

    label: str
    block_length: int
    tasks: tuple[RunTask, ...]


def _config_jobs(
    search_blocks: Callable[[int], BlockSet],
    configurations: list[tuple[str, int, int]],
    budget: ExperimentBudget,
    seed: int,
) -> list[_EAConfigJob]:
    """Build self-seeded run tasks for every (label, K, L) of a row.

    ``search_blocks(K)`` is the search set's block table at ``K``.
    Each configuration gets its own :class:`~numpy.random.SeedSequence`
    child of the row seed, and the optimizer spawns one grandchild per
    run — the spawn tree fixes every run's stream before any work is
    submitted, so execution order can never change results.
    """
    jobs = []
    for (label, block_length, n_vectors), child in zip(
        configurations, spawn_seeds(seed, len(configurations))
    ):
        config = CompressionConfig(
            block_length=block_length,
            n_vectors=n_vectors,
            runs=budget.runs,
            ea=budget.ea_parameters(),
        )
        optimizer = EAMVOptimizer(config, seed=child)
        jobs.append(
            _EAConfigJob(
                label=label,
                block_length=block_length,
                tasks=optimizer.build_run_tasks(search_blocks(block_length)),
            )
        )
    return jobs


def _execute_config_jobs(
    jobs: list[_EAConfigJob],
    full_blocks: Callable[[int], BlockSet],
    search_is_full: bool,
    backend: ExecutionBackend,
    progress: Callable[[str], None] | None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    stats: FaultToleranceStats | None = None,
    cache: Any = None,
) -> list[tuple[float, float]]:
    """(mean rate, best rate) per configuration, via one flat fan-out.

    The search may have run on a subsample; every run's best MV set is
    then re-priced on the full test set (``full_blocks(K)``, its block
    table at ``K``) with Huffman coding.  Progress
    emits one line per configuration, released in configuration order
    as soon as all of a configuration's runs are in.  ``retry``/
    ``timeout``/``stats`` ride through to the backend and ``cache``
    (a checkpoint :class:`~repro.experiments.checkpoint.RunTaskCache`)
    serves journaled runs instead of re-searching them.
    """
    grouped = grouped_map(
        backend,
        execute_run_task,
        [(job.label, job.tasks) for job in jobs],
        progress=progress,
        # `seconds` is elapsed since the row's flat submission started
        # (grouped_map's clock), not this configuration's own duration —
        # label it as a running total.
        describe=lambda label, n_runs, seconds: (
            f"  {label}: {n_runs} runs searched [t={seconds:5.1f}s]"
        ),
        retry=retry,
        timeout=timeout,
        stats=stats,
        cache=cache,
    )

    rates = []
    for job, job_outcomes in zip(jobs, grouped):
        result = OptimizationResult(
            config=job.tasks[0].config, runs=tuple(job_outcomes)
        )
        if search_is_full:
            rates.append((result.mean_rate, result.best_rate))
            continue
        repriced = [
            compress_blocks(
                full_blocks(job.block_length),
                run.mv_set,
                EncodingStrategy.HUFFMAN,
            ).rate
            for run in result.runs
        ]
        rates.append((float(np.mean(repriced)), float(max(repriced))))
    return rates


def run_row(
    row: PaperRow,
    kind: str,
    budget: ExperimentBudget = QUICK,
    seed: int = 2005,
    spec_overrides: dict | None = None,
    backend: ExecutionBackend | None = None,
    progress: Callable[[str], None] | None = None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
) -> RowResult:
    """Reproduce one table row: calibrate, then run all methods.

    ``kind`` is ``"stuck-at"`` (Table 1 columns: 9C, 9C+HC, EA,
    EA-Best) or ``"path-delay"`` (Table 2 columns: 9C, 9C+HC, EA1,
    EA2).  All EA runs of the row (including the EA-Best grid) fan out
    through ``backend``; results are independent of the backend and
    job count.

    ``retry`` and ``timeout`` make the row's EA fan-out fault
    tolerant (see :class:`repro.parallel.RetryPolicy`); ``checkpoint``
    journals every completed run under a per-row label so an
    interrupted row resumes instead of restarting — none of the three
    can change the measured values, only whether and how fast they
    arrive.  What was absorbed is reported in the result's
    ``fault_stats``.
    """
    if kind not in ("stuck-at", "path-delay"):
        raise ValueError(f"unknown experiment kind {kind!r}")
    backend = backend or SerialBackend()
    started = time.perf_counter()
    spec = SyntheticSpec(
        name=row.circuit,
        n_patterns=row.n_patterns,
        pattern_bits=row.pattern_bits,
        care_density=0.5,
        seed=seed,
        **(spec_overrides or {}),
    )
    calibration = calibrate_spec(spec, row.published["9C"])
    test_set = calibration.test_set

    # One block table per K for the whole row: the 9C columns, an
    # unsampled search and the re-pricing all share it.
    full_blocks = functools.cache(test_set.blocks)
    nine_c_blocks = full_blocks(DEFAULT_NINE_C_BLOCK_LENGTH)
    measured: dict[str, float] = {
        "9C": compress_nine_c(nine_c_blocks).rate,
        "9C+HC": compress_nine_c(nine_c_blocks, use_huffman=True).rate,
    }

    if kind == "stuck-at":
        configurations = [("EA K=12,L=64", 12, 64)] + [
            (f"EA-Best K={block_length},L={n_vectors}", block_length, n_vectors)
            for block_length, n_vectors in budget.kl_grid
        ]
    else:
        configurations = [("EA1 K=8,L=9", 8, 9), ("EA2 K=12,L=64", 12, 64)]

    search_set = _subsample(test_set, budget.search_bit_cap, seed)
    search_is_full = search_set is test_set
    search_blocks = (
        full_blocks if search_is_full else functools.cache(search_set.blocks)
    )
    jobs = _config_jobs(search_blocks, configurations, budget, seed)
    stats = FaultToleranceStats()
    cache = (
        checkpoint.cache(f"{kind}:{row.circuit}:seed{seed}", stats=stats)
        if checkpoint is not None
        else None
    )
    rates = _execute_config_jobs(
        jobs, full_blocks, search_is_full, backend, progress,
        retry=retry, timeout=timeout, stats=stats, cache=cache,
    )

    if kind == "stuck-at":
        mean_rate, _ = rates[0]
        measured["EA"] = mean_rate
        best_over_grid = max(best for _, best in rates[1:])
        measured["EA-Best"] = max(best_over_grid, mean_rate)
    else:
        measured["EA1"] = rates[0][0]
        measured["EA2"] = rates[1][0]

    return RowResult(
        circuit=row.circuit,
        kind=kind,
        test_set_bits=row.test_set_bits,
        care_density=calibration.spec.care_density,
        anchor_error=calibration.anchor_error,
        measured=measured,
        published=dict(row.published),
        seconds=time.perf_counter() - started,
        fault_stats=stats.as_dict(),
    )
