"""EA-driven matching-vector optimization (paper Section 3.1 / 4).

:class:`EAMVOptimizer` runs the evolutionary engine over MV-set
genomes for a given block set and configuration.  Following the
paper's experimental protocol it performs several independent runs
(default 5) and reports both the mean achieved compression rate (the
'EA' columns of Tables 1 and 2) and the best run (input to the
'EA-Best' column).

Parallel architecture
---------------------
The independent runs are the paper's natural fan-out axis, so the
optimizer builds one picklable :class:`RunTask` per run up front —
each carrying its own :class:`numpy.random.SeedSequence` child — and
submits them through an :class:`repro.parallel.ExecutionBackend`
(serial by default).  :func:`execute_run_task` is the module-level
work unit, so callers like :mod:`repro.experiments.runner` can flatten
several optimizers' tasks (e.g. every run of every K/L grid point of a
table row) into one backend submission.  Because every task is
self-seeded and results are reassembled in run-index order, a given
``(seed, blocks, config)`` produces bit-identical results on every
backend and at every job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ea.engine import EAResult, EvolutionaryEngine
from ..parallel import (
    ExecutionBackend,
    FaultToleranceStats,
    RetryPolicy,
    SerialBackend,
)
from .blocks import BlockSet
from .compressor import CompressedTestSet, compress_blocks
from .config import CompressionConfig
from .fitness import BatchCompressionRateFitness
from .matching import MVSet
from .nine_c import nine_c_mv_set
from .trits import DC

__all__ = [
    "RunOutcome",
    "OptimizationResult",
    "RunTask",
    "execute_run_task",
    "EAMVOptimizer",
    "optimize_mv_set",
]


@dataclass(frozen=True)
class RunOutcome:
    """One independent EA run: its best MV set and achieved rate."""

    run_index: int
    mv_set: MVSet
    rate: float
    ea_result: EAResult = field(repr=False)


@dataclass(frozen=True)
class OptimizationResult:
    """Aggregate of all runs for one (test set, configuration) pair."""

    config: CompressionConfig
    runs: tuple[RunOutcome, ...]

    @property
    def mean_rate(self) -> float:
        """Average compression rate over runs (the paper's 'EA' value)."""
        return float(np.mean([run.rate for run in self.runs]))

    @property
    def best_run(self) -> RunOutcome:
        """The run with the highest compression rate."""
        return max(self.runs, key=lambda run: run.rate)

    @property
    def best_rate(self) -> float:
        """Best rate over runs."""
        return self.best_run.rate

    @property
    def best_mv_set(self) -> MVSet:
        """MV set of the best run."""
        return self.best_run.mv_set

    @property
    def total_evaluations(self) -> int:
        """Fitness evaluations spent across all runs."""
        return sum(run.ea_result.evaluations for run in self.runs)


@dataclass(frozen=True)
class RunTask:
    """One independent EA run as a picklable, self-seeded work unit.

    Everything a worker needs travels with the task: the block set,
    the full configuration, and a dedicated seed-sequence child, so
    executing the task is a pure function of its fields — the property
    the serial-vs-parallel parity tests rely on.
    """

    run_index: int
    blocks: BlockSet
    config: CompressionConfig
    seed_sequence: np.random.SeedSequence


class _PinAllU:
    """Repair callable pinning the last MV slot to all-U (picklable)."""

    def __init__(self, block_length: int) -> None:
        self._block_length = block_length

    def __call__(self, genome: np.ndarray) -> np.ndarray:
        repaired = genome.copy()
        repaired[-self._block_length :] = DC
        return repaired


def _seed_genomes(
    config: CompressionConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Optional 9C-seeded individual for the initial population."""
    if not config.ea.seed_nine_c:
        return []
    genome = rng.integers(0, 3, size=config.genome_length, dtype=np.int8)
    nine = nine_c_mv_set(config.block_length).to_genome()
    genome[: nine.size] = nine
    return [genome]


def _task_engine(
    task, engine_type: type[EvolutionaryEngine] = EvolutionaryEngine, **options
) -> EvolutionaryEngine:
    """The seeded engine of one run task (single- or multi-objective).

    One generator per task, derived from the task's ``SeedSequence``
    child, draws the engine seed first and then the optional 9C-seeded
    genome — the RNG derivation both run protocols share.
    """
    config = task.config
    rng = np.random.default_rng(task.seed_sequence)
    fitness = BatchCompressionRateFitness(
        task.blocks,
        n_vectors=config.n_vectors,
        block_length=config.block_length,
        strategy=config.strategy,
    )
    return engine_type(
        fitness=fitness,
        genome_length=config.genome_length,
        params=config.ea,
        seed=rng.integers(0, 2**63 - 1),
        repair=_PinAllU(config.block_length) if config.ea.include_all_u else None,
        initial_genomes=_seed_genomes(config, rng),
        **options,
    )


def execute_run_task(task: RunTask) -> RunOutcome:
    """Run one independent EA search — the backend work unit.

    Module-level (hence picklable for :class:`ProcessBackend`) and
    deterministic: the outcome depends only on the task's fields,
    never on global state, worker identity, or completion order.
    """
    result = _task_engine(task).run()
    return RunOutcome(
        run_index=task.run_index,
        mv_set=MVSet.from_genome(result.best_genome, task.config.block_length),
        rate=result.best_fitness,
        ea_result=result,
    )


class EAMVOptimizer:
    """Search for ``L`` matching vectors maximizing the compression rate.

    Parameters
    ----------
    config:
        Block length ``K``, vector count ``L``, encoding strategy, EA
        parameters and run count.
    seed:
        Master seed (``int``) or an already-spawned
        :class:`~numpy.random.SeedSequence` child; run ``r`` uses the
        ``r``-th spawned child stream, so results are reproducible and
        runs are independent — regardless of execution backend.
    backend:
        Where the independent runs execute; default
        :class:`~repro.parallel.SerialBackend`.  Results are
        reassembled in run-index order, so the backend never changes
        the outcome, only the wall clock.
    """

    def __init__(
        self,
        config: CompressionConfig | None = None,
        seed: int | np.random.SeedSequence | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self._config = config or CompressionConfig()
        self._seed_sequence = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        # Spawned once and cached: SeedSequence.spawn advances spawn
        # state, so caching keeps build_run_tasks/optimize idempotent
        # — building tasks never perturbs a later optimize().
        self._run_seeds: tuple[np.random.SeedSequence, ...] | None = None
        self._backend = backend or SerialBackend()

    @property
    def config(self) -> CompressionConfig:
        """The configuration this optimizer runs with."""
        return self._config

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend runs are submitted through."""
        return self._backend

    def build_run_tasks(self, blocks: BlockSet) -> tuple[RunTask, ...]:
        """The independent runs as self-seeded work units.

        Exposed so higher layers (the experiment runner's K/L grid,
        ablation sweeps) can flatten many optimizers' runs into one
        backend submission; plain :meth:`optimize` is equivalent to
        executing these tasks and assembling the outcomes.  The per-run
        seed children are spawned once per optimizer, so repeated calls
        (or building tasks before calling :meth:`optimize`) always
        describe the same runs.
        """
        config = self._config
        if self._run_seeds is None:
            self._run_seeds = tuple(self._seed_sequence.spawn(config.runs))
        return tuple(
            RunTask(
                run_index=run_index,
                blocks=blocks,
                config=config,
                seed_sequence=child,
            )
            for run_index, child in enumerate(self._run_seeds)
        )

    def optimize(
        self,
        blocks: BlockSet,
        *,
        retry: "RetryPolicy | None" = None,
        timeout: float | None = None,
        stats: "FaultToleranceStats | None" = None,
    ) -> OptimizationResult:
        """Run the configured number of independent EA searches.

        ``retry``/``timeout``/``stats`` engage the backend's
        fault-tolerance layer (see :mod:`repro.parallel.retry`).
        Because every task is self-seeded, retried runs return
        bit-identical outcomes.
        """
        outcomes = self._backend.map(
            execute_run_task, self.build_run_tasks(blocks),
            retry=retry, timeout=timeout, stats=stats,
        )
        return OptimizationResult(config=self._config, runs=tuple(outcomes))

    def compress_best(self, blocks: BlockSet) -> CompressedTestSet:
        """Optimize, then materialize the best run's compressed stream."""
        result = self.optimize(blocks)
        return compress_blocks(
            blocks,
            result.best_mv_set,
            self._config.strategy,
            fill_default=self._config.fill_default,
        )


def optimize_mv_set(
    blocks: BlockSet,
    config: CompressionConfig | None = None,
    seed: int | np.random.SeedSequence | None = None,
    backend: ExecutionBackend | None = None,
) -> OptimizationResult:
    """Functional convenience wrapper around :class:`EAMVOptimizer`."""
    return EAMVOptimizer(config, seed, backend).optimize(blocks)
