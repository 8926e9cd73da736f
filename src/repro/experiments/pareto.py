"""Pareto-front experiment protocol for the multi-objective EA mode.

The multi-objective counterpart of :class:`repro.core.optimizer.EAMVOptimizer`:
several independent seeded NSGA-II runs
(:class:`repro.ea.multi_objective.MultiObjectiveEngine`) fan out as
picklable self-seeded :class:`ParetoRunTask` units, their per-run
fronts merge into one global non-dominated front, and the result
renders as a markdown table with a hypervolume summary
(:func:`pareto_markdown`).

The determinism discipline is the single-objective protocol's,
unchanged: every task is a pure function of its fields (blocks,
config, objectives, its own ``SeedSequence`` child), results are
reassembled in run order, and front merging is pure array work — so a
given ``(seed, blocks, config, objectives)`` produces a byte-identical
front on every backend, at every job count, under every kernel (pinned
by ``tests/ea/test_multi_objective.py``).

Checkpoint/resume reuses the PR-6 journal machinery with a
Pareto-specific fingerprint (the single-objective semantic fingerprint
plus the objective names and a ``kind`` tag, so single- and
multi-objective journals can never serve each other's entries) and a
Pareto codec that stores every front point's genome and exact values —
resumed fronts are byte-identical to uninterrupted ones.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.blocks import BlockSet, block_table_digest
from ..core.config import CompressionConfig
from ..core.optimizer import _task_engine
from ..ea.multi_objective import (
    MOGenerationStats,
    MultiObjectiveEngine,
    MultiObjectiveResult,
    ParetoPoint,
    hypervolume,
    minimization_form,
    non_dominated_mask,
)
from ..parallel import (
    ExecutionBackend,
    FaultToleranceStats,
    RetryPolicy,
    SerialBackend,
    grouped_map,
)
from .checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    RunTaskCache,
    _seed_identity,
    _semantic_config,
)

__all__ = [
    "OBJECTIVE_SETS",
    "ParetoRunTask",
    "ParetoRunOutcome",
    "ParetoFrontResult",
    "ParetoTaskCache",
    "build_pareto_front",
    "execute_pareto_task",
    "merge_fronts",
    "pareto_markdown",
    "pareto_task_fingerprint",
]

# The CLI's --objectives vocabulary.  "rate" is the classic
# single-objective path (EvolutionaryEngine); the others
# route to the multi-objective protocol below.
OBJECTIVE_SETS: dict[str, tuple[str, ...]] = {
    "rate": ("rate",),
    "rate+area": ("rate", "area"),
    "rate+area+time": ("rate", "area", "time"),
}

_OBJECTIVE_LABELS = {
    "rate": "Rate %",
    "area": "Area bits",
    "time": "Time cycles",
}

_OBJECTIVE_UNITS = {"rate": "%", "area": "bits", "time": "cycles"}


@dataclass(frozen=True)
class ParetoRunTask:
    """One independent multi-objective run as a self-seeded work unit.

    Mirrors :class:`repro.core.optimizer.RunTask`, plus the objective
    names — part of the task identity (and of its fingerprint) because
    they change what the engine searches.
    """

    run_index: int
    blocks: BlockSet
    config: CompressionConfig
    objectives: tuple[str, ...]
    seed_sequence: np.random.SeedSequence


@dataclass(frozen=True)
class ParetoRunOutcome:
    """One run's Pareto archive (natural-value points) plus run stats."""

    run_index: int
    result: MultiObjectiveResult = field(repr=False)

    @property
    def front(self) -> tuple[ParetoPoint, ...]:
        """The run's final archive, deterministically sorted."""
        return self.result.front


def execute_pareto_task(task: ParetoRunTask) -> ParetoRunOutcome:
    """Run one independent NSGA-II search — the backend work unit.

    Module-level and deterministic, exactly like
    :func:`repro.core.optimizer.execute_run_task`, whose engine setup
    (and so RNG derivation) it shares, so fronts are backend- and
    job-count-invariant.
    """
    engine = _task_engine(task, MultiObjectiveEngine, objectives=task.objectives)
    return ParetoRunOutcome(run_index=task.run_index, result=engine.run())


# -- checkpointing -----------------------------------------------------


def pareto_task_fingerprint(task: ParetoRunTask) -> str:
    """Stable hex key naming exactly one seeded multi-objective run.

    The single-objective fingerprint's payload plus the objective names
    and a ``kind`` discriminator — a Pareto journal entry can never be
    mistaken for a rate-only one (or vice versa) even under identical
    configs and seeds.
    """
    payload = {
        "version": FORMAT_VERSION,
        "kind": "pareto",
        "objectives": list(task.objectives),
        "run_index": int(task.run_index),
        "config": _semantic_config(task.config),
        "seed": _seed_identity(task.seed_sequence),
        "blocks": block_table_digest(task.blocks),
    }
    serialized = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(serialized.encode()).hexdigest()


def encode_pareto_outcome(outcome: ParetoRunOutcome) -> dict[str, Any]:
    """A :class:`ParetoRunOutcome` as plain JSON (genomes + exact values)."""
    result = outcome.result
    return {
        "run_index": int(outcome.run_index),
        "objectives": list(result.objectives),
        "front": [
            {
                "genome": [int(gene) for gene in np.asarray(point.genome).ravel()],
                "values": [float(value) for value in point.values],
            }
            for point in result.front
        ],
        "mo": {
            "generations": int(result.generations),
            "evaluations": int(result.evaluations),
            "terminated_by": str(result.terminated_by),
            "cache_hits": int(result.cache_hits),
            "cache_hit_rate": float(result.cache_hit_rate),
        },
    }


def decode_pareto_outcome(
    record: dict[str, Any], task: ParetoRunTask
) -> ParetoRunOutcome:
    """Rebuild the exact outcome a worker once returned (empty history).

    Journals written before the MV cache was removed also carry
    ``mv_cache_*`` keys; they are ignored.
    """
    front = tuple(
        ParetoPoint(
            genome=np.asarray(entry["genome"], dtype=np.int8),
            values=tuple(float(value) for value in entry["values"]),
        )
        for entry in record["front"]
    )
    mo = record["mo"]
    history: tuple[MOGenerationStats, ...] = ()
    result = MultiObjectiveResult(
        objectives=tuple(str(name) for name in record["objectives"]),
        front=front,
        generations=int(mo["generations"]),
        evaluations=int(mo["evaluations"]),
        terminated_by=str(mo["terminated_by"]),
        history=history,
        cache_hits=int(mo["cache_hits"]),
        cache_hit_rate=float(mo["cache_hit_rate"]),
    )
    return ParetoRunOutcome(run_index=int(record["run_index"]), result=result)


class ParetoTaskCache(RunTaskCache):
    """``grouped_map`` cache adapter over a journal, Pareto-typed.

    :class:`repro.experiments.checkpoint.RunTaskCache` gated on the
    Pareto task/outcome types, with the Pareto fingerprint and codec —
    so it can share a journal directory (never a journal *entry*:
    fingerprints carry the ``kind`` tag) with single-objective caches.
    """

    _task_type = ParetoRunTask
    _outcome_type = ParetoRunOutcome
    _task_fingerprint = staticmethod(pareto_task_fingerprint)
    _encode = staticmethod(encode_pareto_outcome)
    _decode = staticmethod(decode_pareto_outcome)


# -- front merging and the result --------------------------------------


def merge_fronts(
    outcomes: Sequence[ParetoRunOutcome], objectives: Sequence[str]
) -> tuple[ParetoPoint, ...]:
    """Union the per-run archives into one global non-dominated front.

    Pure array work, deterministic: union in run order, filter to the
    non-dominated set, keep the first genome per objective-distinct
    point, sort lexicographically in minimization space (best rate
    first).
    """
    points = [point for outcome in outcomes for point in outcome.front]
    if not points:
        return ()
    matrix = minimization_form(
        np.asarray([point.values for point in points]), objectives
    )
    mask = non_dominated_mask(matrix)
    merged: list[tuple[tuple[float, ...], ParetoPoint]] = []
    seen: set[tuple[float, ...]] = set()
    for keep, row, point in zip(mask, matrix, points):
        if not keep:
            continue
        key = tuple(float(value) for value in row)
        if key in seen:
            continue
        seen.add(key)
        merged.append((key, point))
    merged.sort(key=lambda pair: pair[0])
    return tuple(point for _, point in merged)


@dataclass(frozen=True)
class ParetoFrontResult:
    """Aggregate of all multi-objective runs for one (blocks, config)."""

    objectives: tuple[str, ...]
    config: CompressionConfig
    runs: tuple[ParetoRunOutcome, ...]
    front: tuple[ParetoPoint, ...]

    @property
    def total_evaluations(self) -> int:
        """Fitness evaluations spent across all runs."""
        return sum(outcome.result.evaluations for outcome in self.runs)

    def reference_point(self) -> tuple[float, ...]:
        """Hypervolume reference: the front's per-objective worst + 1.

        Stated in *natural* values.  Derived from the final merged
        front only, so it is as deterministic as the front itself.
        Empty fronts have no reference (raises ``ValueError``).
        """
        if not self.front:
            raise ValueError("empty front has no reference point")
        matrix = minimization_form(
            np.asarray([point.values for point in self.front]), self.objectives
        )
        reference = matrix.max(axis=0) + 1.0
        natural = minimization_form(reference, self.objectives)
        return tuple(float(value) for value in natural)

    def front_hypervolume(self) -> float:
        """Hypervolume of the merged front against :meth:`reference_point`."""
        if not self.front:
            return 0.0
        matrix = minimization_form(
            np.asarray([point.values for point in self.front]), self.objectives
        )
        reference = minimization_form(
            np.asarray(self.reference_point()), self.objectives
        )
        return hypervolume(matrix, reference)


def default_pareto_label(objectives: Sequence[str]) -> str:
    """The journal label the CLI and tests agree on."""
    return f"pareto-{'+'.join(objectives)}"


def build_pareto_front(
    blocks: BlockSet,
    config: CompressionConfig | None = None,
    objectives: Sequence[str] = OBJECTIVE_SETS["rate+area+time"],
    seed: int | np.random.SeedSequence | None = None,
    backend: ExecutionBackend | None = None,
    *,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    stats: FaultToleranceStats | None = None,
    checkpoint: CheckpointStore | None = None,
    label: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> ParetoFrontResult:
    """Run ``config.runs`` independent NSGA-II searches and merge fronts.

    The multi-objective counterpart of
    :func:`repro.core.optimizer.optimize_mv_set`: per-run
    ``SeedSequence`` children are spawned exactly like the optimizer's,
    tasks flow through ``grouped_map`` (so ``retry``/``timeout``/
    ``stats``/checkpoint ``--resume`` all behave as in the
    single-objective protocol), and the merged front is a pure function
    of ``(seed, blocks, config, objectives)``.
    """
    config = config or CompressionConfig()
    names = tuple(objectives)
    sequence = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    children = sequence.spawn(config.runs)
    tasks = [
        ParetoRunTask(
            run_index=run_index,
            blocks=blocks,
            config=config,
            objectives=names,
            seed_sequence=child,
        )
        for run_index, child in enumerate(children)
    ]
    cache = None
    journal_label = label or default_pareto_label(names)
    if checkpoint is not None:
        cache = ParetoTaskCache(
            journal=checkpoint.journal(journal_label), stats=stats
        )
    outcomes = grouped_map(
        backend or SerialBackend(),
        execute_pareto_task,
        [(journal_label, tasks)],
        progress=progress,
        retry=retry,
        timeout=timeout,
        stats=stats,
        cache=cache,
    )[0]
    runs = tuple(outcomes)
    return ParetoFrontResult(
        objectives=names,
        config=config,
        runs=runs,
        front=merge_fronts(runs, names),
    )


# -- reporting ---------------------------------------------------------


def _format_value(name: str, value: float) -> str:
    if name == "rate":
        return f"{value:.2f}"
    return f"{int(value)}"


def pareto_markdown(result: ParetoFrontResult) -> str:
    """The merged front as a markdown table plus a hypervolume summary.

    Deterministic text (no timings, no floats beyond the exact
    objective values), so seeded output is byte-comparable across
    backends, job counts and kernels.
    """
    names = result.objectives
    lines = [f"### Pareto front ({', '.join(names)})", ""]
    header = "| # | " + " | ".join(_OBJECTIVE_LABELS[n] for n in names) + " |"
    align = "|--:|" + "|".join("------:" for _ in names) + "|"
    lines.append(header)
    lines.append(align)
    for index, point in enumerate(result.front, start=1):
        cells = " | ".join(
            _format_value(name, value)
            for name, value in zip(names, point.values)
        )
        lines.append(f"| {index} | {cells} |")
    lines.append("")
    if result.front:
        reference = ", ".join(
            f"{name} {_format_value(name, value)} {_OBJECTIVE_UNITS[name]}"
            for name, value in zip(names, result.reference_point())
        )
        lines.append(
            f"- non-dominated points: {len(result.front)} "
            f"(from {len(result.runs)} runs, "
            f"{result.total_evaluations} evaluations)"
        )
        lines.append(
            f"- hypervolume: {result.front_hypervolume():.4f} "
            f"(reference: {reference})"
        )
    else:
        lines.append(
            "- no valid solutions found (every genome left blocks uncovered)"
        )
    return "\n".join(lines) + "\n"
