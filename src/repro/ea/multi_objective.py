"""NSGA-II-style multi-objective EA mode over (rate, area, time).

The paper's EA maximizes compression rate alone, but its own cost
model exposes two more axes: decoder area
(:attr:`repro.core.decoder_hw.DecoderModel.area_units`) and
test-application time (:func:`repro.core.decoder_hw.test_application_cycles`).
:class:`MultiObjectiveEngine` searches all of them at once and returns
a *Pareto front* — the set of solutions no other found solution beats
on every objective simultaneously.

:class:`MultiObjectiveEngine` is a subclass of
:class:`repro.ea.engine.EvolutionaryEngine` and runs its loop: the
operators, genome memoization, termination and the batched fitness
pipeline (one covering pass per generation through
:meth:`repro.core.fitness.BatchCompressionRateFitness.evaluate_objectives`)
are inherited.  It overrides only what NSGA-II (Deb et al. 2002)
changes — each genome is priced to an objective tuple, survivor and
parent selection rank fronts, and the archive is the improvement
signal:

* **fast non-dominated sort** partitions a pool into fronts — front 0
  is the non-dominated set, front 1 what's non-dominated once front 0
  is removed, and so on;
* **crowding distance** orders solutions *within* a front by how
  isolated they are objective-space-wise (boundary solutions are
  infinitely crowd-distant, so the extremes always survive);
* **environmental selection** fills the next population front by
  front and crowding-truncates the last partial front;
* **crowded binary tournament** picks parents by (rank, crowding).

Everything is deterministic given the seed: every tie anywhere breaks
on ``birth_order`` (creation sequence), fronts and crowding use stable
sorts, and the objective vectors themselves are kernel-/backend-exact
integers (plus the rate, which is bit-identical to the
single-objective path).  Seeded fronts are therefore byte-reproducible
on every backend, job count and kernel — pinned by
``tests/ea/test_multi_objective.py``.

All comparisons inside this module are **minimization** comparisons;
maximized objectives (the rate) are sign-flipped on the way in and
flipped back on the way out (:data:`MAXIMIZED_OBJECTIVES`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.config import EAParameters
from ..core.fitness import OBJECTIVE_COLUMNS
from .engine import EvolutionaryEngine, RepairFunction

__all__ = [
    "MAXIMIZED_OBJECTIVES",
    "MOGenerationStats",
    "MOIndividual",
    "MultiObjectiveEngine",
    "MultiObjectiveResult",
    "ParetoPoint",
    "crowding_distance",
    "dominates",
    "fast_non_dominated_sort",
    "hypervolume",
    "minimization_form",
    "non_dominated_mask",
    "objective_signs",
]

# Objective names that are maximized in their natural form; everything
# else is minimized.  Used to sign-flip into minimization space.
MAXIMIZED_OBJECTIVES = frozenset({"rate"})


def objective_signs(objectives: Sequence[str]) -> np.ndarray:
    """Per-objective sign that maps natural values into minimization form."""
    return np.asarray(
        [-1.0 if name in MAXIMIZED_OBJECTIVES else 1.0 for name in objectives]
    )


def minimization_form(
    values: np.ndarray, objectives: Sequence[str]
) -> np.ndarray:
    """Map natural objective values to minimization space (and back).

    The mapping is its own inverse (signs are ±1), so the same call
    converts in either direction.
    """
    return np.asarray(values, dtype=np.float64) * objective_signs(objectives)


# -- dominance primitives (minimization space) ------------------------


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (minimization).

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    return bool((a_arr <= b_arr).all() and (a_arr < b_arr).any())


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row.

    Duplicate rows are all non-dominated (a point cannot dominate its
    equal).  Minimization space.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    n = len(obj)
    mask = np.ones(n, dtype=bool)
    for index in range(n):
        row = obj[index]
        dominated_by = ((obj <= row).all(axis=1)) & ((obj < row).any(axis=1))
        if dominated_by.any():
            mask[index] = False
    return mask


def fast_non_dominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Partition rows into Pareto fronts (Deb's fast sort, minimization).

    Returns a list of index arrays: front 0 first.  Indices within a
    front appear in a deterministic order derived from row order.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    n = len(obj)
    if n == 0:
        return []
    # Pairwise dominance in two vectorized passes: dominated[p, q] is
    # True when row p dominates row q.
    less_equal = (obj[:, None, :] <= obj[None, :, :]).all(axis=2)
    strictly_less = (obj[:, None, :] < obj[None, :, :]).any(axis=2)
    dominated = less_equal & strictly_less
    domination_count = dominated.sum(axis=0)
    fronts: list[np.ndarray] = []
    remaining = domination_count.copy()
    assigned = np.zeros(n, dtype=bool)
    current = np.flatnonzero(remaining == 0)
    while current.size:
        fronts.append(current)
        assigned[current] = True
        remaining = remaining - dominated[current].sum(axis=0)
        current = np.flatnonzero((remaining == 0) & ~assigned)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of each row *within one front*.

    Boundary rows per objective get ``inf``; interior rows accumulate
    the normalized neighbor gap per objective.  Objectives with zero or
    non-finite span contribute nothing (the latter only occurs for
    fronts of invalid individuals, whose area/time are ``inf``).
    Stable sorts keep results deterministic under duplicate values.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    n_points, n_objectives = obj.shape
    if n_points <= 2:
        return np.full(n_points, np.inf)
    distance = np.zeros(n_points, dtype=np.float64)
    for j in range(n_objectives):
        order = np.argsort(obj[:, j], kind="stable")
        column = obj[order, j]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if not (np.isfinite(column[0]) and np.isfinite(column[-1])):
            continue
        span = column[-1] - column[0]
        if span <= 0:
            continue
        gaps = (column[2:] - column[:-2]) / span
        interior = order[1:-1]
        finite = distance[interior] != np.inf
        distance[interior[finite]] += gaps[finite]
    return distance


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume dominated by ``points`` up to ``reference`` (minimization).

    The volume of objective space dominated by the front and bounded by
    the reference point — the standard scalar summary of front quality
    (bigger is better).  Points not strictly better than the reference
    on every objective contribute nothing.  Exact recursive slicing
    over the first objective; intended for the small fronts this search
    produces (cost grows steeply with dimension and front size).
    """
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != ref.shape[0]:
        raise ValueError("points must be (n, k) with a k-length reference")
    pts = pts[(pts < ref).all(axis=1)]
    if pts.size == 0:
        return 0.0
    pts = pts[non_dominated_mask(pts)]
    return _hypervolume_recursive(pts, ref)


def _hypervolume_recursive(pts: np.ndarray, ref: np.ndarray) -> float:
    if pts.shape[1] == 1:
        return float(ref[0] - pts[:, 0].min())
    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    xs = pts[:, 0]
    total = 0.0
    for index in range(len(pts)):
        next_x = xs[index + 1] if index + 1 < len(pts) else float(ref[0])
        width = next_x - xs[index]
        if width <= 0:
            continue
        # Cross-section at x ∈ [xs[index], next_x): every point seen so far.
        projection = pts[: index + 1, 1:]
        projection = projection[non_dominated_mask(projection)]
        total += width * _hypervolume_recursive(projection, ref[1:])
    return float(total)


# -- individuals and results ------------------------------------------


@dataclass(frozen=True)
class MOIndividual:
    """One priced genome with its minimization-form objective vector."""

    genome: np.ndarray = field(repr=False)
    objectives: tuple[float, ...]
    birth_order: int

    def __post_init__(self) -> None:
        self.genome.setflags(write=False)

    @property
    def is_valid(self) -> bool:
        """Whether every objective is finite (the MVs cover all blocks)."""
        return all(math.isfinite(value) for value in self.objectives)


@dataclass(frozen=True)
class ParetoPoint:
    """One front member in *natural* objective values.

    ``values`` aligns with the result's ``objectives`` names: the rate
    is a percentage (higher is better), area is storage bits and time
    is tester cycles (lower is better).
    """

    genome: np.ndarray = field(repr=False)
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        self.genome.setflags(write=False)


@dataclass(frozen=True)
class MOGenerationStats:
    """Per-generation trace record of the multi-objective loop."""

    generation: int
    front_size: int
    archive_size: int
    evaluations: int
    improved: bool


@dataclass(frozen=True)
class MultiObjectiveResult:
    """Outcome of one multi-objective run.

    ``front`` is the final archive — every objective-distinct
    non-dominated point discovered during the run, sorted
    deterministically (lexicographically in minimization space, so the
    best-rate point comes first).  The cache fields mirror
    :class:`repro.ea.engine.EAResult`.
    """

    objectives: tuple[str, ...]
    front: tuple[ParetoPoint, ...]
    generations: int
    evaluations: int
    terminated_by: str
    history: tuple[MOGenerationStats, ...] = field(repr=False)
    cache_hits: int = 0
    cache_hit_rate: float = 0.0


# -- the engine -------------------------------------------------------


class MultiObjectiveEngine(EvolutionaryEngine):
    """NSGA-II search over trit genomes on named objective columns.

    A :class:`repro.ea.engine.EvolutionaryEngine` whose ``run`` returns
    a :class:`MultiObjectiveResult`.  Parameters are the parent's plus
    ``objectives``; the fitness object must expose
    ``evaluate_objectives(matrix) -> (C, 3)`` with columns
    :data:`repro.core.fitness.OBJECTIVE_COLUMNS`, from which
    ``objectives`` selects ≥ 2 named columns.  The loop, operators,
    memo and termination are inherited; this class overrides pricing,
    survivor and parent selection, the improvement signal and the
    result.  Parent selection is always the crowded binary tournament
    (the NSGA-II comparator); ``params.parent_selection`` is ignored in
    this mode.  ``params.adaptive_operators=True`` is rejected with a
    ``ValueError``: the adaptive scheduler rewards a child's scalar
    fitness gain over its parent, which an objective vector lacks.
    """

    _individual_type = MOIndividual

    def __init__(
        self,
        fitness: object,
        genome_length: int,
        objectives: Sequence[str] = OBJECTIVE_COLUMNS,
        params: EAParameters | None = None,
        seed: int | None = None,
        repair: RepairFunction | None = None,
        initial_genomes: Sequence[np.ndarray] = (),
    ) -> None:
        names = tuple(objectives)
        if len(names) < 2:
            raise ValueError("multi-objective mode needs at least 2 objectives")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        unknown = [name for name in names if name not in OBJECTIVE_COLUMNS]
        if unknown:
            raise ValueError(
                f"unknown objectives {unknown}; choose from {OBJECTIVE_COLUMNS}"
            )
        evaluate = getattr(fitness, "evaluate_objectives", None)
        if evaluate is None:
            raise TypeError(
                "fitness must expose evaluate_objectives(matrix) for the "
                "multi-objective mode (see BatchCompressionRateFitness)"
            )
        if params and params.adaptive_operators:
            raise ValueError(
                "adaptive_operators is not supported in the multi-objective "
                "mode: its scheduler rewards a scalar fitness gain"
            )
        super().__init__(
            fitness, genome_length, params, seed, repair, initial_genomes
        )
        self._evaluate_objectives = evaluate
        self._objectives = names
        self._columns = [OBJECTIVE_COLUMNS.index(name) for name in names]
        self._signs = objective_signs(names)
        # (rank, crowding) arrays aligned with the current population,
        # refreshed by _select_survivors; the crowded tournament reads them.
        self._rank: np.ndarray = np.empty(0, dtype=np.int64)
        self._crowding: np.ndarray = np.empty(0, dtype=np.float64)

    @property
    def objectives(self) -> tuple[str, ...]:
        """The named objective columns this engine searches."""
        return self._objectives

    def _start_run(self) -> None:
        super()._start_run()
        self._archive: list[MOIndividual] = []

    # -- pricing ------------------------------------------------------

    def _evaluate_raw(self, genomes: list[np.ndarray]) -> list[tuple[float, ...]]:
        """Batch-price genomes into minimization-form objective tuples."""
        table = np.asarray(self._evaluate_objectives(np.stack(genomes)))
        reduced = table[:, self._columns] * self._signs
        return [tuple(float(value) for value in row) for row in reduced]

    # -- NSGA-II selection --------------------------------------------

    def _select_survivors(self, pool: list[MOIndividual]) -> list[MOIndividual]:
        """Environmental selection: fill by fronts, crowding-truncate.

        Sorting the whole pool by ``(rank, −crowding, birth_order)``
        and keeping the best ``S`` is exactly fill-whole-fronts plus
        crowding-truncation of the last partial front.  The survivors'
        (rank, crowding) — recomputed on the survivor set — are stored
        for the crowded parent tournament.
        """
        objectives = np.asarray([ind.objectives for ind in pool])
        rank = np.empty(len(pool), dtype=np.int64)
        crowding = np.empty(len(pool), dtype=np.float64)
        for front_rank, front in enumerate(fast_non_dominated_sort(objectives)):
            rank[front] = front_rank
            crowding[front] = crowding_distance(objectives[front])
        order = sorted(
            range(len(pool)),
            key=lambda i: (rank[i], -crowding[i], pool[i].birth_order),
        )
        survivors = [pool[i] for i in order[: self._params.population_size]]

        survivor_objectives = np.asarray([ind.objectives for ind in survivors])
        self._rank = np.empty(len(survivors), dtype=np.int64)
        self._crowding = np.empty(len(survivors), dtype=np.float64)
        for front_rank, front in enumerate(
            fast_non_dominated_sort(survivor_objectives)
        ):
            self._rank[front] = front_rank
            self._crowding[front] = crowding_distance(survivor_objectives[front])
        return survivors

    def _pick_parent(self, population: list[MOIndividual]) -> MOIndividual:
        """Crowded binary tournament: lower rank, then larger crowding."""
        first = int(self._rng.integers(0, len(population)))
        second = int(self._rng.integers(0, len(population)))
        winner = min(
            (first, second),
            key=lambda i: (
                self._rank[i],
                -self._crowding[i],
                population[i].birth_order,
            ),
        )
        return population[winner]

    # -- the archive --------------------------------------------------

    def _observe(
        self, population: list[MOIndividual], newcomers: list[MOIndividual]
    ) -> bool:
        """Fold newcomers into the all-time non-dominated archive.

        Returns True when any newcomer entered the archive — the
        improvement signal the stagnation limit watches (a moving
        hypervolume reference would make "improvement" depend on later
        discoveries; archive entry does not).  Invalid individuals and
        objective-duplicates of archived points never enter, so the
        archive is the objective-unique non-dominated set of everything
        valid seen so far; the earliest genome keeps each point.
        """
        improved = False
        for individual in newcomers:
            if not individual.is_valid:
                continue
            values = np.asarray(individual.objectives)
            archived = np.asarray([entry.objectives for entry in self._archive])
            if len(self._archive):
                covered = (archived <= values).all(axis=1)
                if covered.any():  # dominated by or equal to an entry
                    continue
                keep = ~((values <= archived).all(axis=1))
                if not keep.all():
                    self._archive = [
                        entry
                        for entry, kept in zip(self._archive, keep)
                        if kept
                    ]
            self._archive.append(individual)
            improved = True
        return improved

    def _progress(self) -> float:
        return float(len(self._archive))

    # -- reporting ----------------------------------------------------

    def _record(
        self, generation: int, population: list[MOIndividual], improved: bool
    ) -> MOGenerationStats:
        return MOGenerationStats(
            generation=generation,
            front_size=int((self._rank == 0).sum()),
            archive_size=len(self._archive),
            evaluations=self._evaluations,
            improved=improved,
        )

    def _result(self, **run_stats) -> MultiObjectiveResult:
        """The archive as natural-value points, deterministically sorted."""
        ordered = sorted(
            self._archive,
            key=lambda entry: (entry.objectives, entry.birth_order),
        )
        front = tuple(
            ParetoPoint(
                genome=entry.genome,
                values=tuple(
                    float(value)
                    for value in np.asarray(entry.objectives) * self._signs
                ),
            )
            for entry in ordered
        )
        return MultiObjectiveResult(
            objectives=self._objectives, front=front, **run_stats
        )
