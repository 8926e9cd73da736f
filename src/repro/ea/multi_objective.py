"""NSGA-II-style multi-objective EA mode over (rate, area, time).

The paper's EA maximizes compression rate alone, but its own cost
model exposes two more axes: decoder area
(:attr:`repro.core.decoder_hw.DecoderModel.area_units`) and
test-application time (:func:`repro.core.decoder_hw.test_application_cycles`).
:class:`MultiObjectiveEngine` searches all of them at once and returns
a *Pareto front* — the set of solutions no other found solution beats
on every objective simultaneously.

The engine is a selection layer on top of the existing
generate-then-batch-evaluate loop: operators, genome memoization and
the batched fitness pipeline (one covering pass per generation through
:meth:`repro.core.fitness.BatchCompressionRateFitness.evaluate_objectives`,
kernels included) are reused unchanged, while survivor
and parent selection follow NSGA-II (Deb et al. 2002):

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
``tests/ea/test_multi_objective.py``.  The single-objective
:class:`repro.ea.engine.EvolutionaryEngine` is untouched by this mode.

All comparisons inside this module are **minimization** comparisons;
maximized objectives (the rate) are sign-flipped on the way in and
flipped back on the way out (:data:`MAXIMIZED_OBJECTIVES`).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.config import EAParameters
from ..core.fitness import OBJECTIVE_COLUMNS
from .engine import DEFAULT_CACHE_SIZE
from .genome import TRIT_ALPHABET_SIZE, random_genome, validate_genome
from .operators import (
    point_mutation,
    reproduce,
    segment_inversion,
    uniform_crossover,
)
from .termination import (
    AnyOf,
    EvaluationLimit,
    GenerationLimit,
    LoopState,
    StagnationLimit,
    TerminationCondition,
)

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

RepairFunction = Callable[[np.ndarray], np.ndarray]

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


class MultiObjectiveEngine:
    """NSGA-II search over trit genomes on named objective columns.

    Parameters mirror :class:`repro.ea.engine.EvolutionaryEngine`; the
    fitness object must expose
    ``evaluate_objectives(matrix) -> (C, 3)`` with columns
    :data:`repro.core.fitness.OBJECTIVE_COLUMNS`, from which
    ``objectives`` selects ≥ 2 named columns.  Parent selection is
    always the crowded binary tournament (the NSGA-II comparator);
    ``params.parent_selection`` is ignored in this mode.
    """

    def __init__(
        self,
        fitness: object,
        genome_length: int,
        objectives: Sequence[str] = OBJECTIVE_COLUMNS,
        params: EAParameters | None = None,
        seed: int | None = None,
        repair: RepairFunction | None = None,
        initial_genomes: Sequence[np.ndarray] = (),
        alphabet_size: int = TRIT_ALPHABET_SIZE,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
    ) -> None:
        if genome_length < 1:
            raise ValueError("genome_length must be >= 1")
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
        self._fitness = fitness
        self._evaluate_objectives = evaluate
        self._objectives = names
        self._columns = [OBJECTIVE_COLUMNS.index(name) for name in names]
        self._signs = objective_signs(names)
        self._genome_length = genome_length
        self._params = params or EAParameters()
        self._rng = np.random.default_rng(seed)
        self._repair = repair
        self._initial_genomes = [validate_genome(g) for g in initial_genomes]
        if any(g.size != genome_length for g in self._initial_genomes):
            raise ValueError("seed genomes must match genome_length")
        self._alphabet_size = alphabet_size
        self._cache_size = int(cache_size or 0)
        if self._cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self._cache: OrderedDict[bytes, tuple[float, ...]] = OrderedDict()
        self._cache_hits = 0
        self._evaluations = 0
        self._birth_counter = 0
        self._archive: list[MOIndividual] = []
        # (rank, crowding) arrays aligned with the current population,
        # refreshed by _truncate; the crowded tournament reads them.
        self._rank: np.ndarray = np.empty(0, dtype=np.int64)
        self._crowding: np.ndarray = np.empty(0, dtype=np.float64)

    @property
    def objectives(self) -> tuple[str, ...]:
        """The named objective columns this engine searches."""
        return self._objectives

    # -- pricing ------------------------------------------------------

    def _evaluate_raw(self, genomes: list[np.ndarray]) -> list[tuple[float, ...]]:
        """Batch-price genomes into minimization-form objective tuples."""
        table = np.asarray(self._evaluate_objectives(np.stack(genomes)))
        reduced = table[:, self._columns] * self._signs
        return [tuple(float(value) for value in row) for row in reduced]

    def _price_genomes(self, genomes: Sequence[np.ndarray]) -> list[MOIndividual]:
        """Repair, memo-check and batch-price genomes, in input order.

        Same contract as the single-objective engine's pricing: every
        genome counts as one evaluation whether or not the memo served
        it, and duplicates are priced exactly once.
        """
        if self._repair is None:
            prepared = list(genomes)
        else:
            prepared = [
                validate_genome(self._repair(genome), self._alphabet_size)
                for genome in genomes
            ]
        self._evaluations += len(prepared)

        vectors: list[tuple[float, ...] | None]
        if not self._cache_size:
            vectors = list(self._evaluate_raw(prepared))
        else:
            vectors = [None] * len(prepared)
            pending: OrderedDict[bytes, list[int]] = OrderedDict()
            for index, genome in enumerate(prepared):
                key = genome.tobytes()
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._cache_hits += 1
                    vectors[index] = cached
                else:
                    if key in pending:  # duplicate inside this batch
                        self._cache_hits += 1
                    pending.setdefault(key, []).append(index)
            if pending:
                misses = [prepared[slots[0]] for slots in pending.values()]
                for (key, slots), value in zip(
                    pending.items(), self._evaluate_raw(misses)
                ):
                    self._cache[key] = value
                    if len(self._cache) > self._cache_size:
                        self._cache.popitem(last=False)
                    for index in slots:
                        vectors[index] = value

        individuals = []
        for genome, vector in zip(prepared, vectors):
            individuals.append(
                MOIndividual(
                    genome=genome,
                    objectives=vector,
                    birth_order=self._birth_counter,
                )
            )
            self._birth_counter += 1
        return individuals

    # -- NSGA-II selection --------------------------------------------

    def _truncate(
        self, pool: list[MOIndividual], capacity: int
    ) -> list[MOIndividual]:
        """Environmental selection: fill by fronts, crowding-truncate.

        Sorting the whole pool by ``(rank, −crowding, birth_order)``
        and keeping the best ``capacity`` is exactly fill-whole-fronts
        plus crowding-truncation of the last partial front.  The
        survivors' (rank, crowding) — recomputed on the survivor set —
        are stored for the crowded parent tournament.
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
        survivors = [pool[i] for i in order[:capacity]]

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

    # -- offspring ----------------------------------------------------

    def _operator_weights(self) -> np.ndarray:
        params = self._params
        weights = np.asarray(
            [
                params.crossover_probability,
                params.mutation_probability,
                params.inversion_probability,
                params.copy_probability,
            ]
        )
        if weights.sum() <= 0:
            weights = np.asarray([0.0, 1.0, 0.0, 0.0])
        return weights / weights.sum()

    def _apply_operator(
        self, operator: int, population: list[MOIndividual], capacity: int
    ) -> list[np.ndarray]:
        """Produce the raw child genome(s) for one operator draw."""
        if operator == 0:  # crossover: two parents, up to two children
            parent_a = self._pick_parent(population)
            parent_b = self._pick_parent(population)
            genome_one, genome_two = uniform_crossover(
                parent_a.genome, parent_b.genome, self._rng
            )
            if capacity > 1:
                return [genome_one, genome_two]
            return [genome_one]
        parent = self._pick_parent(population)
        if operator == 1:
            return [point_mutation(parent.genome, self._rng, self._alphabet_size)]
        if operator == 2:
            return [segment_inversion(parent.genome, self._rng)]
        return [reproduce(parent.genome)]

    def _spawn_children(self, population: list[MOIndividual]) -> list[MOIndividual]:
        """Generate C children and price them in one batched call."""
        params = self._params
        weights = self._operator_weights()
        genomes: list[np.ndarray] = []
        while len(genomes) < params.children_per_generation:
            operator = int(self._rng.choice(4, p=weights))
            genomes.extend(
                self._apply_operator(
                    operator,
                    population,
                    params.children_per_generation - len(genomes),
                )
            )
        return self._price_genomes(genomes)

    # -- archive ------------------------------------------------------

    def _update_archive(self, individuals: Sequence[MOIndividual]) -> bool:
        """Fold new individuals into the all-time non-dominated archive.

        Returns True when any individual entered the archive — the
        improvement signal the stagnation limit watches (a moving
        hypervolume reference would make "improvement" depend on later
        discoveries; archive entry does not).  Invalid individuals and
        objective-duplicates of archived points never enter, so the
        archive is the objective-unique non-dominated set of everything
        valid seen so far; the earliest genome keeps each point.
        """
        improved = False
        for individual in individuals:
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

    # -- reporting ----------------------------------------------------

    def _front(self) -> tuple[ParetoPoint, ...]:
        """The archive as natural-value points, deterministically sorted."""
        ordered = sorted(
            self._archive,
            key=lambda entry: (entry.objectives, entry.birth_order),
        )
        points = []
        for entry in ordered:
            natural = np.asarray(entry.objectives) * self._signs
            points.append(
                ParetoPoint(
                    genome=entry.genome,
                    values=tuple(float(value) for value in natural),
                )
            )
        return tuple(points)

    # -- main loop ----------------------------------------------------

    def _termination(self) -> AnyOf:
        conditions: list[TerminationCondition] = [
            StagnationLimit(self._params.stagnation_limit)
        ]
        if self._params.max_evaluations is not None:
            conditions.append(EvaluationLimit(self._params.max_evaluations))
        if self._params.max_generations is not None:
            conditions.append(GenerationLimit(self._params.max_generations))
        return AnyOf(*conditions)

    def run(self) -> MultiObjectiveResult:
        """Execute the NSGA-II loop and return the Pareto front."""
        self._evaluations = 0
        self._birth_counter = 0
        self._cache = OrderedDict()
        self._cache_hits = 0
        self._archive = []
        genomes = [genome.copy() for genome in self._initial_genomes]
        while len(genomes) < self._params.population_size:
            genomes.append(
                random_genome(self._genome_length, self._rng, self._alphabet_size)
            )
        population = self._truncate(
            self._price_genomes(genomes), self._params.population_size
        )
        self._update_archive(population)
        history: list[MOGenerationStats] = []
        termination = self._termination()
        generation = 0
        stagnant = 0
        while True:
            state = LoopState(
                generation=generation,
                evaluations=self._evaluations,
                generations_without_improvement=stagnant,
                best_fitness=float(len(self._archive)),
            )
            if termination.should_stop(state):
                break
            generation += 1
            children = self._spawn_children(population)
            population = self._truncate(
                population + children, self._params.population_size
            )
            improved = self._update_archive(children)
            if improved:
                stagnant = 0
            else:
                stagnant += 1
            history.append(
                MOGenerationStats(
                    generation=generation,
                    front_size=int((self._rank == 0).sum()),
                    archive_size=len(self._archive),
                    evaluations=self._evaluations,
                    improved=improved,
                )
            )
        fired = termination.fired
        return MultiObjectiveResult(
            objectives=self._objectives,
            front=self._front(),
            generations=generation,
            evaluations=self._evaluations,
            terminated_by=fired.describe() if fired else "none",
            history=tuple(history),
            cache_hits=self._cache_hits,
            cache_hit_rate=(
                self._cache_hits / self._evaluations if self._evaluations else 0.0
            ),
        )
