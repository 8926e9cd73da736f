"""The evolutionary main loop (paper Figure 1).

::

    Generate random population (S individuals);
    for each individual i in population
        f(i) := compression rate achieved by i's matching vectors;
    repeat {
        Generate C children, using evolutionary operators;
        for each child c
            f(c) := compression rate for c;
        New population := S individuals with best fitness;
    } until (termination condition fulfilled);
    return individual with best fitness;

The engine is domain-agnostic: it maximizes an arbitrary fitness
callable over fixed-length integer genomes.  Domain constraints (e.g.
"one MV must be all-U") are injected as a *repair* callable applied to
every genome before evaluation.

Performance architecture
------------------------
The loop is *generate-then-evaluate*: each generation, the operators
produce all child genomes first (consuming the RNG in exactly the
order the historical per-child loop did, so seeded runs are bit-for-bit
reproducible), and the whole batch is then priced in one call.  When
the fitness object exposes ``evaluate_batch`` (e.g.
:class:`repro.core.fitness.BatchCompressionRateFitness`, whose
covering runs on a pluggable kernel from
:mod:`repro.core.kernels` — the engine itself is kernel-agnostic and
inherits whatever kernel the fitness was configured with), that call
is a handful of numpy kernels over the entire generation; plain
callables are looped transparently.  A genome-hash LRU cache short-circuits
re-pricing of duplicate offspring (common under copy/reproduce and
late-run convergence); hits still count toward ``evaluations`` — the
paper's "generated legal solutions" budget — so cached and uncached
runs terminate identically, and the hit rate is reported on
:class:`EAResult`.  Adaptive operator scheduling needs each child's
fitness before choosing the next operator, so that mode evaluates
incrementally (still through the memo).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.config import EAParameters
from .adaptive import AdaptiveOperatorScheduler
from .genome import TRIT_ALPHABET_SIZE, random_genome, validate_genome
from .operators import (
    point_mutation,
    reproduce,
    segment_inversion,
    uniform_crossover,
)
from .selection import Individual, select_parent, tournament_select, truncate
from .termination import (
    AnyOf,
    EvaluationLimit,
    GenerationLimit,
    LoopState,
    StagnationLimit,
    TerminationCondition,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "GenerationStats",
    "EAResult",
    "EvolutionaryEngine",
]

FitnessFunction = Callable[[np.ndarray], float]
RepairFunction = Callable[[np.ndarray], np.ndarray]

DEFAULT_CACHE_SIZE = 8192  # genomes memoized per run; ~1 KiB each at L·K=768


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation trace record (lets examples print Figure 1 live)."""

    generation: int
    best_fitness: float
    mean_fitness: float
    evaluations: int
    improved: bool


@dataclass(frozen=True)
class EAResult:
    """Outcome of one evolutionary run.

    ``evaluations`` counts every priced individual (the paper's
    "generated legal solutions"); ``cache_hits`` says how many of
    those were served from the genome memo cache instead of being
    re-priced, and ``cache_hit_rate`` is their ratio (0.0, never
    NaN, for a run with no evaluations).
    """

    best_genome: np.ndarray = field(repr=False)
    best_fitness: float
    generations: int
    evaluations: int
    terminated_by: str
    history: tuple[GenerationStats, ...] = field(repr=False)
    cache_hits: int = 0
    cache_hit_rate: float = 0.0
    # Inert class constants, not fields: perfbench/ still reads them.
    mv_cache_hits = 0
    mv_cache_misses = 0


class EvolutionaryEngine:
    """Maximize ``fitness`` over trit genomes with the paper's loop.

    Parameters
    ----------
    fitness:
        Callable genome → float; higher is better.  If the object also
        exposes ``evaluate_batch(matrix) -> array`` (e.g.
        :class:`repro.core.fitness.BatchCompressionRateFitness`), each
        generation is priced in one batched call.
    genome_length:
        Number of genes (``K·L`` for the MV search).
    params:
        :class:`EAParameters`; operator probabilities select which
        operator produces each child.
    seed:
        RNG seed; runs are fully deterministic given a seed.
    repair:
        Optional genome → genome normalization applied to every
        initial and offspring genome before evaluation.
    initial_genomes:
        Optional seed individuals injected into the initial random
        population (e.g. the 9C matching vectors).
    cache_size:
        Capacity of the genome-hash LRU memo cache; ``0``/``None``
        disables memoization.  The cache never changes results, only
        skips re-pricing duplicate genomes.
    """

    def __init__(
        self,
        fitness: FitnessFunction,
        genome_length: int,
        params: EAParameters | None = None,
        seed: int | None = None,
        repair: RepairFunction | None = None,
        initial_genomes: Sequence[np.ndarray] = (),
        alphabet_size: int = TRIT_ALPHABET_SIZE,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
    ) -> None:
        if genome_length < 1:
            raise ValueError("genome_length must be >= 1")
        self._fitness = fitness
        self._batch_fitness = getattr(fitness, "evaluate_batch", None)
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
        self._cache: OrderedDict[bytes, float] = OrderedDict()
        self._cache_hits = 0
        self._evaluations = 0
        self._birth_counter = 0
        self._scheduler: AdaptiveOperatorScheduler | None = None
        if self._params.adaptive_operators:
            self._scheduler = AdaptiveOperatorScheduler(
                self._operator_weights()
            )

    # -- pricing ------------------------------------------------------

    def _evaluate_raw(self, genomes: list[np.ndarray]) -> list[float]:
        """Price genomes with one batched fitness call (or a loop)."""
        if self._batch_fitness is not None:
            rates = self._batch_fitness(np.stack(genomes))
            return [float(rate) for rate in rates]
        return [float(self._fitness(genome)) for genome in genomes]

    def _price_genomes(self, genomes: Sequence[np.ndarray]) -> list[Individual]:
        """Repair, memo-check and batch-price genomes, in input order.

        Every genome counts as one evaluation whether or not the memo
        cache served it, so termination budgets see the historical
        counts.  Duplicate genomes — across generations *or* within
        one batch — are priced exactly once.
        """
        if self._repair is None:
            prepared = list(genomes)
        else:
            prepared = [
                validate_genome(self._repair(genome), self._alphabet_size)
                for genome in genomes
            ]
        self._evaluations += len(prepared)

        # One slot per genome; every slot holds a float by the time
        # the Individuals are built below (annotated once — the memo
        # path fills slots out of order, the raw path all at once).
        fitnesses: list[float | None]
        if not self._cache_size:
            fitnesses = list(self._evaluate_raw(prepared))
        else:
            fitnesses = [None] * len(prepared)
            pending: OrderedDict[bytes, list[int]] = OrderedDict()
            for index, genome in enumerate(prepared):
                key = genome.tobytes()
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._cache_hits += 1
                    fitnesses[index] = cached
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
                        fitnesses[index] = value

        individuals = []
        for genome, fitness in zip(prepared, fitnesses):
            individuals.append(
                Individual(
                    genome=genome,
                    fitness=fitness,
                    birth_order=self._birth_counter,
                )
            )
            self._birth_counter += 1
        return individuals

    def _initial_population(self) -> list[Individual]:
        genomes = [genome.copy() for genome in self._initial_genomes]
        while len(genomes) < self._params.population_size:
            genomes.append(
                random_genome(self._genome_length, self._rng, self._alphabet_size)
            )
        return truncate(self._price_genomes(genomes), self._params.population_size)

    # -- offspring ----------------------------------------------------

    def _pick_parent(self, population: list[Individual]) -> Individual:
        if self._params.parent_selection == "tournament":
            return tournament_select(
                population, self._rng, self._params.tournament_size
            )
        return select_parent(population, self._rng)

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
        self, operator: int, population: list[Individual], capacity: int
    ) -> list[np.ndarray]:
        """Produce the raw child genome(s) for one operator draw.

        Consumes the RNG in exactly the order of the historical
        per-child loop, so seeded runs stay bit-for-bit reproducible.
        """
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

    def _spawn_children(self, population: list[Individual]) -> list[Individual]:
        """Generate C children and price them in one batched call."""
        params = self._params
        if self._scheduler is not None:
            return self._spawn_children_adaptive(population)
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

    def _spawn_children_adaptive(
        self, population: list[Individual]
    ) -> list[Individual]:
        """Incremental spawning for adaptive operator scheduling.

        The scheduler's reward feedback depends on each child's fitness
        before the next operator is chosen, so this path prices child
        by child (still through the memo cache).
        """
        params = self._params
        children: list[Individual] = []
        while len(children) < params.children_per_generation:
            operator = self._scheduler.choose(self._rng)
            capacity = params.children_per_generation - len(children)
            if operator == 0:
                parent_a = self._pick_parent(population)
                parent_b = self._pick_parent(population)
                parent_fitness = max(parent_a.fitness, parent_b.fitness)
                genomes = list(
                    uniform_crossover(parent_a.genome, parent_b.genome, self._rng)
                )[:capacity]
            else:
                parent = self._pick_parent(population)
                parent_fitness = parent.fitness
                if operator == 1:
                    genomes = [
                        point_mutation(
                            parent.genome, self._rng, self._alphabet_size
                        )
                    ]
                elif operator == 2:
                    genomes = [segment_inversion(parent.genome, self._rng)]
                else:
                    genomes = [reproduce(parent.genome)]
            batch = self._price_genomes(genomes)
            children.extend(batch)
            for child in batch:
                self._scheduler.reward(operator, child.fitness - parent_fitness)
        return children

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

    def run(self) -> EAResult:
        """Execute the loop of Figure 1 and return the fittest solution."""
        self._evaluations = 0
        self._birth_counter = 0
        self._cache = OrderedDict()
        self._cache_hits = 0
        if self._params.adaptive_operators:
            self._scheduler = AdaptiveOperatorScheduler(
                self._operator_weights()
            )
        population = self._initial_population()
        best = max(population, key=lambda ind: ind.fitness)
        history: list[GenerationStats] = []
        termination = self._termination()
        generation = 0
        stagnant = 0
        while True:
            state = LoopState(
                generation=generation,
                evaluations=self._evaluations,
                generations_without_improvement=stagnant,
                best_fitness=best.fitness,
            )
            if termination.should_stop(state):
                break
            generation += 1
            children = self._spawn_children(population)
            population = truncate(
                population + children, self._params.population_size
            )
            champion = population[0]
            improved = champion.fitness > best.fitness
            if improved:
                best = champion
                stagnant = 0
            else:
                stagnant += 1
            history.append(
                GenerationStats(
                    generation=generation,
                    best_fitness=champion.fitness,
                    mean_fitness=float(
                        np.mean([ind.fitness for ind in population])
                    ),
                    evaluations=self._evaluations,
                    improved=improved,
                )
            )
        fired = termination.fired
        return EAResult(
            best_genome=best.genome,
            best_fitness=best.fitness,
            generations=generation,
            evaluations=self._evaluations,
            terminated_by=fired.describe() if fired else "none",
            history=tuple(history),
            cache_hits=self._cache_hits,
            cache_hit_rate=(
                self._cache_hits / self._evaluations if self._evaluations else 0.0
            ),
        )
