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
callables are looped transparently.  A genome-hash LRU cache of
:data:`DEFAULT_CACHE_SIZE` genomes, always on, short-circuits
re-pricing of duplicate offspring (common under copy/reproduce and
late-run convergence); hits still count toward ``evaluations`` — the
paper's "generated legal solutions" budget — so the memo never moves
termination, and the hit rate is reported on :class:`EAResult`.
Adaptive operator scheduling needs each child's fitness before
choosing the next operator, so that mode evaluates incrementally
(still through the memo).  Genes are trits
(:data:`~repro.ea.genome.TRIT_ALPHABET_SIZE` values); the alphabet
and the memo size are constants, not parameters.

One loop, two engines
---------------------
:meth:`EvolutionaryEngine.run` is the only loop in the package.
:class:`repro.ea.multi_objective.MultiObjectiveEngine` subclasses this
engine and overrides only what NSGA-II changes: the value a genome is
priced to (``_evaluate_raw`` and the individual type), survivor
selection (``_select_survivors``), parent selection (``_pick_parent``),
the improvement signal (``_observe``/``_progress``), and the
per-generation record and result (``_record``/``_result``).
Pricing, the memo, the operators and termination are shared.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.config import EAParameters
from .adaptive import AdaptiveOperatorScheduler
from .genome import random_genome, validate_genome
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

    The genome-hash LRU memo always holds up to
    :data:`DEFAULT_CACHE_SIZE` genomes.  It never changes results,
    only skips re-pricing duplicate genomes.
    """

    # What a priced genome becomes: built as (genome, value, birth_order).
    _individual_type = Individual

    def __init__(
        self,
        fitness: FitnessFunction,
        genome_length: int,
        params: EAParameters | None = None,
        seed: int | None = None,
        repair: RepairFunction | None = None,
        initial_genomes: Sequence[np.ndarray] = (),
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
        self._start_run()

    def _start_run(self) -> None:
        """Reset the per-run state; every :meth:`run` starts fresh."""
        self._cache: OrderedDict[bytes, object] = OrderedDict()
        self._cache_hits = 0
        self._evaluations = 0
        self._birth_counter = 0
        self._best: Individual | None = None
        weights = self._operator_weights()
        # Generator.choice(4, p=weights) draws exactly this: one
        # random() looked up in the normalized CDF.  Built once per run
        # instead of once per draw.
        self._operator_cdf = weights.cumsum()
        self._operator_cdf /= self._operator_cdf[-1]
        self._scheduler: AdaptiveOperatorScheduler | None = None
        if self._params.adaptive_operators:
            self._scheduler = AdaptiveOperatorScheduler(weights)

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
            prepared = [validate_genome(self._repair(genome)) for genome in genomes]
        self._evaluations += len(prepared)

        # One slot per genome; every slot holds a value by the time
        # the individuals are built below.
        values: list[object] = [None] * len(prepared)
        pending: OrderedDict[bytes, list[int]] = OrderedDict()
        for index, genome in enumerate(prepared):
            key = genome.tobytes()
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._cache_hits += 1
                values[index] = cached
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
                if len(self._cache) > DEFAULT_CACHE_SIZE:
                    self._cache.popitem(last=False)
                for index in slots:
                    values[index] = value

        individuals = []
        for genome, value in zip(prepared, values):
            individuals.append(
                self._individual_type(genome, value, self._birth_counter)
            )
            self._birth_counter += 1
        return individuals

    def _initial_population(self) -> list[Individual]:
        genomes = [genome.copy() for genome in self._initial_genomes]
        while len(genomes) < self._params.population_size:
            genomes.append(random_genome(self._genome_length, self._rng))
        return self._select_survivors(self._price_genomes(genomes))

    # -- selection ----------------------------------------------------

    def _select_survivors(self, pool: list[Individual]) -> list[Individual]:
        """Keep the S fittest of the pool, best first."""
        return truncate(pool, self._params.population_size)

    def _pick_parent(self, population: list[Individual]) -> Individual:
        if self._params.parent_selection == "tournament":
            return tournament_select(
                population, self._rng, self._params.tournament_size
            )
        return select_parent(population, self._rng)

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
        self, operator: int, population: list[Individual], capacity: int
    ) -> tuple[list[np.ndarray], list[Individual]]:
        """Produce the raw child genome(s) for one operator draw.

        Returns the children and the parents they were bred from.
        Consumes the RNG in exactly the order of the historical
        per-child loop, so seeded runs stay bit-for-bit reproducible.
        """
        if operator == 0:  # crossover: two parents, up to two children
            parents = [self._pick_parent(population), self._pick_parent(population)]
            children = uniform_crossover(
                parents[0].genome, parents[1].genome, self._rng
            )
            return list(children[:capacity]), parents
        parent = self._pick_parent(population)
        if operator == 1:
            child = point_mutation(parent.genome, self._rng)
        elif operator == 2:
            child = segment_inversion(parent.genome, self._rng)
        else:
            child = reproduce(parent.genome)
        return [child], [parent]

    def _spawn_children(self, population: list[Individual]) -> list[Individual]:
        """Generate C children and price them in one batched call."""
        if self._scheduler is not None:
            return self._spawn_children_adaptive(population)
        wanted = self._params.children_per_generation
        genomes: list[np.ndarray] = []
        while len(genomes) < wanted:
            operator = int(
                self._operator_cdf.searchsorted(self._rng.random(), side="right")
            )
            children, _ = self._apply_operator(
                operator, population, wanted - len(genomes)
            )
            genomes.extend(children)
        return self._price_genomes(genomes)

    def _spawn_children_adaptive(
        self, population: list[Individual]
    ) -> list[Individual]:
        """Incremental spawning for adaptive operator scheduling.

        The scheduler's reward feedback depends on each child's fitness
        before the next operator is chosen, so this path prices child
        by child (still through the memo cache).
        """
        wanted = self._params.children_per_generation
        children: list[Individual] = []
        while len(children) < wanted:
            operator = self._scheduler.choose(self._rng)
            genomes, parents = self._apply_operator(
                operator, population, wanted - len(children)
            )
            parent_fitness = max(parent.fitness for parent in parents)
            batch = self._price_genomes(genomes)
            children.extend(batch)
            for child in batch:
                self._scheduler.reward(operator, child.fitness - parent_fitness)
        return children

    # -- progress and reporting ---------------------------------------

    def _observe(
        self, population: list[Individual], newcomers: list[Individual]
    ) -> bool:
        """Track the best individual; True when the run improved.

        ``population`` comes best-first from :meth:`_select_survivors`,
        so its head is the champion.
        """
        champion = population[0]
        if self._best is None or champion.fitness > self._best.fitness:
            self._best = champion
            return True
        return False

    def _progress(self) -> float:
        """The value termination conditions see as ``best_fitness``."""
        return self._best.fitness

    def _record(
        self, generation: int, population: list[Individual], improved: bool
    ) -> GenerationStats:
        return GenerationStats(
            generation=generation,
            best_fitness=population[0].fitness,
            mean_fitness=float(np.mean([ind.fitness for ind in population])),
            evaluations=self._evaluations,
            improved=improved,
        )

    def _result(self, **run_stats) -> EAResult:
        return EAResult(
            best_genome=self._best.genome,
            best_fitness=self._best.fitness,
            **run_stats,
        )

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
        """Execute the loop of Figure 1 and return the run's result."""
        self._start_run()
        population = self._initial_population()
        self._observe(population, population)
        history = []
        termination = self._termination()
        generation = 0
        stagnant = 0
        while True:
            state = LoopState(
                generation=generation,
                evaluations=self._evaluations,
                generations_without_improvement=stagnant,
                best_fitness=self._progress(),
            )
            if termination.should_stop(state):
                break
            generation += 1
            children = self._spawn_children(population)
            population = self._select_survivors(population + children)
            improved = self._observe(population, children)
            stagnant = 0 if improved else stagnant + 1
            history.append(self._record(generation, population, improved))
        fired = termination.fired
        return self._result(
            generations=generation,
            evaluations=self._evaluations,
            terminated_by=fired.describe() if fired else "none",
            history=tuple(history),
            cache_hits=self._cache_hits,
            cache_hit_rate=(
                self._cache_hits / self._evaluations if self._evaluations else 0.0
            ),
        )
