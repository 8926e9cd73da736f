"""Figure 1, live: trace the evolutionary algorithm generation by
generation.

Run with::

    python examples/ea_trace.py

The paper's Figure 1 is the EA pseudocode; this example runs the
engine on a calibrated test set and prints the per-generation best and
mean fitness, the improvement markers, and the termination cause — the
pseudocode's observable behaviour.
"""

from __future__ import annotations

from repro.core.blocks import BlockSet
from repro.core.config import EAParameters
from repro.core.fitness import BatchCompressionRateFitness
from repro.core.matching import MVSet
from repro.core.trits import DC
from repro.ea.engine import EvolutionaryEngine
from repro.testdata.calibration import calibrate_spec
from repro.testdata.registry import TABLE1_STUCK_AT, row_by_name
from repro.testdata.synthetic import SyntheticSpec

K = 12
L = 16  # small L so the trace stays readable


def main() -> None:
    row = row_by_name(TABLE1_STUCK_AT, "s298")
    spec = SyntheticSpec(
        name=row.circuit,
        n_patterns=row.n_patterns,
        pattern_bits=row.pattern_bits,
        care_density=0.5,
        seed=1,
    )
    test_set = calibrate_spec(spec, row.published["9C"]).test_set
    blocks: BlockSet = test_set.blocks(K)
    print(
        f"{row.circuit}: {blocks.n_blocks} blocks (K={K}), "
        f"{blocks.n_distinct} distinct; paper 9C rate {row.published['9C']}%"
    )

    fitness = BatchCompressionRateFitness(blocks, n_vectors=L, block_length=K)

    def pin_all_u(genome):
        repaired = genome.copy()
        repaired[-K:] = DC
        return repaired

    engine = EvolutionaryEngine(
        fitness=fitness,
        genome_length=K * L,
        params=EAParameters(stagnation_limit=25, max_evaluations=1500),
        seed=42,
        repair=pin_all_u,
    )
    result = engine.run()

    print(f"\n{'gen':>4s} {'best':>7s} {'mean':>7s} {'evals':>6s}  improved")
    for stats in result.history:
        marker = "  *" if stats.improved else ""
        print(
            f"{stats.generation:4d} {stats.best_fitness:7.2f} "
            f"{stats.mean_fitness:7.2f} {stats.evaluations:6d}{marker}"
        )
    print(
        f"\nterminated by {result.terminated_by} after "
        f"{result.generations} generations / {result.evaluations} evaluations"
    )
    print(f"best compression rate: {result.best_fitness:.2f}%")

    best_mvs = MVSet.from_genome(result.best_genome, K)
    print("\nbest matching vectors (by covering priority):")
    for index in best_mvs.covering_order():
        print(f"  {best_mvs[index]}")


if __name__ == "__main__":
    main()
