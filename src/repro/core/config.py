"""Configuration dataclasses for the compression flow and the EA.

Defaults reproduce the paper's Section 4 settings: ``K = 12``,
``L = 64``, population size ``S = 10``, children per generation
``C = 5``, crossover probability 30%, mutation probability 30%,
inversion probability 10% (the remaining 30% reproduces a parent
unchanged), one MV pinned to all-U, averaged over 5 runs, and a
stagnation limit of 500 generations without improvement (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .encoding import EncodingStrategy

__all__ = ["EAParameters", "CompressionConfig"]


@dataclass(frozen=True)
class EAParameters:
    """Evolutionary-algorithm parameters (paper Section 3.1 / 4).

    Attributes
    ----------
    population_size:
        ``S`` — survivors per generation.
    children_per_generation:
        ``C`` — offspring generated per generation.
    crossover_probability, mutation_probability, inversion_probability:
        Per-child operator selection weights; any remainder to 1.0
        copies a parent unchanged (GAME-style reproduction).
    stagnation_limit:
        Stop after this many consecutive generations without fitness
        improvement (the paper's main termination condition).
    max_evaluations:
        Hard cap on fitness evaluations ("number of generated legal
        solutions"); ``None`` disables the cap.
    max_generations:
        Hard cap on generations; ``None`` disables the cap.
    include_all_u:
        Pin one genome slot to the all-U MV so covering never fails.
    seed_nine_c:
        Inject the 9C matching vectors into one initial individual
        (the improvement the paper mentions but did not implement).
    parent_selection:
        ``"uniform"`` (the paper: "randomly selected individuals") or
        ``"tournament"`` — pick the fittest of ``tournament_size``
        uniform draws, a selection-pressure extension.
    """

    population_size: int = 10
    children_per_generation: int = 5
    crossover_probability: float = 0.30
    mutation_probability: float = 0.30
    inversion_probability: float = 0.10
    stagnation_limit: int = 500
    max_evaluations: int | None = None
    max_generations: int | None = None
    include_all_u: bool = True
    seed_nine_c: bool = False
    parent_selection: str = "uniform"
    tournament_size: int = 2
    adaptive_operators: bool = False  # adaptive-pursuit operator mix

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.children_per_generation < 1:
            raise ValueError("children_per_generation must be >= 1")
        if self.parent_selection not in ("uniform", "tournament"):
            raise ValueError(
                f"unknown parent_selection {self.parent_selection!r}"
            )
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        probabilities = (
            self.crossover_probability,
            self.mutation_probability,
            self.inversion_probability,
        )
        if any(p < 0 for p in probabilities):
            raise ValueError("operator probabilities must be non-negative")
        if sum(probabilities) > 1.0 + 1e-9:
            raise ValueError("operator probabilities must sum to at most 1")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1")

    @property
    def copy_probability(self) -> float:
        """Probability of plain reproduction (remainder to 1.0)."""
        return max(
            0.0,
            1.0
            - self.crossover_probability
            - self.mutation_probability
            - self.inversion_probability,
        )

    def with_updates(self, **changes) -> "EAParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class CompressionConfig:
    """Full configuration of one EA compression run (paper defaults).

    ``block_length`` is ``K``; ``n_vectors`` is ``L``.  The paper's
    default configuration (Table 1 'EA' column) is K=12, L=64; its
    Table 2 'EA1' column is K=8, L=9.  Any positive ``block_length``
    works — wide blocks (K > 64) pack into multi-word masks.
    The covering kernel is not configuration: the fitness layer picks
    it (:mod:`repro.core.kernels`).
    """

    block_length: int = 12
    n_vectors: int = 64
    strategy: EncodingStrategy = EncodingStrategy.HUFFMAN
    fill_default: int = 0
    runs: int = 5
    kernel: str = "auto"  # inert: perfbench/ still passes "auto"
    mv_cache_persist: bool = False  # inert: perfbench/ still passes False
    ea: EAParameters = field(default_factory=EAParameters)

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError(
                f"block_length must be >= 1, got {self.block_length}"
            )
        if self.kernel != "auto":
            raise ValueError(
                f"kernel selection was removed; got kernel={self.kernel!r}, "
                "only 'auto' is accepted"
            )
        if self.n_vectors < 1:
            raise ValueError("n_vectors must be >= 1")
        if self.mv_cache_persist:
            raise ValueError("MV cache persistence was removed")
        if self.fill_default not in (0, 1):
            raise ValueError("fill_default must be 0 or 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    @property
    def genome_length(self) -> int:
        """L·K — the number of genes in one individual."""
        return self.block_length * self.n_vectors

    def with_updates(self, **changes) -> "CompressionConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
