"""Unit tests for configuration dataclasses."""

import pytest

from repro.core.config import CompressionConfig, EAParameters
from repro.core.encoding import EncodingStrategy


class TestEAParameters:
    def test_paper_defaults(self):
        """Section 4: S=10, C=5, crossover 30%, mutation 30%, inversion
        10%, all-U MV included, 500 stagnant generations."""
        params = EAParameters()
        assert params.population_size == 10
        assert params.children_per_generation == 5
        assert params.crossover_probability == 0.30
        assert params.mutation_probability == 0.30
        assert params.inversion_probability == 0.10
        assert params.stagnation_limit == 500
        assert params.include_all_u
        assert not params.seed_nine_c

    def test_copy_probability_is_remainder(self):
        params = EAParameters()
        assert params.copy_probability == pytest.approx(0.30)

    def test_copy_probability_clamped_at_zero(self):
        params = EAParameters(
            crossover_probability=0.5,
            mutation_probability=0.3,
            inversion_probability=0.2,
        )
        assert params.copy_probability == 0.0

    def test_probabilities_over_one_rejected(self):
        with pytest.raises(ValueError):
            EAParameters(crossover_probability=0.9, mutation_probability=0.2)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            EAParameters(mutation_probability=-0.1)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            EAParameters(population_size=0)
        with pytest.raises(ValueError):
            EAParameters(children_per_generation=0)
        with pytest.raises(ValueError):
            EAParameters(stagnation_limit=0)
        with pytest.raises(ValueError, match="^max_evaluations must be >= 1$"):
            EAParameters(max_evaluations=0)
        with pytest.raises(ValueError, match="^max_generations must be >= 1$"):
            EAParameters(max_generations=0)

    def test_with_updates(self):
        params = EAParameters().with_updates(stagnation_limit=50)
        assert params.stagnation_limit == 50
        assert params.population_size == 10


class TestCompressionConfig:
    def test_paper_defaults(self):
        """Table 1 'EA' column: K=12, L=64, Huffman coding, 5 runs."""
        config = CompressionConfig()
        assert config.block_length == 12
        assert config.n_vectors == 64
        assert config.strategy is EncodingStrategy.HUFFMAN
        assert config.runs == 5

    def test_genome_length(self):
        assert CompressionConfig(block_length=8, n_vectors=9).genome_length == 72

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CompressionConfig(block_length=0)
        with pytest.raises(ValueError):
            CompressionConfig(n_vectors=0)
        with pytest.raises(ValueError):
            CompressionConfig(fill_default=2)
        with pytest.raises(ValueError):
            CompressionConfig(runs=0)
        nine_c = EAParameters(seed_nine_c=True)
        with pytest.raises(ValueError, match="^seeding 9C requires an even K"):
            CompressionConfig(block_length=5, n_vectors=9, ea=nine_c)
        with pytest.raises(ValueError, match="^seeding 9C requires an even K"):
            CompressionConfig(block_length=8, n_vectors=8, ea=nine_c)

    def test_with_updates(self):
        config = CompressionConfig().with_updates(block_length=8, n_vectors=9)
        assert (config.block_length, config.n_vectors) == (8, 9)
        assert config.runs == 5
