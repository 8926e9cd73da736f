"""Property and parity tests for the batched fitness engine.

Three layers of guarantees:

1. the batch covering the fitness runs (the ``auto`` kernel's
   ``prepare`` + ``cover_grid``) row-for-row agrees with the
   ``cover_masks`` reference loop;
2. ``BatchCompressionRateFitness`` prices every genome exactly like
   the end-to-end compressor (and like the single-genome wrapper),
   including uncoverable genomes → ``INVALID_FITNESS``;
3. the refactored ``EvolutionaryEngine`` reproduces recorded
   pre-refactor results seed for seed, with and without the memo
   cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockSet, pack_bits_to_words
from repro.core.config import CompressionConfig, EAParameters
from repro.core.covering import cover, cover_masks
from repro.core.compressor import compress_blocks
from repro.core.fitness import (
    INVALID_FITNESS,
    BatchCompressionRateFitness,
    CompressionRateFitness,
)
from repro.core.kernels import resolve_kernel
from repro.core.matching import MVSet
from repro.core.trits import DC, ONE, ZERO
from repro.ea.engine import EvolutionaryEngine
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

from ..conftest import random_block_set


def random_genome_batch(
    rng: np.random.Generator, n_genomes: int, genome_length: int
) -> np.ndarray:
    return rng.integers(0, 3, size=(n_genomes, genome_length), dtype=np.int8)


def auto_cover(blocks, grid):
    """Cover a ``(C, L, K)`` grid the way the fitness does: the ``auto``
    kernel, ``prepare`` once, then one ``cover_grid`` pass."""
    n_genomes, n_vectors, block_length = grid.shape
    kernel = resolve_kernel(
        "auto", n_genomes, blocks.n_distinct, n_vectors, block_length
    )
    return kernel.cover_grid(kernel.prepare(blocks), grid)


def stable_u_order(mvs):
    """MV indices by increasing U count, ties in declaration order."""
    return np.asarray(
        sorted(range(len(mvs)), key=lambda index: int((mvs[index] == DC).sum())),
        dtype=np.int64,
    )


class TestCoverMasksBatch:
    """A generation covered in one batch ≡ the reference loop per row."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_rows_match_scalar_kernel(self, seed):
        rng = np.random.default_rng(seed)
        block_length = int(rng.integers(1, 14))
        n_vectors = int(rng.integers(1, 16))
        n_genomes = int(rng.integers(1, 10))
        blocks = random_block_set(
            rng, n_bits=int(rng.integers(1, 50)) * block_length,
            block_length=block_length,
        )
        grid = rng.integers(
            0, 3, size=(n_genomes, n_vectors, block_length), dtype=np.int8
        )

        frequencies, uncovered = auto_cover(blocks, grid)
        for row in range(n_genomes):
            _, ref_frequencies, ref_uncovered = cover_masks(
                blocks.ones, blocks.zeros, blocks.counts,
                pack_bits_to_words(grid[row] == ONE),
                pack_bits_to_words(grid[row] == ZERO),
                stable_u_order(grid[row]),
            )
            assert uncovered[row] == ref_uncovered
            if ref_uncovered == 0:
                assert (frequencies[row] == ref_frequencies).all()
            else:  # early-exit rows carry no frequency data
                assert (frequencies[row] == 0).all()

    def test_empty_batch_and_empty_blocks(self):
        empty = BlockSet.from_trit_array(np.empty(0, dtype=np.int8), 4)
        frequencies, uncovered = auto_cover(
            empty, np.full((3, 4, 4), DC, dtype=np.int8)
        )
        assert frequencies.shape == (3, 4)
        assert (frequencies == 0).all()
        assert (uncovered == 0).all()
        blocks = BlockSet.from_string("0101 1X0X", 4)
        frequencies, uncovered = auto_cover(
            blocks, np.empty((0, 4, 4), dtype=np.int8)
        )
        assert frequencies.shape == (0, 4) and uncovered.shape == (0,)


class TestBatchFitnessAgainstCompressor:
    """The batched path must price exactly what compress_blocks emits."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_batch_rates_match_compressor(self, seed):
        rng = np.random.default_rng(seed)
        block_length = int(rng.integers(1, 9))
        n_vectors = int(rng.integers(1, 9))
        n_genomes = int(rng.integers(1, 13))
        blocks = random_block_set(
            rng, n_bits=int(rng.integers(1, 300)), block_length=block_length
        )
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=n_vectors, block_length=block_length
        )
        genomes = random_genome_batch(rng, n_genomes, n_vectors * block_length)
        rates = fitness.evaluate_batch(genomes)
        assert fitness.evaluations == n_genomes
        for row in range(n_genomes):
            mv_set = MVSet.from_genome(genomes[row], block_length)
            if cover(blocks, mv_set).uncovered:
                assert rates[row] == INVALID_FITNESS
            else:
                assert rates[row] == pytest.approx(
                    compress_blocks(blocks, mv_set).rate
                )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_scalar_wrapper_is_batch_of_one(self, seed):
        rng = np.random.default_rng(seed)
        blocks = random_block_set(rng, n_bits=120, block_length=6)
        batch = BatchCompressionRateFitness(blocks, n_vectors=5, block_length=6)
        scalar = CompressionRateFitness(blocks, n_vectors=5, block_length=6)
        genomes = random_genome_batch(rng, 8, 5 * 6)
        rates = batch.evaluate_batch(genomes)
        for row in range(genomes.shape[0]):
            assert scalar(genomes[row]) == rates[row]

    def test_all_u_genomes_are_always_coverable(self):
        blocks = BlockSet.from_string("101 010 111", 3)
        fitness = BatchCompressionRateFitness(blocks, n_vectors=2, block_length=3)
        genomes = np.full((4, 6), DC, dtype=np.int8)
        rates = fitness.evaluate_batch(genomes)
        assert (rates > INVALID_FITNESS).all()
        assert np.unique(rates).size == 1

    def test_mixed_valid_and_invalid_rows(self):
        blocks = BlockSet.from_string("111 000", 3)
        fitness = BatchCompressionRateFitness(blocks, n_vectors=1, block_length=3)
        genomes = np.asarray(
            [[1, 1, 1], [DC, DC, DC]], dtype=np.int8
        )  # "111" misses block "000"; all-U covers everything
        rates = fitness.evaluate_batch(genomes)
        assert rates[0] == INVALID_FITNESS
        assert rates[1] > INVALID_FITNESS

    def test_one_dimensional_genome_accepted(self):
        blocks = BlockSet.from_string("111 000", 3)
        fitness = BatchCompressionRateFitness(blocks, n_vectors=1, block_length=3)
        rates = fitness.evaluate_batch(np.full(3, DC, dtype=np.int8))
        assert rates.shape == (1,)

    def test_bad_batch_shape_rejected(self):
        blocks = BlockSet.from_string("111 000", 3)
        fitness = BatchCompressionRateFitness(blocks, n_vectors=2, block_length=3)
        with pytest.raises(ValueError):
            fitness.evaluate_batch(np.zeros((2, 5), dtype=np.int8))


class TestEngineParity:
    """Recorded pre-refactor engine results, reproduced bit for bit.

    The expected tuples were captured by running the per-child
    (pre-batching) engine on this exact workload; the batched engine
    must match them seed for seed, cache or no cache.
    """

    EXPECTED = {11: (50.3125, 60, 310), 99: (53.28125, 60, 310)}

    @staticmethod
    def _blocks():
        test_set = synthetic_test_set(
            SyntheticSpec(
                "parity", n_patterns=40, pattern_bits=32,
                care_density=0.4, seed=7,
            )
        )
        return test_set.blocks(8)

    @staticmethod
    def _repair(genome: np.ndarray) -> np.ndarray:
        repaired = genome.copy()
        repaired[-8:] = DC
        return repaired

    def _run(self, seed, fitness, cache_size):
        engine = EvolutionaryEngine(
            fitness=fitness,
            genome_length=12 * 8,
            params=EAParameters(stagnation_limit=25, max_generations=60),
            seed=seed,
            repair=self._repair,
            cache_size=cache_size,
        )
        return engine.run()

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    @pytest.mark.parametrize("cache_size", [0, 8192])
    def test_matches_recorded_pre_refactor_results(self, seed, cache_size):
        blocks = self._blocks()
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=12, block_length=8
        )
        result = self._run(seed, fitness, cache_size)
        assert (
            result.best_fitness, result.generations, result.evaluations
        ) == self.EXPECTED[seed]

    def test_scalar_callable_engine_agrees_with_batched_engine(self):
        blocks = self._blocks()
        batch_fitness = BatchCompressionRateFitness(
            blocks, n_vectors=12, block_length=8
        )
        single = CompressionRateFitness(blocks, n_vectors=12, block_length=8)

        def scalar_only(genome: np.ndarray) -> float:
            return single._batch.evaluate_batch(genome)[0]

        batched = self._run(11, batch_fitness, cache_size=0)
        scalar = self._run(11, scalar_only, cache_size=0)
        assert batched.best_fitness == scalar.best_fitness
        assert batched.generations == scalar.generations
        assert batched.evaluations == scalar.evaluations
        assert (batched.best_genome == scalar.best_genome).all()

    def test_cache_reports_hits_without_changing_results(self):
        blocks = self._blocks()
        cached = self._run(
            11,
            BatchCompressionRateFitness(blocks, n_vectors=12, block_length=8),
            cache_size=8192,
        )
        uncached = self._run(
            11,
            BatchCompressionRateFitness(blocks, n_vectors=12, block_length=8),
            cache_size=0,
        )
        assert cached.best_fitness == uncached.best_fitness
        assert cached.generations == uncached.generations
        assert cached.evaluations == uncached.evaluations
        assert cached.cache_hits > 0  # copy/reproduce duplicates exist
        assert 0.0 < cached.cache_hit_rate <= 1.0
        assert uncached.cache_hits == 0
        assert uncached.cache_hit_rate == 0.0

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            EvolutionaryEngine(
                fitness=lambda genome: 0.0, genome_length=4, cache_size=-1
            )


class TestMaskWidthValidation:
    """The K <= 64 cap is gone: wide blocks pack into multi-word masks."""

    def test_config_accepts_wide_block_length(self):
        assert CompressionConfig(block_length=96).block_length == 96

    def test_config_rejects_nonpositive_block_length(self):
        with pytest.raises(ValueError):
            CompressionConfig(block_length=0)

    def test_config_rejects_unknown_kernel(self):
        """The kernel is not configuration: ``CompressionConfig`` keeps an
        inert ``kernel`` field that accepts only ``"auto"``."""
        assert CompressionConfig(kernel="auto").kernel == "auto"
        for name in ("nonsense", "bitpack", "native", "scalar"):
            with pytest.raises(ValueError, match="only 'auto'"):
                CompressionConfig(kernel=name)

    def test_blockset_accepts_wide_block_length(self):
        blocks = BlockSet.from_string("01", 65)
        assert blocks.word_count == 2

    def test_batch_fitness_rejects_nonpositive_n_vectors(self):
        blocks = BlockSet.from_string("111", 3)
        with pytest.raises(ValueError):
            BatchCompressionRateFitness(blocks, n_vectors=0, block_length=3)


class TestFusedPricingContract:
    """What outside callers read from the one fused pricing path."""

    def test_timings_record_exactly_pack_cover_huffman(self):
        """Even a generation-scale batch over a D >= 2048 table takes
        the fused pass: no ``match`` stage."""
        rng = np.random.default_rng(6)
        blocks = random_block_set(rng, 12 * 6000, 12, care_probability=0.6)
        assert blocks.n_distinct >= 2048
        genomes = random_genome_batch(rng, 24, 5 * 12)
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=5, block_length=12
        )
        timings: dict = {}
        rates = fitness.evaluate_batch(genomes, timings=timings)
        assert set(timings) == {"pack", "cover", "huffman"}
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert (rates == fitness.evaluate_batch(genomes)).all()

    def test_inert_mv_counters_read_zero(self):
        rng = np.random.default_rng(8)
        blocks = random_block_set(rng, 8 * 40, 8)
        fitness = BatchCompressionRateFitness(blocks, n_vectors=4, block_length=8)
        result = EvolutionaryEngine(
            fitness,
            genome_length=4 * 8,
            params=EAParameters(stagnation_limit=3, max_evaluations=40),
            seed=3,
        ).run()
        stats = fitness.mv_cache_stats
        assert (stats.rows_total, stats.rows_unique) == (0, 0)
        assert (result.mv_cache_hits, result.mv_cache_misses) == (0, 0)

    def test_removed_persistence_flag_is_rejected(self):
        from repro.experiments.tables import build_table1

        assert not CompressionConfig(mv_cache_persist=False).mv_cache_persist
        with pytest.raises(ValueError, match="persistence was removed"):
            CompressionConfig(mv_cache_persist=True)
        with pytest.raises(ValueError, match="persistence was removed"):
            build_table1(mv_cache_persist=True)
