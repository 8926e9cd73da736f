"""Integration tests for the EA-driven MV optimizer."""

import pytest

from repro.core.blocks import BlockSet
from repro.core.compressor import compress_blocks
from repro.core.config import CompressionConfig, EAParameters
from repro.core.decompressor import verify_roundtrip
from repro.core.nine_c import compress_nine_c
from repro.core.optimizer import EAMVOptimizer, optimize_mv_set


def small_config(**ea_overrides) -> CompressionConfig:
    """A fast configuration for tests: tiny budget, 2 runs."""
    ea = EAParameters(stagnation_limit=20, max_evaluations=400, **ea_overrides)
    return CompressionConfig(block_length=4, n_vectors=6, runs=2, ea=ea)


STRUCTURED_TEXT = ("1100" * 8 + "11XX" * 4 + "0000" * 6 + "10X0" * 3) * 2


class TestOptimizer:
    def test_deterministic_under_seed(self):
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        first = optimize_mv_set(blocks, small_config(), seed=7)
        second = optimize_mv_set(blocks, small_config(), seed=7)
        assert first.mean_rate == second.mean_rate
        assert first.best_rate == second.best_rate
        assert first.best_mv_set == second.best_mv_set

    def test_different_seeds_explore_differently(self):
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        rates = {
            optimize_mv_set(blocks, small_config(), seed=s).best_rate
            for s in range(4)
        }
        assert len(rates) >= 1  # sanity; rates may coincide at optimum

    def test_all_u_pinned_in_every_run(self):
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        result = optimize_mv_set(blocks, small_config(), seed=3)
        for run in result.runs:
            assert run.mv_set.has_all_unspecified

    def test_best_mv_set_compresses_to_best_rate(self):
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        result = optimize_mv_set(blocks, small_config(), seed=11)
        compressed = compress_blocks(blocks, result.best_mv_set)
        assert compressed.rate == pytest.approx(result.best_rate)
        verify_roundtrip(compressed)

    def test_mean_between_min_and_max(self):
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        result = optimize_mv_set(blocks, small_config(), seed=5)
        rates = [run.rate for run in result.runs]
        assert min(rates) <= result.mean_rate <= max(rates)
        assert result.best_rate == max(rates)

    def test_total_evaluations_accumulates(self):
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        result = optimize_mv_set(blocks, small_config(), seed=5)
        assert result.total_evaluations == sum(
            run.ea_result.evaluations for run in result.runs
        )
        assert result.total_evaluations > 0

    def test_compress_best_roundtrips(self):
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        optimizer = EAMVOptimizer(small_config(), seed=2)
        compressed = optimizer.compress_best(blocks)
        verify_roundtrip(compressed)


class TestOptimizerSeeding:
    def test_nine_c_seeding_requires_even_k(self):
        """Rejected when the config is built, before any run starts."""
        with pytest.raises(ValueError, match="seeding 9C requires an even K"):
            CompressionConfig(
                block_length=5,
                n_vectors=9,
                runs=1,
                ea=EAParameters(seed_nine_c=True, stagnation_limit=5),
            )

    def test_nine_c_seeding_requires_nine_vectors(self):
        with pytest.raises(ValueError, match="at least 9 matching vectors"):
            CompressionConfig(
                block_length=4,
                n_vectors=4,
                runs=1,
                ea=EAParameters(seed_nine_c=True, stagnation_limit=5),
            )

    def test_nine_c_seeding_never_loses_to_nine_c(self):
        """With the 9C MVs in the initial population and truncation
        survival, the EA result can never be worse than 9C+HC."""
        text = ("00000000" * 6 + "11111111" * 3 + "0101XXXX" * 4) * 2
        blocks = BlockSet.from_string(text, 8)
        config = CompressionConfig(
            block_length=8,
            n_vectors=9,
            runs=1,
            ea=EAParameters(
                seed_nine_c=True, stagnation_limit=10, max_evaluations=150
            ),
        )
        result = EAMVOptimizer(config, seed=0).optimize(blocks)
        nine_c_hc = compress_nine_c(blocks, use_huffman=True)
        assert result.best_rate >= nine_c_hc.rate - 1e-9


class TestOptimizerImprovement:
    def test_ea_beats_all_u_baseline(self):
        """On structured data the EA must do far better than the
        trivial all-U encoding (which expands the test set)."""
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        result = optimize_mv_set(blocks, small_config(), seed=9)
        all_u_rate = 100.0 * (
            blocks.original_bits - blocks.n_blocks * 5
        ) / blocks.original_bits
        assert result.best_rate > all_u_rate + 10

    @pytest.mark.parametrize("circuit", ["s349", "s386", "s953"])
    def test_ea_beats_nine_c_on_calibrated_rows(self, circuit):
        """Table 1's claim row by row: the EA beats the fixed 9C code,
        and Huffman-coding the 9C covering never hurts."""
        from repro.testdata.calibration import calibrate_spec
        from repro.testdata.registry import TABLE1_STUCK_AT, row_by_name
        from repro.testdata.synthetic import SyntheticSpec

        row = row_by_name(TABLE1_STUCK_AT, circuit)
        spec = SyntheticSpec(
            name=row.circuit,
            n_patterns=row.n_patterns,
            pattern_bits=row.pattern_bits,
            care_density=0.5,
            seed=2005,
        )
        test_set = calibrate_spec(spec, row.published["9C"]).test_set
        nine_c = compress_nine_c(test_set.blocks(8)).rate
        nine_c_hc = compress_nine_c(test_set.blocks(8), use_huffman=True).rate
        config = CompressionConfig(
            block_length=12,
            n_vectors=64,
            runs=2,
            ea=EAParameters(stagnation_limit=25, max_evaluations=1200),
        )
        ea = EAMVOptimizer(config, seed=7).optimize(test_set.blocks(12))
        assert ea.best_rate > nine_c
        assert nine_c_hc >= nine_c
