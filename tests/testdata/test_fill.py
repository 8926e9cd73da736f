"""Tests for don't-care fill strategies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.trits import DC
from repro.testdata.fill import FILL_STRATEGIES, fill_test_set
from repro.testdata.test_set import TestSet


@pytest.fixture
def sparse_set() -> TestSet:
    return TestSet.from_strings("t", ["1XX0", "X1XX", "XXXX"])


class TestFillStrategies:
    def test_zero_fill(self, sparse_set):
        filled = fill_test_set(sparse_set, "zero")
        assert filled.pattern_string(0) == "1000"
        assert filled.pattern_string(2) == "0000"

    def test_one_fill(self, sparse_set):
        filled = fill_test_set(sparse_set, "one")
        assert filled.pattern_string(0) == "1110"

    def test_repeat_fill(self, sparse_set):
        filled = fill_test_set(sparse_set, "repeat")
        assert filled.pattern_string(0) == "1110"
        assert filled.pattern_string(1) == "0111"  # leading X defaults to 0

    def test_random_fill_deterministic(self, sparse_set):
        first = fill_test_set(sparse_set, "random", seed=3)
        second = fill_test_set(sparse_set, "random", seed=3)
        assert first.to_string() == second.to_string()

    def test_random_fill_seed_matters(self):
        wide = TestSet.from_strings("t", ["X" * 64])
        assert (
            fill_test_set(wide, "random", seed=1).to_string()
            != fill_test_set(wide, "random", seed=2).to_string()
        )

    def test_unknown_strategy(self, sparse_set):
        with pytest.raises(ValueError):
            fill_test_set(sparse_set, "adjacent")

    @pytest.mark.parametrize("strategy", FILL_STRATEGIES)
    def test_no_x_left_and_specified_bits_kept(self, sparse_set, strategy):
        filled = fill_test_set(sparse_set, strategy)
        assert filled.care_density() == 1.0
        original = sparse_set.patterns
        specified = original != DC
        assert (filled.patterns[specified] == original[specified]).all()

    @given(st.lists(st.text(alphabet="01X", min_size=5, max_size=5),
                    min_size=1, max_size=10))
    def test_shape_preserved(self, rows):
        ts = TestSet.from_strings("t", rows)
        for strategy in FILL_STRATEGIES:
            filled = fill_test_set(ts, strategy)
            assert filled.patterns.shape == ts.patterns.shape


class TestFillHurtsCompression:
    def test_x_rich_beats_any_fill_under_nine_c(self):
        """The paper's premise, quantified: compressing cubes beats
        compressing filled vectors for every fill policy."""
        from repro.core.nine_c import compress_nine_c
        from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

        cubes = synthetic_test_set(
            SyntheticSpec(
                "premise", n_patterns=60, pattern_bits=48,
                care_density=0.35, seed=4,
            )
        )
        unfilled_rate = compress_nine_c(cubes.blocks(8)).rate
        for strategy in FILL_STRATEGIES:
            filled = fill_test_set(cubes, strategy, seed=9)
            filled_rate = compress_nine_c(filled.blocks(8)).rate
            assert unfilled_rate >= filled_rate - 1e-9, strategy

    def test_no_fill_helps_the_ea(self):
        """The same premise for the EA's searched MVs on calibrated
        s953, with a two-point allowance for search noise."""
        from repro.core.config import CompressionConfig, EAParameters
        from repro.core.optimizer import EAMVOptimizer
        from repro.testdata.calibration import calibrate_spec
        from repro.testdata.registry import TABLE1_STUCK_AT, row_by_name
        from repro.testdata.synthetic import SyntheticSpec

        row = row_by_name(TABLE1_STUCK_AT, "s953")
        spec = SyntheticSpec(
            name=row.circuit,
            n_patterns=row.n_patterns,
            pattern_bits=row.pattern_bits,
            care_density=0.5,
            seed=2005,
        )
        cubes = calibrate_spec(spec, row.published["9C"]).test_set
        config = CompressionConfig(
            block_length=12,
            n_vectors=32,
            runs=1,
            ea=EAParameters(stagnation_limit=20, max_evaluations=800),
        )

        def ea_rate(test_set: TestSet) -> float:
            return EAMVOptimizer(config, seed=5).optimize(test_set.blocks(12)).best_rate

        unfilled_rate = ea_rate(cubes)
        for strategy in FILL_STRATEGIES:
            filled_rate = ea_rate(fill_test_set(cubes, strategy, seed=1))
            assert unfilled_rate >= filled_rate - 2.0, strategy
