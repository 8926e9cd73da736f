"""Tests for the multiple-scan-chain extension (paper future work)."""

import pytest

from repro.core.config import CompressionConfig, EAParameters
from repro.core.multi_scan import compress_multi_scan, split_into_chains
from repro.testdata.test_set import TestSet
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set


def fast_config(k=4, l=6) -> CompressionConfig:
    return CompressionConfig(
        block_length=k,
        n_vectors=l,
        runs=1,
        ea=EAParameters(stagnation_limit=8, max_evaluations=200),
    )


@pytest.fixture(scope="module")
def test_set():
    return synthetic_test_set(
        SyntheticSpec(
            "chains", n_patterns=40, pattern_bits=32, care_density=0.4, seed=2
        )
    )


class TestSplitIntoChains:
    def test_balanced_split(self):
        ts = TestSet.from_strings("t", ["01X10", "11XX0"])
        chains = split_into_chains(ts, 2)
        assert [c.n_inputs for c in chains] == [3, 2]
        assert chains[0].pattern_string(0) == "01X"
        assert chains[1].pattern_string(0) == "10"

    def test_single_chain_is_identity(self):
        ts = TestSet.from_strings("t", ["0101"])
        chains = split_into_chains(ts, 1)
        assert len(chains) == 1
        assert chains[0].to_string() == ts.to_string()

    def test_total_bits_preserved(self, test_set):
        chains = split_into_chains(test_set, 5)
        assert sum(c.total_bits for c in chains) == test_set.total_bits

    def test_too_many_chains_rejected(self):
        ts = TestSet.from_strings("t", ["01"])
        with pytest.raises(ValueError):
            split_into_chains(ts, 3)

    def test_zero_chains_rejected(self):
        ts = TestSet.from_strings("t", ["01"])
        with pytest.raises(ValueError):
            split_into_chains(ts, 0)


class TestCompressMultiScan:
    def test_shared_mode(self, test_set):
        result = compress_multi_scan(
            test_set, 4, config=fast_config(), mode="shared", seed=1
        )
        assert result.mode == "shared"
        assert len(result.chains) == 4
        assert result.original_bits == test_set.total_bits

    def test_independent_mode(self, test_set):
        result = compress_multi_scan(
            test_set, 2, config=fast_config(), mode="independent", seed=1
        )
        assert result.mode == "independent"
        assert len(result.chains) == 2

    def test_independent_within_ten_points_of_shared(self, test_set):
        """Per-chain MV sets need one decoder per chain; they must not
        compress much worse than one shared decoder."""
        shared = compress_multi_scan(
            test_set, 4, config=fast_config(), mode="shared", seed=3
        )
        independent = compress_multi_scan(
            test_set, 4, config=fast_config(), mode="independent", seed=3
        )
        assert independent.rate > shared.rate - 10.0

    def test_aggregate_rate_formula(self, test_set):
        result = compress_multi_scan(
            test_set, 2, config=fast_config(), mode="shared", seed=1
        )
        expected = (
            100.0
            * (result.original_bits - result.compressed_bits)
            / result.original_bits
        )
        assert result.rate == pytest.approx(expected)

    def test_invalid_mode_rejected(self, test_set):
        with pytest.raises(ValueError):
            compress_multi_scan(test_set, 2, mode="broadcast")

    def test_single_chain_matches_plain_flow(self, test_set):
        """One chain = the paper's single-scan setting."""
        result = compress_multi_scan(
            test_set, 1, config=fast_config(), mode="shared", seed=3
        )
        assert len(result.chains) == 1
        assert result.chains[0].original_bits == test_set.total_bits
