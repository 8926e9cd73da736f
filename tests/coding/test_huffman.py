"""Unit and property tests for Huffman coding."""

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.coding import huffman
from repro.coding.huffman import (
    _merge_stats,
    _merge_total,
    entropy_bound,
    huffman_code,
    huffman_code_lengths,
    huffman_length_stats,
    huffman_length_stats_batch,
    huffman_total_bits,
    huffman_total_bits_batch,
    weighted_length,
)
from repro.coding.prefix import is_prefix_free, kraft_sum
from repro.core.kernels import kernel_availability
from repro.core.kernels.native import huffman_stats_rows

NATIVE_UNAVAILABLE = kernel_availability()["native"]
requires_native = pytest.mark.skipif(
    NATIVE_UNAVAILABLE is not None,
    reason=f"native kernel unavailable: {NATIVE_UNAVAILABLE}",
)


@contextmanager
def python_merge():
    """Keep the batch functions on their Python merges (no-compiler path)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(huffman, "_native_stats", lambda freqs: None)
        yield


class TestHuffmanLengths:
    def test_classic_example(self):
        assert huffman_code_lengths({"a": 5, "b": 3, "c": 2}) == {
            "a": 1,
            "b": 2,
            "c": 2,
        }

    def test_equal_frequencies_four_symbols(self):
        lengths = huffman_code_lengths({i: 1 for i in range(4)})
        assert sorted(lengths.values()) == [2, 2, 2, 2]

    def test_zero_frequency_symbols_dropped(self):
        lengths = huffman_code_lengths({"used": 7, "unused": 0})
        assert lengths == {"used": 1}

    def test_single_symbol_gets_one_bit(self):
        assert huffman_code_lengths({"only": 42}) == {"only": 1}

    def test_empty(self):
        assert huffman_code_lengths({}) == {}

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            huffman_code_lengths({"a": -1})

    def test_skewed_frequencies_give_unary_like_code(self):
        lengths = huffman_code_lengths({"a": 16, "b": 8, "c": 4, "d": 2, "e": 1})
        assert lengths["a"] == 1
        assert max(lengths.values()) == 4

    def test_paper_section_3_3_lengths(self):
        # v(1)=111U F=5, v(2)=1110 F=3, v(3)=0000 F=2:
        # Huffman gives lengths 1, 2, 2 (paper: '0', '10', '11').
        lengths = huffman_code_lengths({1: 5, 2: 3, 3: 2})
        assert lengths == {1: 1, 2: 2, 3: 2}


class TestHuffmanCode:
    def test_produces_prefix_code(self):
        code = huffman_code({"a": 9, "b": 5, "c": 2, "d": 1})
        assert is_prefix_free(list(code.as_dict().values()))

    def test_weighted_length_matches_code(self):
        frequencies = {"a": 9, "b": 5, "c": 2, "d": 1}
        code = huffman_code(frequencies)
        lengths = {s: code.length(s) for s in frequencies}
        assert weighted_length(lengths, frequencies) == code.expected_length(
            frequencies
        )


nonzero_freqs = st.dictionaries(
    st.integers(0, 40),
    st.integers(min_value=1, max_value=10_000),
    min_size=1,
    max_size=24,
)


class TestHuffmanOptimalityProperties:
    @given(nonzero_freqs)
    def test_kraft_equality(self, frequencies):
        """Huffman codes are complete: Kraft sum is exactly 1 (or the
        single-symbol special case with sum 1/2)."""
        lengths = huffman_code_lengths(frequencies)
        total = kraft_sum(list(lengths.values()))
        if len(lengths) == 1:
            assert total == 0.5
        else:
            assert math.isclose(total, 1.0)

    @given(nonzero_freqs)
    def test_within_entropy_plus_one_bit_per_symbol(self, frequencies):
        """Optimal prefix coding lies in [H, H + total_count)."""
        lengths = huffman_code_lengths(frequencies)
        cost = weighted_length(lengths, frequencies)
        bound = entropy_bound(frequencies)
        total = sum(frequencies.values())
        if len(frequencies) == 1:
            assert cost == total  # 1 bit per symbol, entropy 0
        else:
            assert bound - 1e-6 <= cost < bound + total

    @given(nonzero_freqs)
    def test_monotone_frequencies_get_monotone_lengths(self, frequencies):
        """A more frequent symbol never has a longer codeword."""
        lengths = huffman_code_lengths(frequencies)
        items = sorted(frequencies.items(), key=lambda kv: kv[1])
        for (sym_rare, f_rare), (sym_common, f_common) in zip(items, items[1:]):
            if f_rare < f_common:
                assert lengths[sym_rare] >= lengths[sym_common]

    @given(nonzero_freqs)
    def test_better_than_fixed_length(self, frequencies):
        """Huffman never beats, err, loses to a fixed-length block code."""
        lengths = huffman_code_lengths(frequencies)
        cost = weighted_length(lengths, frequencies)
        fixed = math.ceil(math.log2(len(frequencies))) if len(frequencies) > 1 else 1
        assert cost <= fixed * sum(frequencies.values())


class TestEntropyBound:
    def test_uniform(self):
        assert math.isclose(entropy_bound({"a": 1, "b": 1}), 2.0)

    def test_empty(self):
        assert entropy_bound({}) == 0.0

    def test_single_symbol_zero_entropy(self):
        assert entropy_bound({"a": 100}) == 0.0


class TestHuffmanTotalBits:
    """The array fast paths must price exactly like the dict path."""

    def test_classic_example(self):
        assert huffman_total_bits(np.asarray([5, 3, 2])) == 15

    def test_zero_frequencies_ignored(self):
        assert huffman_total_bits(np.asarray([0, 7, 0])) == 7

    def test_empty_and_all_zero(self):
        assert huffman_total_bits(np.asarray([], dtype=np.int64)) == 0
        assert huffman_total_bits(np.zeros(5, dtype=np.int64)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            huffman_total_bits(np.asarray([3, -1]))
        with pytest.raises(ValueError):
            huffman_total_bits_batch(np.asarray([[3, -1]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            huffman_total_bits(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            huffman_total_bits_batch(np.zeros(4, dtype=np.int64))

    def test_empty_batch(self):
        assert huffman_total_bits_batch(
            np.zeros((0, 8), dtype=np.int64)
        ).shape == (0,)

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=80)
    )
    def test_scalar_matches_dict_path(self, freqs):
        as_map = {i: f for i, f in enumerate(freqs)}
        expected = weighted_length(huffman_code_lengths(as_map), as_map)
        assert huffman_total_bits(np.asarray(freqs)) == expected

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_batch_matches_scalar_rows(self, n_rows, n_symbols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 500, (n_rows, n_symbols))
        matrix[rng.random(matrix.shape) < 0.3] = 0  # inactive symbols
        totals = huffman_total_bits_batch(matrix)
        for row in range(n_rows):
            assert totals[row] == huffman_total_bits(matrix[row])

    @given(
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_large_python_batch_matches_scalar_rows(self, n_symbols, seed):
        """A batch of 128 rows on the no-compiler path takes the per-row
        merge like any other, edge rows included."""
        n_rows = 128
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 500, (n_rows, n_symbols))
        matrix[rng.random(matrix.shape) < 0.3] = 0
        matrix[0] = 0  # all-inactive row
        if n_symbols > 1:
            matrix[1] = 0
            matrix[1, 0] = 7  # single-symbol row
        with python_merge():
            totals = huffman_total_bits_batch(matrix)
        for row in range(n_rows):
            assert totals[row] == huffman_total_bits(matrix[row])

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_python_merge_matches_scalar_rows(self, n_rows, n_symbols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 500, (n_rows, n_symbols))
        matrix[rng.random(matrix.shape) < 0.3] = 0
        with python_merge():
            totals = huffman_total_bits_batch(matrix)
            stats = huffman_length_stats_batch(matrix)
        for row in range(n_rows):
            assert totals[row] == huffman_total_bits(matrix[row])
            assert tuple(column[row] for column in stats) == (
                huffman_length_stats(matrix[row])
            )


class TestHuffmanLengthStats:
    """Aggregate length statistics must match the dict code exactly.

    The multi-objective decoder model is built from these aggregates,
    so any drift from ``huffman_code_lengths`` would silently skew the
    area/time objectives.
    """

    def test_classic_example(self):
        stats = huffman_length_stats(np.asarray([5, 3, 2]))
        assert stats == (3, 15, 5, 2)  # lengths {1, 2, 2}

    def test_single_symbol(self):
        assert huffman_length_stats(np.asarray([0, 42, 0])) == (1, 42, 1, 1)

    def test_empty_and_all_zero(self):
        assert huffman_length_stats(np.asarray([], dtype=np.int64)) == (
            0, 0, 0, 0,
        )
        assert huffman_length_stats(np.zeros(4, dtype=np.int64)) == (0, 0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            huffman_length_stats(np.asarray([3, -1]))
        with pytest.raises(ValueError):
            huffman_length_stats(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            huffman_length_stats_batch(np.zeros(4, dtype=np.int64))

    def test_empty_batch(self):
        stats = huffman_length_stats_batch(np.zeros((0, 8), dtype=np.int64))
        assert all(column.shape == (0,) for column in stats)

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                 max_size=60)
    )
    def test_matches_dict_code_lengths(self, freqs):
        as_map = {i: f for i, f in enumerate(freqs)}
        lengths = huffman_code_lengths(as_map)
        stats = huffman_length_stats(np.asarray(freqs))
        assert stats.n_active == len(lengths)
        assert stats.total_bits == weighted_length(lengths, as_map)
        assert stats.sum_lengths == sum(lengths.values())
        assert stats.max_length == (max(lengths.values()) if lengths else 0)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_batch_matches_scalar_rows(self, n_rows, n_symbols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 500, (n_rows, n_symbols))
        matrix[rng.random(matrix.shape) < 0.3] = 0
        batched = huffman_length_stats_batch(matrix)
        for row in range(n_rows):
            scalar = huffman_length_stats(matrix[row])
            assert (
                batched.n_active[row],
                batched.total_bits[row],
                batched.sum_lengths[row],
                batched.max_length[row],
            ) == scalar

    def test_total_bits_column_matches_total_bits_batch(self):
        rng = np.random.default_rng(23)
        matrix = rng.integers(0, 300, (50, 20))
        matrix[rng.random(matrix.shape) < 0.4] = 0
        stats = huffman_length_stats_batch(matrix)
        assert np.array_equal(
            stats.total_bits, huffman_total_bits_batch(matrix)
        )


def merge_edge_rows(rng, n_symbols):
    """Frequency rows at the merge's edges, stacked into one matrix."""
    rows = [
        np.zeros(n_symbols, dtype=np.int64),  # nothing active
        np.eye(1, n_symbols, n_symbols - 1, dtype=np.int64)[0] * 9,  # one
        np.full(n_symbols, 4, dtype=np.int64),  # every weight ties
        rng.integers(0, 3, n_symbols),  # ties among tiny weights
        rng.integers(0, 1000, n_symbols) * (rng.random(n_symbols) < 0.5),
        2 ** np.minimum(np.arange(n_symbols), 40),  # a deep, skewed tree
    ]
    return np.stack(rows).astype(np.int64)


@requires_native
class TestNativeMerge:
    """The C two-queue merge against the Python merges it replaces."""

    @pytest.mark.parametrize("n_symbols", [1, 2, 31, 32, 33, 63, 64, 65, 130])
    def test_edge_rows_match_python_merges(self, n_symbols):
        rng = np.random.default_rng(n_symbols)
        matrix = merge_edge_rows(rng, n_symbols)
        stats = huffman_stats_rows(matrix)
        assert stats.shape == (4, len(matrix)) and stats.dtype == np.int64
        for row, frequencies in enumerate(matrix):
            leaves = sorted(int(f) for f in frequencies if f > 0)
            assert tuple(stats[:, row]) == _merge_stats(leaves)
            assert stats[1, row] == _merge_total(leaves)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=140),
    )
    def test_random_rows_match_python_merges(self, seed, n_rows, n_symbols):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, rng.integers(1, 10_000), (n_rows, n_symbols))
        matrix[rng.random(matrix.shape) < rng.random()] = 0
        stats = huffman_stats_rows(matrix)
        totals = huffman_total_bits_batch(matrix)
        batch = huffman_length_stats_batch(matrix)
        for row in range(n_rows):
            leaves = sorted(int(f) for f in matrix[row] if f > 0)
            expected = _merge_stats(leaves)
            assert tuple(stats[:, row]) == expected
            assert tuple(column[row] for column in batch) == expected
            assert totals[row] == _merge_total(leaves) == expected[1]

    def test_batch_functions_run_on_the_library(self):
        matrix = np.asarray([[5, 3, 2], [0, 7, 0]])
        assert huffman._native_stats(matrix) is not None
        # Non-integer matrices keep the Python merge.
        assert huffman._native_stats(matrix.astype(np.float64)) is None
        assert huffman_total_bits_batch(matrix.astype(np.float64)).tolist() == [
            15,
            7,
        ]
