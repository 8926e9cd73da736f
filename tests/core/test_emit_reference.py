"""The array-built compressor and block tables against simple references.

``compress_blocks`` builds its stream from arrays and
``unique_rows`` orders every block table with one ``np.lexsort``.
Both are checked here against the plainest code that could produce
the same result:

* :func:`reference_payload` — the historical emitter, block by block
  through :class:`~repro.coding.bitstream.BitWriter`: each block's
  final MV's codeword, then ``MatchingVector.fill_bits`` of the block;
* ``np.unique(rows, axis=0, return_inverse=True, return_counts=True)``
  — the order every stored table, digest and fingerprint was built in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.compressor as compressor_module
from repro.coding.bitstream import BitWriter
from repro.core.blocks import BlockSet, pack_bits_to_words, unique_rows
from repro.core.blocks_io import load_block_table, save_block_table
from repro.core.compressor import compress_blocks
from repro.core.covering import cover
from repro.core.encoding import EncodingStrategy, build_encoding_table
from repro.core.matching import MatchingVector, MVSet

STRATEGIES = tuple(EncodingStrategy)
BLOCK_LENGTHS = (1, 2, 8, 63, 64, 65, 96)


def fixed_codewords(n_vectors: int) -> dict[int, str]:
    """Equal-length binary codewords for every MV index."""
    width = max(1, (n_vectors - 1).bit_length())
    return {index: format(index, f"0{width}b") for index in range(n_vectors)}


def reference_payload(blocks, mv_set, strategy, fill_default):
    """``(payload, payload_bits)`` from the block-by-block emit loop."""
    covering = cover(blocks, mv_set, require_complete=True)
    codewords = (
        fixed_codewords(len(mv_set))
        if strategy is EncodingStrategy.FIXED
        else None
    )
    table = build_encoding_table(
        mv_set, covering.frequency_map(), strategy, codewords
    )
    writer = BitWriter()
    for distinct_index in blocks.sequence.tolist():
        final_mv = table.final_mv(int(covering.assignment[distinct_index]))
        writer.write_bitstring(table.codewords[final_mv])
        writer.write_bits(
            mv_set[final_mv].fill_bits(
                blocks.block_trits(distinct_index), fill_default
            )
        )
    return writer.getvalue(), writer.bit_length


def compressed_payload(blocks, mv_set, strategy, fill_default):
    codewords = (
        fixed_codewords(len(mv_set))
        if strategy is EncodingStrategy.FIXED
        else None
    )
    result = compress_blocks(
        blocks, mv_set, strategy, codewords, fill_default=fill_default
    )
    return result.payload, result.payload_bits


def assert_matches_reference(blocks, mv_set, strategy, fill_default):
    expected = reference_payload(blocks, mv_set, strategy, fill_default)
    assert compressed_payload(blocks, mv_set, strategy, fill_default) == expected


def random_trits(rng, n_bits, care=0.5):
    specified = rng.random(n_bits) < care
    values = rng.integers(0, 2, n_bits).astype(np.int8)
    return np.where(specified, values, np.int8(2)).astype(np.int8)


def random_mv_set(rng, block_length, n_vectors, u_share=0.6):
    """Seeded MVs over {0, 1, U} whose last vector is all-U."""
    vectors = []
    for _ in range(n_vectors - 1):
        trits = np.where(
            rng.random(block_length) < u_share,
            2,
            rng.integers(0, 2, block_length),
        )
        vectors.append(MatchingVector(tuple(int(t) for t in trits)))
    vectors.append(MatchingVector.all_unspecified(block_length))
    return MVSet(vectors)


def repetitive_blocks(rng, block_length, n_blocks, n_sources=6):
    """A block table drawn from a few source blocks, so rows repeat."""
    sources = random_trits(rng, n_sources * block_length).reshape(
        n_sources, block_length
    )
    picks = rng.integers(0, n_sources, n_blocks)
    return BlockSet.from_trit_array(sources[picks].reshape(-1), block_length)


class TestAgainstReferenceEmitter:
    @pytest.mark.parametrize("fill_default", (0, 1))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    @pytest.mark.parametrize("block_length", BLOCK_LENGTHS)
    def test_every_strategy_fill_and_width(
        self, block_length, strategy, fill_default
    ):
        rng = np.random.default_rng(block_length)
        blocks = repetitive_blocks(rng, block_length, n_blocks=60)
        mv_set = random_mv_set(rng, block_length, n_vectors=7)
        assert_matches_reference(blocks, mv_set, strategy, fill_default)

    @pytest.mark.parametrize("fill_default", (0, 1))
    @pytest.mark.parametrize("block_length", BLOCK_LENGTHS)
    def test_single_distinct_block(self, block_length, fill_default):
        rng = np.random.default_rng(7 * block_length)
        block = random_trits(rng, block_length)
        blocks = BlockSet.from_trit_array(np.tile(block, 9), block_length)
        assert blocks.n_distinct == 1
        mv_set = random_mv_set(rng, block_length, n_vectors=4)
        for strategy in STRATEGIES:
            assert_matches_reference(blocks, mv_set, strategy, fill_default)

    @pytest.mark.parametrize("fill_default", (0, 1))
    @pytest.mark.parametrize("block_length", (1, 8, 65, 96))
    def test_all_x_blocks(self, block_length, fill_default):
        blocks = BlockSet.from_trit_array(  # five blocks, the last padded
            np.full(4 * block_length + 1, 2, dtype=np.int8), block_length
        )
        mv_set = MVSet([MatchingVector.all_unspecified(block_length)])
        result = compress_blocks(blocks, mv_set, fill_default=fill_default)
        # One coded MV: a 1-bit codeword, then K fills per block.
        assert result.table.codewords == {0: "0"}
        assert result.payload_bits == 5 * (1 + block_length)
        assert_matches_reference(
            blocks, mv_set, EncodingStrategy.HUFFMAN, fill_default
        )

    @pytest.mark.parametrize("fill_default", (0, 1))
    def test_single_coded_mv_with_specified_positions(self, fill_default):
        blocks = BlockSet.from_string("10X1 1001 10X1 100X", 4)
        mv_set = MVSet.from_strings(["10UU", "UUUU"])
        result = compress_blocks(blocks, mv_set, fill_default=fill_default)
        assert result.table.codewords == {0: "0"}
        assert_matches_reference(
            blocks, mv_set, EncodingStrategy.HUFFMAN, fill_default
        )

    @pytest.mark.parametrize("fill_default", (0, 1))
    def test_subsumption_redirects(self, fill_default):
        text = " ".join(
            ["1110"] * 3 + ["1111"] * 5 + ["0000"] * 2 + ["1X10"] * 2
            + ["X0X1", "0X00"]
        )
        blocks = BlockSet.from_string(text, 4)
        mv_set = MVSet.from_strings(["111U", "1110", "0000", "UUUU"])
        result = compress_blocks(
            blocks, mv_set, EncodingStrategy.HUFFMAN_SUBSUME,
            fill_default=fill_default,
        )
        assert result.table.redirect
        assert_matches_reference(
            blocks, mv_set, EncodingStrategy.HUFFMAN_SUBSUME, fill_default
        )

    @pytest.mark.parametrize("chunk", (1, 3, 5, 8, 17))
    @pytest.mark.parametrize("block_length", (3, 12, 96))
    def test_sequence_spans_several_chunks(
        self, monkeypatch, block_length, chunk
    ):
        monkeypatch.setattr(compressor_module, "_EMIT_CHUNK_BLOCKS", chunk)
        rng = np.random.default_rng(chunk + block_length)
        blocks = repetitive_blocks(rng, block_length, n_blocks=53)
        mv_set = random_mv_set(rng, block_length, n_vectors=9)
        for strategy in STRATEGIES:
            for fill_default in (0, 1):
                assert_matches_reference(
                    blocks, mv_set, strategy, fill_default
                )

    def test_memory_mapped_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(compressor_module, "_EMIT_CHUNK_BLOCKS", 7)
        rng = np.random.default_rng(12)
        blocks = repetitive_blocks(rng, 12, n_blocks=100)
        mapped = load_block_table(save_block_table(blocks, tmp_path / "t"))
        assert isinstance(mapped.sequence, np.memmap)
        mv_set = random_mv_set(rng, 12, n_vectors=8)
        assert compressed_payload(
            mapped, mv_set, EncodingStrategy.HUFFMAN, 0
        ) == reference_payload(blocks, mv_set, EncodingStrategy.HUFFMAN, 0)

    def test_empty_block_set(self):
        blocks = BlockSet.from_trit_array(np.empty(0, dtype=np.int8), 4)
        result = compress_blocks(blocks, MVSet.from_strings(["UUUU"]))
        assert (result.payload, result.payload_bits) == (b"", 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        block_length=st.integers(min_value=1, max_value=130),
        n_blocks=st.integers(min_value=1, max_value=80),
        n_vectors=st.integers(min_value=1, max_value=12),
        care=st.floats(min_value=0.0, max_value=1.0),
        strategy=st.sampled_from(STRATEGIES),
        fill_default=st.sampled_from((0, 1)),
    )
    def test_seeded_tables(
        self, seed, block_length, n_blocks, n_vectors, care, strategy,
        fill_default,
    ):
        rng = np.random.default_rng(seed)
        blocks = BlockSet.from_trit_array(
            random_trits(rng, n_blocks * block_length, care), block_length
        )
        mv_set = random_mv_set(rng, block_length, n_vectors)
        assert_matches_reference(blocks, mv_set, strategy, fill_default)


class TestContract:
    def test_bad_fill_default_is_a_value_error(self):
        blocks = BlockSet.from_string("10X", 3)
        with pytest.raises(ValueError, match="fill_default"):
            compress_blocks(blocks, MVSet.from_strings(["UUU"]), fill_default=2)

    def test_length_check_is_live(self, monkeypatch):
        """The emitted length is checked against the table, not assumed."""
        real_build = compressor_module.build_encoding_table

        def overstated(*args, **kwargs):
            table = real_build(*args, **kwargs)
            return type(table)(
                codewords=table.codewords,
                redirect=table.redirect,
                frequencies=table.frequencies,
                total_bits=table.total_bits + 1,
                strategy=table.strategy,
            )

        monkeypatch.setattr(compressor_module, "build_encoding_table", overstated)
        blocks = BlockSet.from_string("111 000 10X", 3)
        with pytest.raises(AssertionError, match="emitted 9 bits but encoding table predicted 10"):
            compress_blocks(blocks, MVSet.from_strings(["111", "UUU"]))


def reference_unique(rows):
    distinct, inverse, counts = np.unique(
        rows, axis=0, return_inverse=True, return_counts=True
    )
    return distinct, inverse.reshape(-1), counts


def assert_unique_matches(rows):
    ours = unique_rows(rows)
    theirs = reference_unique(rows)
    for mine, expected in zip(ours, theirs):
        assert mine.shape == expected.shape
        assert (mine == expected).all()
    assert ours[1].dtype == ours[2].dtype == np.int64


class TestUniqueRows:
    @pytest.mark.parametrize("n_words", (1, 2))
    def test_random_rows_with_duplicates(self, n_words):
        rng = np.random.default_rng(n_words)
        # Few distinct values per column, so ties on leading columns
        # force the later columns to decide the order.
        rows = rng.integers(0, 3, size=(500, 2 * n_words)).astype(np.uint64)
        assert_unique_matches(rows)

    @pytest.mark.parametrize("n_words", (1, 2))
    def test_full_width_values_compare_unsigned(self, n_words):
        rng = np.random.default_rng(10 + n_words)
        rows = rng.integers(0, 2**64, size=(300, 2 * n_words), dtype=np.uint64)
        rows[::7] = rows[1]  # duplicates
        rows[::11, 0] |= np.uint64(1 << 63)  # top bit set
        assert_unique_matches(rows)

    @pytest.mark.parametrize("n_words", (1, 2))
    def test_empty_input(self, n_words):
        rows = np.empty((0, 2 * n_words), dtype=np.uint64)
        distinct, inverse, counts = unique_rows(rows)
        assert distinct.shape == (0, 2 * n_words)
        assert distinct.dtype == np.uint64
        assert inverse.shape == counts.shape == (0,)

    @pytest.mark.parametrize("n_words", (1, 2))
    def test_all_duplicate_rows(self, n_words):
        rows = np.tile(
            np.arange(1, 2 * n_words + 1, dtype=np.uint64), (40, 1)
        )
        assert_unique_matches(rows)
        assert unique_rows(rows)[2].tolist() == [40]

    @pytest.mark.parametrize("n_words", (1, 2))
    def test_single_row(self, n_words):
        assert_unique_matches(np.full((1, 2 * n_words), 5, dtype=np.uint64))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_rows=st.integers(min_value=0, max_value=200),
        n_words=st.sampled_from((1, 2)),
        spread=st.sampled_from((2, 5, 2**64)),
    )
    def test_seeded_rows(self, seed, n_rows, n_words, spread):
        rng = np.random.default_rng(seed)
        rows = rng.integers(
            0, spread, size=(n_rows, 2 * n_words), dtype=np.uint64
        )
        assert_unique_matches(rows)

    @pytest.mark.parametrize("block_length", (1, 8, 12, 40, 64, 65, 96))
    def test_block_tables_match_numpy_unique(self, block_length):
        rng = np.random.default_rng(block_length)
        sources = random_trits(rng, 40 * block_length).reshape(40, block_length)
        grid = sources[rng.integers(0, 40, 300)]
        blocks = BlockSet.from_trit_array(grid.reshape(-1), block_length)
        raw_pairs = np.concatenate(
            [pack_bits_to_words(grid == 1), pack_bits_to_words(grid == 0)],
            axis=1,
        )
        distinct, inverse, counts = reference_unique(raw_pairs)
        pairs = np.concatenate([blocks.ones_words, blocks.zeros_words], axis=1)
        assert (pairs == distinct).all()
        assert (blocks.sequence == inverse).all()
        assert (blocks.counts == counts).all()
