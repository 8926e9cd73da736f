"""Unit and property tests for matching vectors and MV sets."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.blocks import pack_trits
from repro.core.matching import MatchingVector, MVSet
from repro.core.trits import parse_trits

from ..conftest import mv_strings, trit_strings


def brute_force_match(mv_text: str, block_text: str) -> bool:
    """The paper's definition, position by position."""
    for mv_char, block_char in zip(mv_text, block_text):
        if mv_char == "1" and block_char == "0":
            return False
        if mv_char == "0" and block_char == "1":
            return False
    return True


class TestMatchingVector:
    def test_paper_example_v5_matches(self):
        # v(5) = 111UUU matches 111100 and 111011 (paper Section 1).
        v5 = MatchingVector.from_string("111UUU")
        assert v5.matches_trits(parse_trits("111100"))
        assert v5.matches_trits(parse_trits("111011"))

    def test_paper_example_v4_exact(self):
        v4 = MatchingVector.from_string("111000")
        assert v4.matches_trits(parse_trits("111000"))
        assert not v4.matches_trits(parse_trits("111100"))

    def test_x_in_block_matches_specified_mv(self):
        mv = MatchingVector.from_string("10")
        assert mv.matches_trits(parse_trits("XX"))

    def test_n_unspecified_and_positions(self):
        mv = MatchingVector.from_string("1U0U")
        assert mv.n_unspecified == 2
        assert mv.u_positions == (1, 3)

    def test_all_unspecified_constructor(self):
        mv = MatchingVector.all_unspecified(5)
        assert mv.is_all_unspecified
        assert mv.n_unspecified == 5

    def test_length_mismatch_rejected(self):
        mv = MatchingVector.from_string("10")
        with pytest.raises(ValueError):
            mv.matches_trits(parse_trits("101"))

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            MatchingVector(())

    def test_str(self):
        assert str(MatchingVector.from_string("1U0")) == "1U0"

    def test_fill_bits_take_block_values(self):
        mv = MatchingVector.from_string("1UU0")
        fills = mv.fill_bits(parse_trits("11X0"))
        assert fills == [1, 0]  # X position gets the default 0

    def test_fill_bits_default_one(self):
        mv = MatchingVector.from_string("UU")
        assert mv.fill_bits(parse_trits("XX"), fill_default=1) == [1, 1]

    def test_fill_bits_invalid_default(self):
        mv = MatchingVector.from_string("U")
        with pytest.raises(ValueError):
            mv.fill_bits(parse_trits("X"), fill_default=2)


class TestSubsumption:
    def test_paper_example(self):
        v1 = MatchingVector.from_string("111U")
        v2 = MatchingVector.from_string("1110")
        assert v1.subsumes(v2)
        assert not v2.subsumes(v1)

    def test_self_subsumption(self):
        mv = MatchingVector.from_string("1U0")
        assert mv.subsumes(mv)

    def test_all_u_subsumes_everything(self):
        all_u = MatchingVector.all_unspecified(4)
        assert all_u.subsumes(MatchingVector.from_string("1010"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MatchingVector.from_string("1U").subsumes(
                MatchingVector.from_string("1U0")
            )

    @given(mv_strings(6), mv_strings(6), trit_strings(min_size=6, max_size=6))
    def test_subsumption_implies_match_containment(self, a_text, b_text, block):
        """If a subsumes b, every block matched by b is matched by a."""
        a = MatchingVector.from_string(a_text)
        b = MatchingVector.from_string(b_text)
        if a.subsumes(b) and b.matches_trits(parse_trits(block)):
            assert a.matches_trits(parse_trits(block))


class TestMatchingProperties:
    @given(mv_strings(8), trit_strings(min_size=8, max_size=8))
    def test_mask_match_equals_definition(self, mv_text, block_text):
        mv = MatchingVector.from_string(mv_text)
        ones, zeros = pack_trits(parse_trits(block_text))
        assert mv.matches_masks(ones, zeros) == brute_force_match(mv_text, block_text)

    @given(mv_strings(8), st.lists(trit_strings(8, 8), min_size=1, max_size=20))
    def test_vectorized_match_equals_scalar(self, mv_text, block_texts):
        mv = MatchingVector.from_string(mv_text)
        masks = [pack_trits(parse_trits(t)) for t in block_texts]
        ones = np.asarray([m[0] for m in masks], dtype=np.uint64)
        zeros = np.asarray([m[1] for m in masks], dtype=np.uint64)
        vectorized = mv.matches_array(ones, zeros)
        scalar = [mv.matches_masks(o, z) for o, z in masks]
        assert vectorized.tolist() == scalar


class TestMVSet:
    def test_covering_order_sorts_by_nu(self):
        mvs = MVSet.from_strings(["UUU", "000", "1U1"])
        assert mvs.covering_order() == [1, 2, 0]

    def test_covering_order_stable_for_ties(self):
        mvs = MVSet.from_strings(["111", "000", "UUU"])
        assert mvs.covering_order() == [0, 1, 2]

    def test_genome_roundtrip(self):
        mvs = MVSet.from_strings(["1U0", "0X1"])
        assert MVSet.from_genome(mvs.to_genome(), 3) == mvs

    def test_from_genome_rejects_bad_length(self):
        with pytest.raises(ValueError):
            MVSet.from_genome(np.zeros(7, dtype=np.int8), 3)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            MVSet.from_strings(["10", "100"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MVSet([])

    def test_with_all_unspecified_noop_when_present(self):
        mvs = MVSet.from_strings(["11", "UU"])
        assert mvs.with_all_unspecified() is mvs

    def test_with_all_unspecified_replaces_last(self):
        mvs = MVSet.from_strings(["11", "00"]).with_all_unspecified()
        assert str(mvs[1]) == "UU"
        assert str(mvs[0]) == "11"

    def test_iteration_and_indexing(self):
        mvs = MVSet.from_strings(["10", "01"])
        assert [str(mv) for mv in mvs] == ["10", "01"]
        assert str(mvs[1]) == "01"
        assert len(mvs) == 2


def per_mv_masks(mvs):
    """``mask_arrays``'s reference: each MV's own ``ones_words`` and
    ``zeros_words``, flat for one-word vectors."""
    ones = np.asarray([mv.ones_words for mv in mvs], dtype=np.uint64)
    zeros = np.asarray([mv.zeros_words for mv in mvs], dtype=np.uint64)
    if ones.shape[1] == 1:
        return ones[:, 0], zeros[:, 0]
    return ones, zeros


def assert_masks_match_per_mv(mvs):
    ones, zeros = mvs.mask_arrays()
    ref_ones, ref_zeros = per_mv_masks(mvs)
    assert ones.dtype == zeros.dtype == np.uint64
    assert ones.shape == ref_ones.shape and zeros.shape == ref_zeros.shape
    assert (ones == ref_ones).all() and (zeros == ref_zeros).all()


class TestMaskArrays:
    """One packing pass over the set ≡ packing each MV on its own."""

    @pytest.mark.parametrize("block_length", [1, 12, 63, 64, 65, 96, 128])
    def test_matches_per_mv_words(self, block_length):
        rng = np.random.default_rng(block_length)
        genome = rng.integers(0, 3, size=7 * block_length, dtype=np.int8)
        genome[:block_length] = 1  # an all-ones MV sets the top bit
        genome[block_length : 2 * block_length] = 0
        mvs = MVSet.from_genome(genome, block_length)
        assert_masks_match_per_mv(mvs)
        ones, _ = mvs.mask_arrays()
        assert ones.shape == ((7,) if block_length <= 64 else (7, -(-block_length // 64)))

    @given(
        st.integers(min_value=1, max_value=130).flatmap(
            lambda length: st.lists(mv_strings(length), min_size=1, max_size=12)
        )
    )
    def test_matches_per_mv_words_on_random_sets(self, mv_texts):
        assert_masks_match_per_mv(MVSet.from_strings(mv_texts))
