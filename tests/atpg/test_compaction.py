"""Tests for static compaction (and why the paper avoids it)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.compaction import compact_test_set, cubes_compatible, merge_cubes
from repro.atpg.fault_sim import fault_coverage
from repro.atpg.faults import collapse_faults
from repro.atpg.stuck_at import generate_stuck_at_tests
from repro.circuits.generator import random_netlist
from repro.circuits.library import load_circuit
from repro.core.trits import DC
from repro.testdata.test_set import TestSet


def cube(text: str) -> np.ndarray:
    from repro.core.trits import parse_trits

    return np.asarray(parse_trits(text), dtype=np.int8)


class TestCompatibility:
    def test_compatible(self):
        assert cubes_compatible(cube("0X1"), cube("01X"))

    def test_conflict(self):
        assert not cubes_compatible(cube("0X1"), cube("1X1"))

    def test_x_always_compatible(self):
        assert cubes_compatible(cube("XXX"), cube("011"))


class TestMerge:
    def test_union_of_care_bits(self):
        merged = merge_cubes(cube("0XX"), cube("X1X"))
        assert merged.tolist() == [0, 1, DC]

    def test_incompatible_rejected(self):
        with pytest.raises(ValueError):
            merge_cubes(cube("0"), cube("1"))


class TestCompactTestSet:
    def test_docstring_example(self):
        ts = TestSet.from_strings("t", ["1X0", "10X", "0XX"])
        compacted = compact_test_set(ts)
        assert compacted.n_patterns == 2

    def test_no_merge_when_all_conflict(self):
        ts = TestSet.from_strings("t", ["00", "11", "01"])
        assert compact_test_set(ts).n_patterns == 3

    def test_coverage_preserved_on_c17(self):
        """The headline invariant: compaction never loses coverage."""
        c17 = load_circuit("c17")
        atpg = generate_stuck_at_tests(c17)
        faults = collapse_faults(c17)

        def cubes_of(ts):
            return [
                {
                    net: int(ts.patterns[row, col])
                    for col, net in enumerate(c17.inputs)
                    if ts.patterns[row, col] != DC
                }
                for row in range(ts.n_patterns)
            ]

        compacted = compact_test_set(atpg.test_set)
        assert compacted.n_patterns <= atpg.test_set.n_patterns
        assert fault_coverage(c17, cubes_of(compacted), faults) == pytest.approx(
            fault_coverage(c17, cubes_of(atpg.test_set), faults)
        )

    def test_compaction_reduces_x_density(self):
        """The compression-relevant effect: merged cubes are denser —
        the reason the paper uses uncompacted test sets."""
        c17 = load_circuit("c17")
        atpg = generate_stuck_at_tests(c17)
        compacted = compact_test_set(atpg.test_set)
        if compacted.n_patterns < atpg.test_set.n_patterns:
            assert compacted.x_density() < atpg.test_set.x_density()

    def test_generated_circuit_loses_bits_and_dont_cares(self):
        """On the ATPG cubes of a generated netlist, compaction gives
        fewer bits and no higher X density, and the EA compresses the
        uncompacted cubes no worse (within 5 points)."""
        from repro.core.config import CompressionConfig, EAParameters
        from repro.core.optimizer import EAMVOptimizer

        atpg = generate_stuck_at_tests(
            random_netlist(16, 90, seed=5), max_backtracks=300
        )
        compacted = compact_test_set(atpg.test_set)
        assert compacted.total_bits < atpg.test_set.total_bits
        assert compacted.x_density() <= atpg.test_set.x_density()
        config = CompressionConfig(
            block_length=8,
            n_vectors=16,
            runs=1,
            ea=EAParameters(stagnation_limit=20, max_evaluations=800),
        )
        uncompacted_rate, compacted_rate = (
            EAMVOptimizer(config, seed=9).optimize(test_set.blocks(8)).best_rate
            for test_set in (atpg.test_set, compacted)
        )
        assert uncompacted_rate >= compacted_rate - 5.0

    @settings(max_examples=25)
    @given(
        st.lists(
            st.text(alphabet="01X", min_size=6, max_size=6),
            min_size=1,
            max_size=20,
        )
    )
    def test_every_original_cube_is_contained(self, rows):
        """Each input cube's specified bits survive in some merged cube."""
        ts = TestSet.from_strings("t", rows)
        compacted = compact_test_set(ts)
        for row in range(ts.n_patterns):
            original = ts.patterns[row]
            contained = False
            for merged_row in range(compacted.n_patterns):
                merged = compacted.patterns[merged_row]
                specified = original != DC
                if (merged[specified] == original[specified]).all():
                    contained = True
                    break
            assert contained
