"""Cross-module integration tests: the paper's flows end to end.

These tests exercise the same pipelines the examples and benches run,
but with strict oracles: fault coverage re-verified independently,
streams decoded bit-exactly, and rates cross-checked between the fast
fitness path and the materializing compressor.
"""

import numpy as np
import pytest

import repro
from repro.atpg import (
    collapse_faults,
    compact_test_set,
    fault_coverage,
    generate_path_delay_tests,
    generate_stuck_at_tests,
    is_robust_test,
    relax_test_set,
)
from repro.circuits import load_circuit
from repro.core.baselines import compress_fdr, compress_golomb
from repro.core.decoder_hw import decoder_model_for
from repro.core.multi_scan import compress_multi_scan
from repro.core.trits import DC


def fast_config(k=4, l=8) -> repro.CompressionConfig:
    return repro.CompressionConfig(
        block_length=k,
        n_vectors=l,
        runs=2,
        ea=repro.EAParameters(stagnation_limit=15, max_evaluations=400),
    )


@pytest.fixture(scope="module")
def s27_stuck_at():
    return generate_stuck_at_tests(load_circuit("s27"))


class TestStuckAtPipeline:
    def test_atpg_to_compression_to_decode(self, s27_stuck_at):
        """Netlist -> PODEM -> EA compression -> decode, verified."""
        test_set = s27_stuck_at.test_set
        result = repro.optimize_mv_set(test_set.blocks(4), fast_config(), seed=3)
        compressed = repro.compress_blocks(test_set.blocks(4), result.best_mv_set)
        decoded = repro.verify_roundtrip(compressed)
        assert decoded.blocks_decoded == test_set.blocks(4).n_blocks

    def test_relaxation_then_compression_improves_or_ties(self, s27_stuck_at):
        """More Xs -> blocks match cheaper MVs, so 9C+HC compresses
        better (up to a small Huffman redistribution tolerance)."""
        netlist = load_circuit("s27")
        relaxed = relax_test_set(
            netlist, s27_stuck_at.test_set, collapse_faults(netlist)
        )
        assert relaxed.x_density() >= s27_stuck_at.test_set.x_density() - 1e-9
        before = repro.compress_nine_c(
            s27_stuck_at.test_set.blocks(8), use_huffman=True
        ).rate
        after = repro.compress_nine_c(relaxed.blocks(8), use_huffman=True).rate
        assert after >= before - 2.0

    def test_compaction_preserves_coverage_but_densifies(self, s27_stuck_at):
        netlist = load_circuit("s27")
        faults = collapse_faults(netlist)
        compacted = compact_test_set(s27_stuck_at.test_set)

        def cubes_of(ts):
            return [
                {
                    net: int(ts.patterns[row, col])
                    for col, net in enumerate(netlist.inputs)
                    if ts.patterns[row, col] != DC
                }
                for row in range(ts.n_patterns)
            ]

        original_coverage = fault_coverage(
            netlist, cubes_of(s27_stuck_at.test_set), faults
        )
        compacted_coverage = fault_coverage(netlist, cubes_of(compacted), faults)
        assert compacted_coverage >= original_coverage - 1e-9
        assert compacted.total_bits <= s27_stuck_at.test_set.total_bits

    def test_all_methods_agree_on_original_size(self, s27_stuck_at):
        """Every method must report the same T·n baseline."""
        test_set = s27_stuck_at.test_set
        flat = test_set.flatten()
        golomb = compress_golomb(flat)
        fdr = compress_fdr(flat)
        nine_c = repro.compress_nine_c(test_set.blocks(8))
        assert golomb.original_bits == test_set.total_bits
        assert fdr.original_bits == test_set.total_bits
        assert nine_c.original_bits == test_set.total_bits


class TestPathDelayPipeline:
    def test_robust_tests_compress_and_decode(self):
        netlist = load_circuit("c17")
        result = generate_path_delay_tests(netlist)
        assert all(is_robust_test(netlist, t) for t in result.tests)
        test_set = result.test_set
        ea = repro.optimize_mv_set(test_set.blocks(5), fast_config(k=5), seed=1)
        compressed = repro.compress_blocks(test_set.blocks(5), ea.best_mv_set)
        repro.verify_roundtrip(compressed)

    def test_vector_pairs_width(self):
        netlist = load_circuit("s27")
        result = generate_path_delay_tests(netlist, max_paths=30)
        assert result.test_set.n_inputs == 2 * len(netlist.inputs)


class TestMultiScanOnGenuineData:
    def test_multi_scan_on_atpg_cubes(self, s27_stuck_at):
        result = compress_multi_scan(
            s27_stuck_at.test_set,
            n_chains=2,
            config=fast_config(),
            mode="shared",
            seed=5,
        )
        assert result.original_bits == s27_stuck_at.test_set.total_bits
        assert len(result.chains) == 2


class TestDecoderModelConsistency:
    def test_decoder_leaves_match_codewords(self, s27_stuck_at):
        test_set = s27_stuck_at.test_set
        ea = repro.optimize_mv_set(test_set.blocks(4), fast_config(), seed=9)
        compressed = repro.compress_blocks(test_set.blocks(4), ea.best_mv_set)
        model = decoder_model_for(compressed)
        assert model.n_codewords == len(compressed.table.codewords)
        # A prefix tree with n leaves has at most n-1 internal nodes.
        if model.n_codewords > 1:
            assert model.fsm_states <= model.n_codewords - 1 + 1
        assert model.output_buffer_bits == 4

    def test_fill_counter_covers_max_nu(self, s27_stuck_at):
        test_set = s27_stuck_at.test_set
        ea = repro.optimize_mv_set(test_set.blocks(4), fast_config(), seed=9)
        compressed = repro.compress_blocks(test_set.blocks(4), ea.best_mv_set)
        model = decoder_model_for(compressed)
        max_nu = max(
            compressed.mv_set[i].n_unspecified
            for i in compressed.table.codewords
        )
        if max_nu:
            assert 2 ** model.fill_counter_bits >= max_nu + 1


class TestFitnessCompressorAgreementOnRealData:
    def test_rates_agree(self, s27_stuck_at):
        """The EA's fast fitness path and the materializing compressor
        must price genuine ATPG data identically."""
        from repro.core.fitness import BatchCompressionRateFitness

        blocks = s27_stuck_at.test_set.blocks(4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            genome = rng.integers(0, 3, size=6 * 4, dtype=np.int8)
            genome[-4:] = 2  # all-U tail
            fitness = BatchCompressionRateFitness(
                blocks, n_vectors=6, block_length=4
            )
            predicted = fitness.evaluate_batch(genome)[0]
            actual = repro.compress_blocks(
                blocks, repro.MVSet.from_genome(genome, 4)
            ).rate
            assert predicted == pytest.approx(actual)
