"""Failure-injection tests: corrupted streams, hostile inputs, limits.

A production decompressor must fail loudly on malformed data, not
emit garbage test vectors; these tests pin that behaviour across the
stack.
"""

import pytest

from repro.coding.bitstream import BitReader, BitWriter
from repro.core.blocks import BlockSet
from repro.core.compressor import CompressedTestSet, compress_blocks
from repro.core.covering import UncoverableError
from repro.core.decompressor import decompress
from repro.core.matching import MVSet


def compressed_fixture() -> CompressedTestSet:
    blocks = BlockSet.from_string("111 000 111 0X1 XXX", 3)
    return compress_blocks(
        blocks, MVSet.from_strings(["111", "000", "UUU"])
    )


class TestCorruptedStreams:
    def test_truncated_payload_raises(self):
        good = compressed_fixture()
        truncated = CompressedTestSet(
            blocks=good.blocks,
            mv_set=good.mv_set,
            table=good.table,
            covering=good.covering,
            payload=good.payload,
            payload_bits=good.payload_bits - 1,
            fill_default=good.fill_default,
        )
        with pytest.raises((EOFError, ValueError)):
            decompress(truncated)

    def test_extra_trailing_bits_raise(self):
        good = compressed_fixture()
        writer = BitWriter()
        reader = BitReader(good.payload, good.payload_bits)
        writer.write_bits(reader.read_bits(good.payload_bits))
        writer.write_bits([0] * 8)  # junk tail
        padded = CompressedTestSet(
            blocks=good.blocks,
            mv_set=good.mv_set,
            table=good.table,
            covering=good.covering,
            payload=writer.getvalue(),
            payload_bits=writer.bit_length,
            fill_default=good.fill_default,
        )
        with pytest.raises(ValueError, match="trailing"):
            decompress(padded)

    def test_bitflip_never_passes_silently_or_decodes_consistently(self):
        """Flipping one payload bit either raises or changes decoded
        data in a way verify_roundtrip would catch on specified bits.

        (With a complete prefix code a flip can decode to *different*
        valid vectors — then the roundtrip oracle must catch it; with
        an incomplete tree the walk may dead-end — then decoding
        raises.)"""
        good = compressed_fixture()
        original = decompress(good).bits
        detected = 0
        for bit_index in range(good.payload_bits):
            payload = bytearray(good.payload)
            payload[bit_index // 8] ^= 0x80 >> (bit_index % 8)
            corrupted = CompressedTestSet(
                blocks=good.blocks,
                mv_set=good.mv_set,
                table=good.table,
                covering=good.covering,
                payload=bytes(payload),
                payload_bits=good.payload_bits,
                fill_default=good.fill_default,
            )
            try:
                if decompress(corrupted).bits != original:
                    detected += 1
            except (ValueError, EOFError, KeyError, AssertionError):
                detected += 1
        assert detected == good.payload_bits  # every flip has an effect


class TestHostileInputs:
    def test_uncoverable_block_set(self):
        blocks = BlockSet.from_string("010101", 6)
        with pytest.raises(UncoverableError):
            compress_blocks(blocks, MVSet.from_strings(["111111"]))

    def test_mismatched_fixed_codewords(self):
        from repro.core.encoding import EncodingStrategy

        blocks = BlockSet.from_string("111", 3)
        with pytest.raises(ValueError):
            compress_blocks(
                blocks,
                MVSet.from_strings(["111"]),
                EncodingStrategy.FIXED,
                fixed_codewords={},
            )

    def test_non_prefix_fixed_codewords_rejected(self):
        from repro.coding.prefix import PrefixViolationError
        from repro.core.encoding import EncodingStrategy, build_encoding_table

        mvs = MVSet.from_strings(["11", "00"])
        table = build_encoding_table(
            mvs,
            {0: 1, 1: 1},
            EncodingStrategy.FIXED,
            fixed_codewords={0: "1", 1: "10"},
        )
        with pytest.raises(PrefixViolationError):
            table.prefix_code()

    def test_zero_length_test_set_rejected_by_fitness(self):
        from repro.core.fitness import BatchCompressionRateFitness

        empty = BlockSet.from_string("", 4)
        with pytest.raises(ValueError):
            BatchCompressionRateFitness(empty, n_vectors=2, block_length=4)


class TestSearchLimits:
    def test_podem_zero_budget_aborts_hard_fault(self):
        from repro.atpg.faults import StuckAtFault
        from repro.atpg.podem import podem
        from repro.circuits.generator import random_netlist

        netlist = random_netlist(10, 60, seed=3)
        hard = [
            fault
            for fault in (
                StuckAtFault(net, value)
                for net in netlist.all_nets()
                for value in (0, 1)
            )
        ]
        outcomes = {podem(netlist, f, max_backtracks=0).status for f in hard[:30]}
        # With zero backtracks allowed, nothing is proven untestable.
        assert "untestable" not in outcomes or "aborted" in outcomes

    def test_justify_unsatisfiable_terminates(self):
        from repro.atpg.podem import justify
        from repro.circuits.bench_parser import parse_bench

        netlist = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)"
        )
        assert justify(netlist, {"y": 1}, max_backtracks=10_000) is None
