"""Golden pins for the compressed stream and the block-table layout.

Every other compressor test checks a property (length, round trip,
kernel agreement); these pin the exact bytes.  Each case records the
SHA-256 of ``compress_blocks``' payload plus its ``payload_bits``, and
the block-table cases record :func:`block_table_digest`, so any
rewrite of the emitter or of the canonical distinct-row order must
reproduce the historical output bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.core.blocks import BlockSet, block_table_digest
from repro.core.compressor import compress_blocks
from repro.core.config import CompressionConfig, EAParameters
from repro.core.encoding import EncodingStrategy
from repro.core.matching import MatchingVector, MVSet
from repro.core.nine_c import compress_nine_c
from repro.core.optimizer import EAMVOptimizer
from repro.testdata.synthetic import (
    WIDE_BLOCK_LENGTH,
    SyntheticSpec,
    synthetic_test_set,
    wide_block_test_set,
)

PIN_SPEC = SyntheticSpec(
    name="golden", n_patterns=60, pattern_bits=96, care_density=0.3, seed=2005
)


def _digest(compressed) -> tuple[str, int]:
    return (
        hashlib.sha256(compressed.payload).hexdigest(),
        compressed.payload_bits,
    )


def _pin_test_set():
    return synthetic_test_set(PIN_SPEC)


def _random_mv_set(rng, block_length, n_vectors, u_share):
    """Seeded MVs with roughly ``u_share`` U positions, plus all-U."""
    vectors = []
    for _ in range(n_vectors - 1):
        care = rng.random(block_length) >= u_share
        values = rng.integers(0, 2, block_length)
        vectors.append(
            MatchingVector(tuple(int(v) if c else 2 for c, v in zip(care, values)))
        )
    vectors.append(MatchingVector.all_unspecified(block_length))
    return MVSet(vectors)


def _nine_c():
    return compress_nine_c(_pin_test_set().blocks(8))


def _nine_c_huffman():
    return compress_nine_c(_pin_test_set().blocks(8), use_huffman=True)


def _nine_c_huffman_fill_one():
    return compress_nine_c(
        _pin_test_set().blocks(8), use_huffman=True, fill_default=1
    )


def _ea_best_huffman():
    blocks = _pin_test_set().blocks(12)
    config = CompressionConfig(
        block_length=12,
        n_vectors=16,
        runs=1,
        ea=EAParameters(stagnation_limit=10, max_evaluations=200),
    )
    result = EAMVOptimizer(config, seed=7).optimize(blocks)
    return compress_blocks(blocks, result.best_mv_set, EncodingStrategy.HUFFMAN)


def _subsume_with_redirect():
    # The paper's Section 3.3 shape: "111U" subsumes "1110", and
    # folding the rarer MV in shortens the code more than the fill
    # bits it adds.
    text = " ".join(
        ["1110"] * 3 + ["1111"] * 5 + ["0000"] * 2 + ["1X10"] * 2 + ["X0X1"]
    )
    blocks = BlockSet.from_string(text, 4)
    mv_set = MVSet.from_strings(["111U", "1110", "0000", "UUUU"])
    compressed = compress_blocks(
        blocks, mv_set, EncodingStrategy.HUFFMAN_SUBSUME
    )
    assert compressed.table.redirect  # the case must exercise a merge
    return compressed


def _wide_blocks():
    blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
    mv_set = _random_mv_set(
        np.random.default_rng(96), WIDE_BLOCK_LENGTH, 24, u_share=0.8
    )
    return compress_blocks(blocks, mv_set, EncodingStrategy.HUFFMAN)


# case -> (builder, payload SHA-256, payload_bits)
GOLDEN_PAYLOADS = {
    "9c-fixed": (
        _nine_c,
        "36309379f7ea05804a978a7964a26a279c966464c384b0015a08ee00e1d42661",
        3496,
    ),
    "9c-huffman": (
        _nine_c_huffman,
        "cbc05507589d812916bfaf575c5d0b7a1ded91f9db79a234bdbb7ec5c93fe164",
        3411,
    ),
    "9c-huffman-fill-one": (
        _nine_c_huffman_fill_one,
        "6a1b67de4f05e71f450b3a8776d08d79d0da3879885b88d732f1af1d8eefb050",
        3411,
    ),
    "ea-best-huffman": (
        _ea_best_huffman,
        "5f0bf4fbd576ef8d8662050bb8272140b999a5688b172ee309009e11e1ee4c61",
        2962,
    ),
    "huffman-subsume-redirect": (
        _subsume_with_redirect,
        "13dd670a2708b909b27eaaab5c53eb22970f5257e2578025c340a70a7bf55f41",
        30,
    ),
    "wide-k96": (
        _wide_blocks,
        "d567d9ab255447d88a1ca5922739e1313353fe65f37172af503407d072a3f257",
        21472,
    ),
}

GOLDEN_TABLE_DIGESTS = {
    8: "e57ba16ffbaa5b29f026cd326279aa7f63f9afe47f3b6b61647e743084445134",
    12: "52acc3eb35c670d3ec9f983de5b5e34b9ff05ee04ba4af0ff7b9eb89b5d25676",
    40: "0c74cf693b1ea57f4c91cbd64593f1256b4daa787eb2c2a681351d7edf9d5b5a",
    96: "3e1a9a869371e0e1cd97b7c8750539628c93cdf301fa7c18c72743e89867f9ce",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PAYLOADS))
def test_payload_is_pinned(case):
    build, sha256, payload_bits = GOLDEN_PAYLOADS[case]
    assert _digest(build()) == (sha256, payload_bits)


@pytest.mark.parametrize("block_length", sorted(GOLDEN_TABLE_DIGESTS))
def test_block_table_digest_is_pinned(block_length):
    blocks = _pin_test_set().blocks(block_length)
    assert block_table_digest(blocks) == GOLDEN_TABLE_DIGESTS[block_length]
