"""repro — Evolutionary optimization in code-based test compression.

A from-scratch reproduction of Polian, Czutro and Becker,
*Evolutionary Optimization in Code-Based Test Compression* (DATE 2005),
including every substrate the paper depends on: a prefix-coding layer,
an evolutionary-algorithm engine, a gate-level circuit and ATPG stack
that produces don't-care-rich test sets, and an experiment harness
that regenerates the paper's tables.

Quickstart::

    import repro

    blocks = repro.BlockSet.from_string("1100 11XX 0000 110X", 4)
    result = repro.compress_nine_c(blocks)        # 9C baseline
    best = repro.optimize_mv_set(                  # EA-optimized MVs
        blocks, repro.CompressionConfig(block_length=4, n_vectors=4), seed=1
    )
    print(result.rate, best.mean_rate)
"""

from .core import (
    BlockSet,
    CompressedTestSet,
    CompressionConfig,
    CoveringResult,
    DecodedTestSet,
    EAMVOptimizer,
    EAParameters,
    EncodingStrategy,
    EncodingTable,
    MatchingVector,
    MVSet,
    OptimizationResult,
    UncoverableError,
    compress_blocks,
    compress_nine_c,
    compression_rate,
    cover,
    decompress,
    nine_c_mv_set,
    optimize_mv_set,
    verify_roundtrip,
)

__version__ = "1.1.0"

__all__ = [
    "BlockSet",
    "CompressedTestSet",
    "CompressionConfig",
    "CoveringResult",
    "DecodedTestSet",
    "EAMVOptimizer",
    "EAParameters",
    "EncodingStrategy",
    "EncodingTable",
    "MatchingVector",
    "MVSet",
    "OptimizationResult",
    "UncoverableError",
    "compress_blocks",
    "compress_nine_c",
    "compression_rate",
    "cover",
    "decompress",
    "nine_c_mv_set",
    "optimize_mv_set",
    "verify_roundtrip",
    "__version__",
]
