"""Core library: the paper's code-based test compression contribution."""

from .baselines import RunLengthResult, compress_fdr, compress_golomb
from .blocks import (
    WORD_BITS,
    BlockSet,
    mask_word_count,
    pack_trits,
    unpack_masks,
)
from .compressor import CompressedTestSet, compress_blocks, compression_rate
from .decoder_hw import DecoderModel, decoder_model, decoder_model_for
from .multi_scan import (
    ChainResult,
    MultiScanResult,
    compress_multi_scan,
    split_into_chains,
)
from .config import CompressionConfig, EAParameters
from .covering import (
    CoveringResult,
    UncoverableError,
    cover,
    cover_masks,
)
from .kernels import (
    BitpackKernel,
    CoveringKernel,
    NativeKernel,
    available_kernels,
    get_kernel,
    kernel_availability,
    kernel_unavailable_reason,
    resolve_kernel,
    select_kernel_name,
    usable_kernels,
)
from .decompressor import DecodedTestSet, decompress, verify_roundtrip
from .encoding import (
    EncodingStrategy,
    EncodingTable,
    build_encoding_table,
    compressed_size,
    refine_subsumption,
)
from .fitness import (
    INVALID_FITNESS,
    BatchCompressionRateFitness,
    CompressionRateFitness,
)
from .matching import MatchingVector, MVSet
from .nine_c import (
    DEFAULT_NINE_C_BLOCK_LENGTH,
    NINE_C_CODEWORDS,
    compress_nine_c,
    nine_c_mv_set,
)
from .selective_huffman import SelectiveHuffmanResult, compress_selective_huffman
from .optimizer import (
    EAMVOptimizer,
    OptimizationResult,
    RunOutcome,
    RunTask,
    execute_run_task,
    optimize_mv_set,
)
from .trits import DC, ONE, ZERO, format_trits, parse_trits

__all__ = [
    "RunLengthResult",
    "compress_fdr",
    "compress_golomb",
    "DecoderModel",
    "decoder_model",
    "decoder_model_for",
    "ChainResult",
    "MultiScanResult",
    "compress_multi_scan",
    "split_into_chains",
    "WORD_BITS",
    "BlockSet",
    "mask_word_count",
    "pack_trits",
    "unpack_masks",
    "BitpackKernel",
    "CoveringKernel",
    "NativeKernel",
    "available_kernels",
    "get_kernel",
    "kernel_availability",
    "kernel_unavailable_reason",
    "resolve_kernel",
    "select_kernel_name",
    "usable_kernels",
    "CompressedTestSet",
    "compress_blocks",
    "compression_rate",
    "CompressionConfig",
    "EAParameters",
    "CoveringResult",
    "UncoverableError",
    "cover",
    "cover_masks",
    "DecodedTestSet",
    "decompress",
    "verify_roundtrip",
    "EncodingStrategy",
    "EncodingTable",
    "build_encoding_table",
    "compressed_size",
    "refine_subsumption",
    "INVALID_FITNESS",
    "BatchCompressionRateFitness",
    "CompressionRateFitness",
    "MatchingVector",
    "MVSet",
    "DEFAULT_NINE_C_BLOCK_LENGTH",
    "NINE_C_CODEWORDS",
    "compress_nine_c",
    "nine_c_mv_set",
    "SelectiveHuffmanResult",
    "compress_selective_huffman",
    "EAMVOptimizer",
    "OptimizationResult",
    "RunOutcome",
    "RunTask",
    "execute_run_task",
    "optimize_mv_set",
    "DC",
    "ONE",
    "ZERO",
    "format_trits",
    "parse_trits",
]
