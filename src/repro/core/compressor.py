"""End-to-end compression: blocks → covering → encoding → bitstream.

This module glues the pipeline of Section 3 together and produces the
actual compressed bit stream a tester would ship to the on-chip
decoder: for every input block, the codeword of its matching vector
followed by the fill bits for the MV's ``U`` positions.

The stream is built from arrays, not bit by bit.  Every distinct block
emits the same bits wherever it occurs, so each gets one row of a
``uint8`` matrix (its final MV's codeword, then its values at that
MV's ``U`` positions); the rows are gathered in test-set order by the
block sequence, compacted with a validity mask and ``np.packbits``-ed,
a bounded chunk of the sequence at a time.

The reported ``compression_rate`` follows the paper exactly::

    100 * (original size - compressed size) / original size

with the original size being the *unpadded* test-set size ``T·n`` and
the compressed size counting codeword and fill bits (the code table
itself is decoder configuration, not test data, and is excluded — as
in the paper; :meth:`CompressedTestSet.code_table_bits` reports it
separately for decoder-cost studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockSet, unpack_words_to_bits
from .covering import CoveringResult, cover
from .encoding import EncodingStrategy, EncodingTable, build_encoding_table
from .matching import MVSet

__all__ = ["CompressedTestSet", "compress_blocks", "compression_rate"]

# Blocks of the sequence emitted per chunk.  The gathered
# (chunk, longest row) bit matrix and its mask are the emitter's only
# sequence-sized arrays: 2**16 blocks keep them at a few MiB even for
# K = 96 with long codewords, a paper-sized table (a few thousand
# blocks) still goes in one pass, and a memory-mapped 40 M-block
# sequence streams through without ever being gathered whole.
_EMIT_CHUNK_BLOCKS = 1 << 16


def compression_rate(original_bits: int, compressed_bits: int) -> float:
    """The paper's rate: ``100·(original − compressed)/original`` (%).

    Negative when the "compressed" data is larger than the original —
    the paper's tables contain such entries (e.g. −1.0% for s1494
    under 9C).
    """
    if original_bits <= 0:
        raise ValueError("original size must be positive")
    return 100.0 * (original_bits - compressed_bits) / original_bits


@dataclass(frozen=True)
class CompressedTestSet:
    """A compressed test set plus everything needed to decode it.

    Attributes
    ----------
    blocks:
        The source :class:`BlockSet` (kept for verification flows).
    mv_set:
        The matching vectors used.
    table:
        Codeword assignment (including subsumption redirects).
    covering:
        The covering result (pre-redirect assignment + frequencies).
    payload:
        The compressed bit stream as packed bytes.
    payload_bits:
        Exact number of valid bits in ``payload``.
    fill_default:
        Value substituted for don't-care block bits at fill positions.
    """

    blocks: BlockSet
    mv_set: MVSet
    table: EncodingTable
    covering: CoveringResult = field(repr=False)
    payload: bytes = field(repr=False)
    payload_bits: int
    fill_default: int

    @property
    def original_bits(self) -> int:
        """Unpadded test-set size ``T·n`` (paper's "test set size")."""
        return self.blocks.original_bits

    @property
    def compressed_bits(self) -> int:
        """Payload size in bits (codewords + fills)."""
        return self.payload_bits

    @property
    def rate(self) -> float:
        """Compression rate in percent, as defined in the paper."""
        return compression_rate(self.original_bits, self.compressed_bits)

    def code_table_bits(self) -> int:
        """Bits needed to describe the code table to a reconfigurable
        decoder: per coded MV, its codeword plus its K trits (2 bits
        per trit).  Reported separately from the payload, mirroring
        the paper's decoder discussion in Section 5."""
        bits = 0
        for mv_index, codeword in self.table.codewords.items():
            bits += len(codeword) + 2 * self.mv_set[mv_index].length
        return bits

    def mv_usage(self) -> dict[str, int]:
        """Final ``{mv string: blocks encoded}`` usage map."""
        usage: dict[str, int] = {}
        for mv_index, frequency in self.table.frequencies.items():
            usage[str(self.mv_set[mv_index])] = frequency
        return usage


def compress_blocks(
    blocks: BlockSet,
    mv_set: MVSet,
    strategy: EncodingStrategy = EncodingStrategy.HUFFMAN,
    fixed_codewords: dict[int, str] | None = None,
    fill_default: int = 0,
) -> CompressedTestSet:
    """Compress a block set with the given MVs.

    Raises :class:`UncoverableError` if some block matches no MV
    (impossible once the MV set contains the all-U vector).

    >>> bs = BlockSet.from_string("111 000 111 10X", 3)
    >>> result = compress_blocks(bs, MVSet.from_strings(["111", "000", "UUU"]))
    >>> result.compressed_bits < bs.original_bits
    True
    """
    if blocks.block_length != mv_set.block_length:
        raise ValueError(
            f"block length {blocks.block_length} != MV length {mv_set.block_length}"
        )
    covering = cover(blocks, mv_set, require_complete=True)
    table = build_encoding_table(
        mv_set, covering.frequency_map(), strategy, fixed_codewords
    )
    if fill_default not in (0, 1):
        raise ValueError("fill_default must be 0 or 1")
    rows, lengths = _block_rows(
        blocks, mv_set, table, covering.assignment, fill_default
    )
    payload, payload_bits = _emit(rows, lengths, blocks.sequence)
    if payload_bits != table.total_bits:
        raise AssertionError(
            f"emitted {payload_bits} bits but encoding table "
            f"predicted {table.total_bits}"
        )
    return CompressedTestSet(
        blocks=blocks,
        mv_set=mv_set,
        table=table,
        covering=covering,
        payload=payload,
        payload_bits=payload_bits,
        fill_default=fill_default,
    )


def _block_rows(
    blocks: BlockSet,
    mv_set: MVSet,
    table: EncodingTable,
    assignment: np.ndarray,
    fill_default: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct block's emitted bits, left-aligned, one row each.

    Row ``d`` is the codeword of block ``d``'s final MV (its covering
    MV after subsumption redirects), then the block's values at that
    MV's ``U`` positions: a specified bit keeps its value, an ``X``
    takes ``fill_default``.  Returns ``(rows, lengths)``: a
    ``(D, longest row)`` uint8 matrix and each row's valid bit count.
    """
    block_length = blocks.block_length
    # A block's value at every position, X already filled: its ones
    # mask under a 0 fill, the complement of its zeros mask under a 1.
    if fill_default:
        values = 1 - unpack_words_to_bits(blocks.zeros_words, block_length)
    else:
        values = unpack_words_to_bits(blocks.ones_words, block_length)
    # Two constant columns, 0 then 1, so codeword bits are gathered
    # from the same matrix as fill bits.
    zero_column, one_column = block_length, block_length + 1
    values = np.concatenate(
        [values, np.broadcast_to(np.array([0, 1], np.uint8), (len(values), 2))],
        axis=1,
    )
    sources_by_mv = {
        mv_index: [one_column if bit == "1" else zero_column for bit in codeword]
        + list(mv_set[mv_index].u_positions)
        for mv_index, codeword in table.codewords.items()
    }
    width = max(map(len, sources_by_mv.values()), default=0)
    sources = np.full((len(mv_set), width), zero_column, dtype=np.intp)
    lengths = np.zeros(len(mv_set), dtype=np.int64)
    for mv_index, columns in sources_by_mv.items():
        sources[mv_index, : len(columns)] = columns
        lengths[mv_index] = len(columns)
    final = np.arange(len(mv_set))
    for mv_index, target in table.redirect.items():
        final[mv_index] = target
    final_mv = final[assignment]
    rows = np.take_along_axis(values, sources[final_mv], axis=1)
    return rows, lengths[final_mv]


def _emit(
    rows: np.ndarray, lengths: np.ndarray, sequence: np.ndarray
) -> tuple[bytes, int]:
    """Concatenate ``rows[sequence]`` into MSB-first packed bytes.

    Returns ``(payload, bit count)``; the final partial byte is
    zero-padded.  Bits that do not fill a whole byte at the end of a
    chunk carry over into the next one.
    """
    valid = np.arange(rows.shape[1]) < lengths[:, None]
    packed = []
    carry = np.empty(0, dtype=np.uint8)
    n_bits = 0
    for start in range(0, len(sequence), _EMIT_CHUNK_BLOCKS):
        chunk = np.asarray(sequence[start : start + _EMIT_CHUNK_BLOCKS])
        bits = rows[chunk][valid[chunk]]
        n_bits += bits.size
        bits = np.concatenate([carry, bits])
        whole = bits.size - bits.size % 8
        packed.append(np.packbits(bits[:whole]).tobytes())
        carry = bits[whole:]
    packed.append(np.packbits(carry).tobytes())
    return b"".join(packed), n_bits
