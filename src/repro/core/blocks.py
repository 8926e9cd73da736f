"""Input blocks: partitioning the test-set string into K-bit pieces.

The paper concatenates all test patterns into one string
``t1 t2 ... t_{T·n}`` over ``{0, 1, X}`` and splits it into fixed-length
*input blocks* of ``K`` trits (padding the tail with ``X``).  Matching
and covering only ever ask "does MV *v* match block *b*", so blocks are
stored as a pair of bitmasks:

* ``ones``  — bit set where the block has a specified 1,
* ``zeros`` — bit set where the block has a specified 0,

with ``X`` positions in neither mask.  An MV with masks
``(mv_ones, mv_zeros)`` matches a block iff
``(ones & mv_zeros) == 0 and (zeros & mv_ones) == 0`` — a pair of
AND/compare operations instead of a per-position loop.

Masks are stored as little-endian ``uint64`` *words*: a K-trit block
packs into ``ceil(K / 64)`` words, where word 0 holds the least
significant 64 bits of the K-bit integer whose position-0 trit has
weight ``2**(K-1)``.  For ``K <= 64`` that is exactly the historical
single-``uint64`` layout and masks stay one-dimensional ``(D,)``
arrays; wider blocks use ``(D, W)`` word arrays.  The word helpers
(:func:`mask_word_count`, :func:`pack_bits_to_words`,
:func:`int_to_words`, :func:`words_to_int`) are shared by the covering
kernels in :mod:`repro.core.kernels`.

Real test sets repeat blocks heavily, so :class:`BlockSet` stores the
*distinct* blocks with multiplicities plus the original sequence as
indices into the distinct table.  EA fitness evaluation (thousands of
coverings per run) works on the distinct table only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .trits import DC, ONE, ZERO, format_trits, parse_trits, trits_to_array

__all__ = [
    "WORD_BITS",
    "BlockSet",
    "block_table_digest",
    "int_to_words",
    "mask_word_count",
    "masks_as_words",
    "pack_bits_to_words",
    "pack_trits",
    "unique_rows",
    "unpack_masks",
    "unpack_words_to_bits",
    "words_to_int",
]

WORD_BITS = 64  # one mask word; K > 64 simply uses more words


def mask_word_count(block_length: int) -> int:
    """Number of uint64 words needed for ``block_length``-trit masks.

    >>> mask_word_count(12), mask_word_count(64), mask_word_count(96)
    (1, 1, 2)
    """
    if block_length < 1:
        raise ValueError(f"block length must be >= 1, got {block_length}")
    return -(-block_length // WORD_BITS)


def _bit_weights(block_length: int) -> np.ndarray:
    """Per-position uint64 weights; position 0 (leftmost) is the MSB.

    Only valid for single-word masks (``block_length <= 64``); wider
    blocks go through :func:`pack_bits_to_words`.
    """
    shifts = np.arange(block_length - 1, -1, -1, dtype=np.uint64)
    return np.left_shift(np.uint64(1), shifts)


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., K)`` 0/1 array into ``(..., W)`` uint64 words.

    Position 0 of the last axis is the most significant bit of the
    K-bit value; the output words are little-endian (word 0 = least
    significant), so for ``K <= 64`` the single output word equals the
    historical flat mask.

    >>> pack_bits_to_words(np.array([1, 0, 1])).tolist()
    [5]
    """
    bits = np.asarray(bits)
    block_length = bits.shape[-1]
    n_words = mask_word_count(block_length)
    if n_words == 1:
        weights = _bit_weights(block_length)
        return (bits * weights).sum(axis=-1, dtype=np.uint64)[..., None]
    pad = n_words * WORD_BITS - block_length
    if pad:
        pad_widths = [(0, 0)] * (bits.ndim - 1) + [(pad, 0)]
        bits = np.pad(bits, pad_widths)
    grouped = bits.reshape(bits.shape[:-1] + (n_words, WORD_BITS))
    word_weights = _bit_weights(WORD_BITS)
    big_endian = (grouped * word_weights).sum(axis=-1, dtype=np.uint64)
    return big_endian[..., ::-1]


def unpack_words_to_bits(words: np.ndarray, block_length: int) -> np.ndarray:
    """Invert :func:`pack_bits_to_words`: ``(..., W)`` words → ``(..., K)``.

    Returns a uint8 0/1 array with position 0 (the MSB) first.
    """
    # Most significant word first, each word's bytes big-endian: the
    # K-bit value is then the last K bits of one MSB-first bit string.
    big_endian = np.ascontiguousarray(
        np.asarray(words, dtype=np.uint64)[..., ::-1], dtype=">u8"
    )
    bits = np.unpackbits(big_endian.view(np.uint8), axis=-1)
    return bits[..., bits.shape[-1] - block_length :]


def int_to_words(value: int, n_words: int) -> tuple[int, ...]:
    """Split an arbitrary-precision mask into little-endian words.

    >>> int_to_words(5, 2)
    (5, 0)
    """
    mask = (1 << WORD_BITS) - 1
    return tuple((value >> (WORD_BITS * w)) & mask for w in range(n_words))


def words_to_int(words) -> int:
    """Rebuild the arbitrary-precision mask from little-endian words."""
    value = 0
    for index, word in enumerate(words):
        value |= int(word) << (WORD_BITS * index)
    return value


def pack_trits(trits) -> tuple[int, int]:
    """Pack a trit sequence into ``(ones, zeros)`` integer masks.

    The masks are arbitrary-precision Python ints, so any block length
    works; position 0 carries weight ``2**(K-1)``.

    >>> pack_trits(parse_trits("10X"))
    (4, 2)
    """
    array = trits_to_array(trits)
    if array.size == 0:
        return 0, 0
    ones = words_to_int(pack_bits_to_words(array == ONE))
    zeros = words_to_int(pack_bits_to_words(array == ZERO))
    return ones, zeros


def unpack_masks(ones: int, zeros: int, block_length: int) -> tuple[int, ...]:
    """Invert :func:`pack_trits`: masks back to a trit tuple.

    >>> unpack_masks(4, 2, 3)
    (1, 0, 2)
    """
    if ones & zeros:
        raise ValueError("ones and zeros masks overlap")
    trits = []
    for position in range(block_length):
        bit = 1 << (block_length - 1 - position)
        if ones & bit:
            trits.append(ONE)
        elif zeros & bit:
            trits.append(ZERO)
        else:
            trits.append(DC)
    return tuple(trits)


def masks_as_words(masks: np.ndarray) -> np.ndarray:
    """View a mask array in canonical word form ``(N, W)``.

    Single-word masks are stored flat ``(N,)``; this reshapes either
    storage to two dimensions without copying.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    if masks.ndim == 1:
        return masks.reshape(-1, 1)
    return masks


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array in canonical order, with inverse and counts.

    The canonical order is ``np.unique(rows, axis=0)``'s: rows compared
    column by column from column 0, each entry as a number.  Returns
    ``(distinct, inverse, counts)`` exactly as
    ``np.unique(rows, axis=0, return_inverse=True, return_counts=True)``
    would (``inverse`` one-dimensional, both index arrays ``int64``),
    but from one ``np.lexsort`` over the columns and the run starts of
    the sorted rows, instead of a sort of a structured-dtype view.
    Every block table's distinct order comes from here, so the
    in-memory and streamed builds agree by construction.

    >>> distinct, inverse, counts = unique_rows(np.array([[2, 1], [1, 5], [2, 1]]))
    >>> distinct.tolist(), inverse.tolist(), counts.tolist()
    ([[1, 5], [2, 1]], [1, 0, 1], [1, 2])
    """
    rows = np.asarray(rows)
    n_rows = rows.shape[0]
    if n_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return rows.copy(), empty, empty.copy()
    # lexsort's last key is the primary one, so the columns go in reversed.
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.empty(n_rows, dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(n_rows, dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    counts = np.diff(np.append(np.flatnonzero(starts), n_rows))
    return ordered[starts], inverse, counts


@dataclass(frozen=True)
class BlockSet:
    """The input blocks of one test set, uniquified with multiplicities.

    Attributes
    ----------
    block_length:
        ``K``, the number of trits per input block (any positive
        length; wide blocks use multi-word masks).
    original_bits:
        Length of the test-set string *before* X-padding — the
        "test set size" column of the paper's tables (``T·n``).
    counts:
        Multiplicity of each distinct block (``int64``).
    ones, zeros:
        ``uint64`` masks of each distinct block: flat ``(D,)`` arrays
        for ``K <= 64``, little-endian ``(D, W)`` word arrays for
        wider blocks.  :attr:`ones_words`/:attr:`zeros_words` expose
        the uniform two-dimensional view.
    sequence:
        For each block position in the test set, the index of its
        distinct block (``int32``); preserves order for the actual
        bitstream emission.
    """

    block_length: int
    original_bits: int
    ones: np.ndarray = field(repr=False)
    zeros: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    sequence: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError(
                f"block length must be >= 1, got {self.block_length}"
            )
        if self.original_bits < 0:
            raise ValueError("original_bits must be non-negative")
        if not (len(self.ones) == len(self.zeros) == len(self.counts)):
            raise ValueError("distinct-block arrays must have equal length")

    @classmethod
    def from_trit_array(cls, trits: np.ndarray, block_length: int) -> "BlockSet":
        """Partition a flat trit array (values 0/1/2) into K-blocks.

        The tail is padded with don't-cares, exactly as the paper pads
        the test-set string with ``X`` values.
        """
        n_words = mask_word_count(block_length)  # validates block_length
        array = np.asarray(trits, dtype=np.int8)
        if array.ndim != 1:
            raise ValueError("trit array must be one-dimensional")
        original_bits = int(array.size)
        remainder = original_bits % block_length
        if remainder:
            padding = np.full(block_length - remainder, DC, dtype=np.int8)
            array = np.concatenate([array, padding])
        if array.size == 0:
            empty_shape = 0 if n_words == 1 else (0, n_words)
            empty_u64 = np.empty(empty_shape, dtype=np.uint64)
            return cls(
                block_length=block_length,
                original_bits=0,
                ones=empty_u64,
                zeros=empty_u64.copy(),
                counts=np.empty(0, dtype=np.int64),
                sequence=np.empty(0, dtype=np.int32),
            )
        grid = array.reshape(-1, block_length)
        ones_words = pack_bits_to_words(grid == ONE)
        zeros_words = pack_bits_to_words(grid == ZERO)
        pairs = np.concatenate([ones_words, zeros_words], axis=1)
        distinct, inverse, counts = unique_rows(pairs)
        distinct_ones = np.ascontiguousarray(distinct[:, :n_words])
        distinct_zeros = np.ascontiguousarray(distinct[:, n_words:])
        if n_words == 1:
            distinct_ones = distinct_ones[:, 0]
            distinct_zeros = distinct_zeros[:, 0]
        return cls(
            block_length=block_length,
            original_bits=original_bits,
            ones=distinct_ones,
            zeros=distinct_zeros,
            counts=counts,
            sequence=inverse.astype(np.int32),
        )

    @classmethod
    def from_string(cls, text: str, block_length: int) -> "BlockSet":
        """Partition a ``0/1/X`` string into K-blocks.

        >>> bs = BlockSet.from_string("01X 10X 01X", 3)
        >>> bs.n_blocks, bs.n_distinct
        (3, 2)
        """
        return cls.from_trit_array(
            np.asarray(parse_trits(text), dtype=np.int8), block_length
        )

    @property
    def n_blocks(self) -> int:
        """Total number of input blocks (after padding)."""
        return int(self.sequence.size)

    @property
    def n_distinct(self) -> int:
        """Number of distinct input blocks."""
        return int(self.counts.size)

    @property
    def word_count(self) -> int:
        """``W`` — uint64 words per mask (1 for ``K <= 64``)."""
        return mask_word_count(self.block_length)

    @property
    def ones_words(self) -> np.ndarray:
        """Ones masks in uniform ``(D, W)`` word form."""
        return masks_as_words(self.ones)

    @property
    def zeros_words(self) -> np.ndarray:
        """Zeros masks in uniform ``(D, W)`` word form."""
        return masks_as_words(self.zeros)

    @property
    def padded_bits(self) -> int:
        """Length of the padded test-set string."""
        return self.n_blocks * self.block_length

    def block_trits(self, distinct_index: int) -> tuple[int, ...]:
        """Trit tuple of the distinct block with the given index."""
        return unpack_masks(
            words_to_int(self.ones_words[distinct_index]),
            words_to_int(self.zeros_words[distinct_index]),
            self.block_length,
        )

    def block_string(self, distinct_index: int) -> str:
        """Human-readable form of a distinct block (``X`` for don't-care)."""
        return format_trits(self.block_trits(distinct_index), unspecified="X")

    def specified_bit_count(self) -> int:
        """Number of specified (non-X) bits across the whole test set."""
        if self.n_distinct == 0:
            return 0
        popcount = np.vectorize(lambda mask: bin(int(mask)).count("1"))
        per_block = (popcount(self.ones_words) + popcount(self.zeros_words)).sum(
            axis=1
        )
        return int((per_block * self.counts).sum())

    def care_density(self) -> float:
        """Fraction of specified bits over the padded string (0.0 if empty)."""
        if self.padded_bits == 0:
            return 0.0
        return self.specified_bit_count() / self.padded_bits

    def iter_block_strings(self):
        """Yield every block of the test set, in order, as a string."""
        for distinct_index in self.sequence:
            yield self.block_string(int(distinct_index))


def block_table_digest(blocks: BlockSet) -> str:
    """SHA-256 content digest of a block set (dtype/shape-qualified).

    K and the original bit count, then every distinct-table array with
    its dtype and shape, so two tables collide only if they are
    byte-identical in every semantic respect.  Checkpoint and Pareto
    run fingerprints and the serve registry's table keys all use it.
    """
    digest = hashlib.sha256()
    digest.update(f"K={blocks.block_length};bits={blocks.original_bits};".encode())
    for name in ("ones", "zeros", "counts", "sequence"):
        array = np.ascontiguousarray(getattr(blocks, name))
        digest.update(f"{name}:{array.dtype}:{array.shape}:".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
