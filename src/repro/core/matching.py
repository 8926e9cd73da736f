"""Matching vectors (MVs) and MV sets.

A matching vector ``v ∈ {0, 1, U}^K`` *matches* an input block ``b``
iff no position pairs a specified 0 with a specified 1 (paper,
Section 2): ``1`` matches ``1``, ``0`` matches ``0``, and ``X``/``U``
match anything.  An input block matched by ``v`` is encoded as the
codeword ``C(v)`` followed by the block's bits at the ``U`` positions
of ``v`` (the *fill bits*), so the encoding length is
``|C(v)| + NU(v)`` independent of the block.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .blocks import (
    int_to_words,
    mask_word_count,
    masks_as_words,
    pack_bits_to_words,
    pack_trits,
)
from .trits import DC, ONE, ZERO, format_trits, parse_trits, trits_to_array

__all__ = ["MatchingVector", "MVSet"]


@dataclass(frozen=True)
class MatchingVector:
    """One matching vector over ``{0, 1, U}``.

    >>> mv = MatchingVector.from_string("11U0")
    >>> mv.n_unspecified
    1
    >>> mv.matches_trits(parse_trits("1110"))
    True
    >>> mv.matches_trits(parse_trits("1111"))
    False
    """

    trits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.trits) < 1:
            raise ValueError("matching vector needs at least one position")
        if any(trit not in (0, 1, 2) for trit in self.trits):
            raise ValueError(f"invalid trit values in {self.trits!r}")

    @classmethod
    def from_string(cls, text: str) -> "MatchingVector":
        """Parse an MV from a string such as ``"11U0"`` or ``"000 111"``."""
        return cls(parse_trits(text))

    @classmethod
    def all_unspecified(cls, length: int) -> "MatchingVector":
        """The all-U vector, which matches every input block."""
        return cls((DC,) * length)

    @property
    def length(self) -> int:
        """K, the number of positions."""
        return len(self.trits)

    @property
    def ones_mask(self) -> int:
        """Bitmask of positions specified 1 (leftmost position = MSB)."""
        return pack_trits(self.trits)[0]

    @property
    def zeros_mask(self) -> int:
        """Bitmask of positions specified 0."""
        return pack_trits(self.trits)[1]

    @property
    def word_count(self) -> int:
        """``W`` — uint64 words per mask (1 for ``K <= 64``)."""
        return mask_word_count(self.length)

    @property
    def ones_words(self) -> tuple[int, ...]:
        """Ones mask as little-endian uint64 words."""
        return int_to_words(self.ones_mask, self.word_count)

    @property
    def zeros_words(self) -> tuple[int, ...]:
        """Zeros mask as little-endian uint64 words."""
        return int_to_words(self.zeros_mask, self.word_count)

    @property
    def n_unspecified(self) -> int:
        """NU(v): number of U positions = number of fill bits."""
        return sum(1 for trit in self.trits if trit == DC)

    @property
    def u_positions(self) -> tuple[int, ...]:
        """0-based indices of the U positions, in transmission order."""
        return tuple(i for i, trit in enumerate(self.trits) if trit == DC)

    @property
    def is_all_unspecified(self) -> bool:
        """True iff every position is U (matches any block)."""
        return self.n_unspecified == self.length

    def matches_masks(self, block_ones: int, block_zeros: int) -> bool:
        """Match test against a block given as ``(ones, zeros)`` masks."""
        return (block_ones & self.zeros_mask) == 0 and (
            block_zeros & self.ones_mask
        ) == 0

    def matches_trits(self, block_trits: Sequence[int]) -> bool:
        """Match test against a block given as a trit sequence."""
        if len(block_trits) != self.length:
            raise ValueError(
                f"block length {len(block_trits)} != MV length {self.length}"
            )
        ones, zeros = pack_trits(block_trits)
        return self.matches_masks(ones, zeros)

    def matches_array(
        self, block_ones: np.ndarray, block_zeros: np.ndarray
    ) -> np.ndarray:
        """Vectorized match test over arrays of block masks.

        Accepts flat ``(D,)`` single-word masks or ``(D, W)`` word
        arrays; either way the result is one boolean per block.
        """
        mv_ones = np.asarray(self.ones_words, dtype=np.uint64)
        mv_zeros = np.asarray(self.zeros_words, dtype=np.uint64)
        conflicts = (masks_as_words(block_ones) & mv_zeros) | (
            masks_as_words(block_zeros) & mv_ones
        )
        return (conflicts == 0).all(axis=-1)

    def subsumes(self, other: "MatchingVector") -> bool:
        """True iff every block matched by ``other`` is matched by ``self``.

        Positionally: wherever ``self`` is specified, ``other`` must be
        specified with the same value (``other`` having a ``U`` under a
        specified position of ``self`` admits blocks ``self`` rejects).

        >>> MatchingVector.from_string("111U").subsumes(
        ...     MatchingVector.from_string("1110"))
        True
        """
        if other.length != self.length:
            raise ValueError("matching vectors must have equal length")
        for mine, theirs in zip(self.trits, other.trits):
            if mine != DC and mine != theirs:
                return False
        return True

    def fill_bits(self, block_trits: Sequence[int], fill_default: int = 0) -> list[int]:
        """Fill bits transmitted after the codeword for ``block_trits``.

        Don't-care block positions take ``fill_default`` (the value the
        tester is free to choose).
        """
        if fill_default not in (0, 1):
            raise ValueError("fill_default must be 0 or 1")
        fills = []
        for position in self.u_positions:
            trit = block_trits[position]
            fills.append(fill_default if trit == DC else trit)
        return fills

    def __str__(self) -> str:
        return format_trits(self.trits, unspecified="U")


class MVSet:
    """An ordered collection of ``L`` matching vectors of equal length.

    The order is the *declaration* order (an EA genome or the 9C list);
    :meth:`covering_order` yields indices sorted by increasing number
    of U values — the paper's covering priority — with declaration
    order breaking ties.

    >>> mvs = MVSet.from_strings(["UUU", "000", "1U1"])
    >>> mvs.covering_order()
    [1, 2, 0]
    """

    def __init__(self, vectors: Iterable[MatchingVector]) -> None:
        self._vectors = tuple(vectors)
        if not self._vectors:
            raise ValueError("an MV set needs at least one matching vector")
        length = self._vectors[0].length
        if any(mv.length != length for mv in self._vectors):
            raise ValueError("all matching vectors must have the same length")

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "MVSet":
        """Build an MV set from strings such as ``["000", "1UU"]``."""
        return cls(MatchingVector.from_string(text) for text in texts)

    @classmethod
    def from_genome(cls, genome: np.ndarray, block_length: int) -> "MVSet":
        """Decode an EA genome (flat trit array of length L·K) into MVs."""
        array = trits_to_array(genome)
        if array.size == 0 or array.size % block_length:
            raise ValueError(
                f"genome length {array.size} is not a multiple of K={block_length}"
            )
        return cls(
            MatchingVector(tuple(int(t) for t in row))
            for row in array.reshape(-1, block_length)
        )

    def to_genome(self) -> np.ndarray:
        """Flatten the MV set back into a genome trit array."""
        return np.asarray(
            [trit for mv in self._vectors for trit in mv.trits], dtype=np.int8
        )

    @property
    def block_length(self) -> int:
        """K, the common MV length."""
        return self._vectors[0].length

    @property
    def has_all_unspecified(self) -> bool:
        """True iff some MV is all-U (covering can never fail)."""
        return any(mv.is_all_unspecified for mv in self._vectors)

    def mask_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-MV ``(ones, zeros)`` masks in canonical storage form.

        Flat ``(L,)`` uint64 arrays for ``K <= 64``, little-endian
        ``(L, W)`` word arrays for wider vectors — the same convention
        as :class:`repro.core.blocks.BlockSet`.
        """
        grid = self.to_genome().reshape(len(self), self.block_length)
        ones = pack_bits_to_words(grid == ONE)
        zeros = pack_bits_to_words(grid == ZERO)
        if mask_word_count(self.block_length) == 1:
            return ones[:, 0], zeros[:, 0]
        return ones, zeros

    def covering_order(self) -> list[int]:
        """MV indices sorted by increasing NU (stable; paper Section 3.2)."""
        return sorted(
            range(len(self._vectors)), key=lambda i: self._vectors[i].n_unspecified
        )

    def with_all_unspecified(self) -> "MVSet":
        """Return a set guaranteed to contain the all-U vector.

        If one is already present, self is returned; otherwise the
        *last* vector is replaced (the paper pins one MV to all-U so
        that no instance is unsolvable).
        """
        if self.has_all_unspecified:
            return self
        replaced = list(self._vectors)
        replaced[-1] = MatchingVector.all_unspecified(self.block_length)
        return MVSet(replaced)

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, index: int) -> MatchingVector:
        return self._vectors[index]

    def __iter__(self) -> Iterator[MatchingVector]:
        return iter(self._vectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MVSet):
            return NotImplemented
        return self._vectors == other._vectors

    def __repr__(self) -> str:
        shown = ", ".join(str(mv) for mv in self._vectors[:4])
        suffix = ", ..." if len(self._vectors) > 4 else ""
        return f"MVSet(L={len(self._vectors)}, K={self.block_length}: {shown}{suffix})"
