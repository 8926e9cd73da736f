"""Bit-level I/O for the on-chip decoder model and bit-string helpers.

The compressed test data produced by code-based compression is a plain
bit string (codewords followed by fill bits).  ``BitWriter`` accumulates
bits most-significant-first into a compact :class:`bytearray`;
``BitReader`` replays them in the same order, which is exactly what a
serial on-chip decoder would see on its input pin.  The compressor
builds its payload in the same MSB-first layout with array operations
(:mod:`repro.core.compressor`), not through ``BitWriter``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["BitWriter", "BitReader", "bits_from_string", "bits_to_string"]


def bits_from_string(text: str) -> list[int]:
    """Parse a string such as ``"0110"`` into a list of 0/1 integers.

    Spaces and underscores are ignored so callers can group digits for
    readability (``"110 01"``).

    >>> bits_from_string("110 01")
    [1, 1, 0, 0, 1]
    """
    bits = []
    for ch in text:
        if ch in " _":
            continue
        if ch not in "01":
            raise ValueError(f"invalid bit character {ch!r} in {text!r}")
        bits.append(1 if ch == "1" else 0)
    return bits


def bits_to_string(bits: Iterable[int]) -> str:
    """Render an iterable of 0/1 integers as a compact string.

    >>> bits_to_string([1, 0, 1])
    '101'
    """
    out = []
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"invalid bit value {bit!r}")
        out.append("1" if bit else "0")
    return "".join(out)


class BitWriter:
    """Accumulate single bits into a byte buffer, MSB first.

    >>> w = BitWriter()
    >>> w.write_bits([1, 0, 1, 1])
    >>> w.bit_length
    4
    >>> w.to_bitstring()
    '1011'
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._bit_count = 0

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._bit_count

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"invalid bit value {bit!r}")
        byte_index, bit_index = divmod(self._bit_count, 8)
        if bit_index == 0:
            self._buffer.append(0)
        if bit:
            self._buffer[byte_index] |= 0x80 >> bit_index
        self._bit_count += 1

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append a sequence of bits in order.

        Bulk counterpart of :meth:`write_bit` with the buffer and
        cursor hoisted into locals.  The compressor does not write
        through here: it packs whole streams with ``np.packbits``.
        """
        buffer = self._buffer
        position = self._bit_count
        for bit in bits:
            if bit not in (0, 1):
                self._bit_count = position
                raise ValueError(f"invalid bit value {bit!r}")
            if position & 7 == 0:
                buffer.append(0)
            if bit:
                buffer[position >> 3] |= 0x80 >> (position & 7)
            position += 1
        self._bit_count = position

    def write_bitstring(self, text: str) -> None:
        """Append bits given as a string such as ``"0110"``."""
        self.write_bits(bits_from_string(text))

    def getvalue(self) -> bytes:
        """Return the packed bytes (final partial byte zero-padded)."""
        return bytes(self._buffer)

    def to_bitstring(self) -> str:
        """Return all written bits as a 0/1 string (no padding)."""
        return bits_to_string(self)

    def __iter__(self) -> Iterator[int]:
        for position in range(self._bit_count):
            byte_index, bit_index = divmod(position, 8)
            yield (self._buffer[byte_index] >> (7 - bit_index)) & 1

    def __len__(self) -> int:
        return self._bit_count


class BitReader:
    """Replay a bit stream produced by :class:`BitWriter`.

    >>> w = BitWriter(); w.write_bitstring("10110")
    >>> r = BitReader(w.getvalue(), w.bit_length)
    >>> [r.read_bit() for _ in range(5)]
    [1, 0, 1, 1, 0]
    >>> r.exhausted
    True
    """

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = bytes(data)
        max_bits = len(self._data) * 8
        if bit_length is None:
            bit_length = max_bits
        if not 0 <= bit_length <= max_bits:
            raise ValueError(
                f"bit_length {bit_length} out of range for {len(self._data)} bytes"
            )
        self._bit_length = bit_length
        self._position = 0

    @classmethod
    def from_writer(cls, writer: BitWriter) -> "BitReader":
        """Build a reader over everything ``writer`` has produced."""
        return cls(writer.getvalue(), writer.bit_length)

    @classmethod
    def from_bitstring(cls, text: str) -> "BitReader":
        """Build a reader from a 0/1 string."""
        writer = BitWriter()
        writer.write_bitstring(text)
        return cls.from_writer(writer)

    @property
    def bit_length(self) -> int:
        """Total number of readable bits."""
        return self._bit_length

    @property
    def position(self) -> int:
        """Index of the next bit to be read."""
        return self._position

    @property
    def remaining(self) -> int:
        """Number of bits left to read."""
        return self._bit_length - self._position

    @property
    def exhausted(self) -> bool:
        """True once every bit has been consumed."""
        return self._position >= self._bit_length

    def read_bit(self) -> int:
        """Consume and return the next bit."""
        if self._position >= self._bit_length:
            raise EOFError("bit stream exhausted")
        byte_index, bit_index = divmod(self._position, 8)
        self._position += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, count: int) -> list[int]:
        """Consume and return the next ``count`` bits."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.read_bit() for _ in range(count)]
