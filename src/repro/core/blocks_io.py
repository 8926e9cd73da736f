"""Out-of-core block tables: on-disk `.npy` arrays behind ``BlockSet``.

:meth:`BlockSet.from_trit_array` materializes the whole trit string in
RAM before deduplicating — fine for the paper's circuits (kilobits),
hopeless for synthetic D≈10⁵-scale stress workloads whose *unpacked*
form runs to hundreds of megabytes.  This module keeps such tables on
disk end to end:

* :func:`save_block_table` / :func:`load_block_table` persist a block
  set as a directory of plain ``.npy`` arrays plus a ``meta.json``;
  loading memory-maps every array (``np.load(..., mmap_mode="r")``),
  so the returned :class:`~repro.core.blocks.BlockSet` is a drop-in
  read-only view whose resident footprint is whatever the OS pages in.
  ``np.memmap`` is an ``ndarray`` subclass, so every consumer of the
  existing ``prepare()`` contract works unchanged — and the bitpack
  kernel's D-axis shard loop then *streams* the table from disk one
  cache-sized shard at a time (see ``kernels/bitpack.py``).
* :class:`StreamingBlockTableBuilder` builds such a table from trit
  chunks without ever holding the full string: each ``feed()`` chunk
  is packed, deduplicated locally and merged into a D-bounded global
  index, while the sequence streams to a temporary file.  Peak RAM is
  O(D + chunk), not O(n_blocks·K).

The builder's :meth:`~StreamingBlockTableBuilder.finalize` puts the
distinct table in canonical order through the same
:func:`~repro.core.blocks.unique_rows` helper that
``BlockSet.from_trit_array`` uses (``np.unique(axis=0)``'s order, from
one ``np.lexsort``), so a streamed build is *array-for-array
identical* to the in-memory one on the same trits — pinned by test,
and the property that makes out-of-core pricing trivially byte-parity
with in-memory pricing.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from ..io_utils import atomic_write_json
from .blocks import (
    BlockSet,
    mask_word_count,
    pack_bits_to_words,
    unique_rows,
)
from .trits import DC, ONE, ZERO

__all__ = [
    "BLOCK_TABLE_FORMAT",
    "BLOCK_TABLE_VERSION",
    "StreamingBlockTableBuilder",
    "load_block_table",
    "save_block_table",
]

BLOCK_TABLE_FORMAT = "repro-block-table"
BLOCK_TABLE_VERSION = 1

_ARRAY_NAMES = ("ones", "zeros", "counts", "sequence")

# Trit elements per streamed sequence-rewrite chunk in finalize();
# bounds the resident slice of the (possibly huge) sequence array.
_SEQUENCE_CHUNK = 1 << 20


def save_block_table(blocks: BlockSet, directory: Path | str) -> Path:
    """Persist ``blocks`` as ``directory/{meta.json, *.npy}``.

    The arrays are written with :func:`np.save` (one file each) so
    :func:`load_block_table` can hand them back as memory maps.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _ARRAY_NAMES:
        np.save(directory / f"{name}.npy", np.asarray(getattr(blocks, name)))
    atomic_write_json(
        directory / "meta.json",
        {
            "format": BLOCK_TABLE_FORMAT,
            "version": BLOCK_TABLE_VERSION,
            "block_length": blocks.block_length,
            "original_bits": blocks.original_bits,
            "n_distinct": blocks.n_distinct,
            "n_blocks": blocks.n_blocks,
        },
    )
    return directory


def load_block_table(directory: Path | str, mmap: bool = True) -> BlockSet:
    """Load a persisted block table, memory-mapped by default.

    With ``mmap=True`` the mask/count/sequence arrays are read-only
    ``np.memmap`` views — the table's resident footprint is bounded by
    what consumers actually touch, not by its size.  ``mmap=False``
    reads everything into RAM (small tables, or writable copies).
    """
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    if meta.get("format") != BLOCK_TABLE_FORMAT:
        raise ValueError(f"{directory} is not a {BLOCK_TABLE_FORMAT} directory")
    if meta.get("version") != BLOCK_TABLE_VERSION:
        raise ValueError(
            f"block table version {meta.get('version')!r}, "
            f"expected {BLOCK_TABLE_VERSION}"
        )
    mode = "r" if mmap else None
    arrays = {
        name: np.load(directory / f"{name}.npy", mmap_mode=mode)
        for name in _ARRAY_NAMES
    }
    return BlockSet(
        block_length=int(meta["block_length"]),
        original_bits=int(meta["original_bits"]),
        **arrays,
    )


class StreamingBlockTableBuilder:
    """Build an on-disk block table from trit chunks, RAM-bounded by D.

    Feed the test-set string in arbitrary-length chunks (values
    0/1/2); each chunk is packed and deduplicated against a global
    distinct index, and the block sequence streams to a temporary
    file.  ``finalize()`` writes the table under ``directory`` in
    canonical (:func:`~repro.core.blocks.unique_rows`) order and
    returns the memory-mapped :class:`BlockSet` — identical, array for
    array, to what ``BlockSet.from_trit_array`` would build from the
    concatenated chunks.
    """

    def __init__(self, block_length: int, directory: Path | str) -> None:
        self._word_count = mask_word_count(block_length)  # validates K
        self._block_length = block_length
        self._directory = Path(directory)
        self._index: dict[bytes, int] = {}  # packed row -> first-seen id
        self._rows: list[np.ndarray] = []  # (2W,) uint64 per distinct
        self._counts: list[int] = []
        self._original_bits = 0
        self._n_blocks = 0
        self._remainder = np.empty(0, dtype=np.int8)
        self._sequence_spool = tempfile.TemporaryFile()
        self._finalized = False

    @property
    def n_distinct(self) -> int:
        """Distinct blocks seen so far — the builder's RAM bound."""
        return len(self._rows)

    def feed(self, trits) -> None:
        """Ingest the next chunk of the test-set trit string."""
        if self._finalized:
            raise RuntimeError("builder already finalized")
        array = np.asarray(trits, dtype=np.int8).ravel()
        self._original_bits += int(array.size)
        self._ingest(array)

    def _ingest(self, array: np.ndarray) -> None:
        if self._remainder.size:
            array = np.concatenate([self._remainder, array])
        usable = (array.size // self._block_length) * self._block_length
        self._remainder = array[usable:].copy()
        if not usable:
            return
        grid = array[:usable].reshape(-1, self._block_length)
        ones = pack_bits_to_words(grid == ONE)
        zeros = pack_bits_to_words(grid == ZERO)
        pairs = np.concatenate([ones, zeros], axis=1)  # (C, 2W)
        local_rows, local_inverse, _ = unique_rows(pairs)
        # Merge chunk-local uniques into the global first-seen index;
        # the loop runs over chunk-*distinct* rows only.
        global_ids = np.empty(len(local_rows), dtype=np.int64)
        for local_id, row in enumerate(local_rows):
            key = row.tobytes()
            global_id = self._index.get(key)
            if global_id is None:
                global_id = len(self._rows)
                self._index[key] = global_id
                self._rows.append(row)
                self._counts.append(0)
            global_ids[local_id] = global_id
        chunk_sequence = global_ids[local_inverse]
        chunk_counts = np.bincount(chunk_sequence)
        for global_id in np.flatnonzero(chunk_counts):
            self._counts[global_id] += int(chunk_counts[global_id])
        self._sequence_spool.write(
            np.ascontiguousarray(chunk_sequence, dtype=np.int64).tobytes()
        )
        self._n_blocks += len(chunk_sequence)

    def finalize(self) -> BlockSet:
        """Write the table under ``directory``; the memory-mapped result."""
        if self._finalized:
            raise RuntimeError("builder already finalized")
        # X-pad the tail exactly like BlockSet.from_trit_array (padding
        # is not part of original_bits).
        if self._remainder.size:
            padding = self._block_length - self._remainder.size
            self._ingest(np.full(padding, DC, dtype=np.int8))
        self._finalized = True

        n_distinct = len(self._rows)
        words = self._word_count
        if n_distinct:
            rows = np.vstack(self._rows)  # (D, 2W), first-seen order
        else:
            rows = np.empty((0, 2 * words), dtype=np.uint64)
        # Canonical order: the helper that orders in-memory builds
        # sorts the (already distinct) rows, so streamed and in-memory
        # builds of the same trits are array-identical by construction;
        # the inverse map is each first-seen id's new position.
        sorted_rows, new_id_of_old, _ = unique_rows(rows)
        old_id_of_new = np.empty(n_distinct, dtype=np.int64)
        old_id_of_new[new_id_of_old] = np.arange(n_distinct)
        counts = np.asarray(self._counts, dtype=np.int64)[old_id_of_new]
        ones = np.ascontiguousarray(sorted_rows[:, :words])
        zeros = np.ascontiguousarray(sorted_rows[:, words:])
        if words == 1:
            ones = ones[:, 0]
            zeros = zeros[:, 0]

        directory = self._directory
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "ones.npy", ones)
        np.save(directory / "zeros.npy", zeros)
        np.save(directory / "counts.npy", counts)
        # Rewrite the spooled first-seen sequence through the id remap
        # in bounded chunks, straight into the final .npy memmap.
        sequence = np.lib.format.open_memmap(
            directory / "sequence.npy",
            mode="w+",
            dtype=np.int32,
            shape=(self._n_blocks,),
        )
        self._sequence_spool.seek(0)
        position = 0
        while True:
            raw = self._sequence_spool.read(_SEQUENCE_CHUNK * 8)
            if not raw:
                break
            chunk = np.frombuffer(raw, dtype=np.int64)
            sequence[position : position + chunk.size] = new_id_of_old[chunk]
            position += chunk.size
        sequence.flush()
        del sequence
        self._sequence_spool.close()

        atomic_write_json(
            directory / "meta.json",
            {
                "format": BLOCK_TABLE_FORMAT,
                "version": BLOCK_TABLE_VERSION,
                "block_length": self._block_length,
                "original_bits": self._original_bits,
                "n_distinct": n_distinct,
                "n_blocks": self._n_blocks,
            },
        )
        return load_block_table(directory)
