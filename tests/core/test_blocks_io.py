"""Out-of-core block tables: on-disk format, streaming build, memmaps.

Three contracts:

* :func:`save_block_table`/:func:`load_block_table` roundtrip a
  :class:`BlockSet` through a directory of ``.npy`` files, loading as
  memory-maps that behave identically to in-RAM arrays everywhere
  downstream (the ``prepare()`` contract).
* :class:`StreamingBlockTableBuilder` fed arbitrary chunk sizes
  produces a table *array-identical* to ``BlockSet.from_trit_array``
  over the concatenated stream — same canonical distinct-row order,
  same counts, same sequence — so out-of-core construction can never
  move a rate.
* A memmapped table prices end-to-end through the kernels with
  resident memory bounded well below the table's on-disk size (the
  subprocess RSS test at the bottom).
"""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.blocks import BlockSet
from repro.core.blocks_io import (
    BLOCK_TABLE_VERSION,
    StreamingBlockTableBuilder,
    load_block_table,
    save_block_table,
)
from repro.core.fitness import BatchCompressionRateFitness
from repro.core.kernels import get_kernel, kernel_unavailable_reason

from ..conftest import subprocess_environment

NATIVE_UNAVAILABLE = kernel_unavailable_reason("native")
requires_native = pytest.mark.skipif(
    NATIVE_UNAVAILABLE is not None,
    reason=f"native kernel unavailable: {NATIVE_UNAVAILABLE}",
)


def random_trits(rng, n):
    return rng.integers(0, 3, n).astype(np.int8)


def assert_tables_identical(ours: BlockSet, reference: BlockSet):
    assert ours.block_length == reference.block_length
    assert ours.original_bits == reference.original_bits
    for name in ("ones", "zeros", "counts", "sequence"):
        mine = np.asarray(getattr(ours, name))
        theirs = np.asarray(getattr(reference, name))
        assert mine.dtype == theirs.dtype, name
        assert (mine == theirs).all(), name


class TestSaveLoadRoundtrip:
    def test_roundtrip_memmap_and_ram(self, tmp_path):
        rng = np.random.default_rng(0)
        blocks = BlockSet.from_trit_array(random_trits(rng, 4000), 8)
        save_block_table(blocks, tmp_path / "table")
        for mmap in (True, False):
            loaded = load_block_table(tmp_path / "table", mmap=mmap)
            assert_tables_identical(loaded, blocks)
            assert isinstance(np.asarray(loaded.ones), np.ndarray)
            if mmap:
                assert isinstance(loaded.ones, np.memmap)

    def test_wide_blocks_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        blocks = BlockSet.from_trit_array(random_trits(rng, 70 * 40), 70)
        save_block_table(blocks, tmp_path / "wide")
        assert_tables_identical(
            load_block_table(tmp_path / "wide"), blocks
        )

    def test_rejects_missing_directory(self, tmp_path):
        with pytest.raises((OSError, ValueError)):
            load_block_table(tmp_path / "absent")

    def test_rejects_foreign_format(self, tmp_path):
        rng = np.random.default_rng(0)
        blocks = BlockSet.from_trit_array(random_trits(rng, 800), 8)
        target = tmp_path / "table"
        save_block_table(blocks, target)
        meta = json.loads((target / "meta.json").read_text())
        meta["format"] = "something-else"
        (target / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            load_block_table(target)

    def test_rejects_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        blocks = BlockSet.from_trit_array(random_trits(rng, 800), 8)
        target = tmp_path / "table"
        save_block_table(blocks, target)
        meta = json.loads((target / "meta.json").read_text())
        meta["version"] = BLOCK_TABLE_VERSION + 1
        (target / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_block_table(target)


class TestStreamingBuilder:
    @pytest.mark.parametrize("block_length", (8, 11, 70))
    @pytest.mark.parametrize("chunk", (1, 7, 997, 100_000))
    def test_identical_to_from_trit_array(self, tmp_path, block_length, chunk):
        rng = np.random.default_rng(11)
        trits = random_trits(rng, 40_003)  # odd: exercises tail padding
        reference = BlockSet.from_trit_array(trits, block_length)
        builder = StreamingBlockTableBuilder(block_length, tmp_path / "t")
        for start in range(0, trits.size, chunk):
            builder.feed(trits[start : start + chunk])
        assert_tables_identical(builder.finalize(), reference)

    def test_low_entropy_stream_dedups(self, tmp_path):
        trits = np.tile(
            np.array([0, 1, 2, 1, 0, 2, 0, 1], dtype=np.int8), 500
        )
        builder = StreamingBlockTableBuilder(8, tmp_path / "t")
        builder.feed(trits)
        table = builder.finalize()
        assert table.n_distinct == 1
        assert np.asarray(table.counts)[0] == 500

    def test_builder_output_loads_back(self, tmp_path):
        rng = np.random.default_rng(5)
        trits = random_trits(rng, 8_000)
        builder = StreamingBlockTableBuilder(8, tmp_path / "t")
        builder.feed(trits)
        built = builder.finalize()
        assert_tables_identical(
            load_block_table(tmp_path / "t"),
            BlockSet.from_trit_array(trits, 8),
        )
        assert_tables_identical(built, BlockSet.from_trit_array(trits, 8))


class TestMemmapPricingParity:
    """np.memmap tables behave identically through prepare() and the
    kernels — the bitpack lane build spills to a disk-backed buffer
    but the lanes themselves are bit-identical."""

    @pytest.mark.parametrize(
        "kernel_name",
        ("auto", "bitpack", pytest.param("native", marks=requires_native)),
    )
    def test_prepare_and_price_from_memmap(self, tmp_path, kernel_name):
        rng = np.random.default_rng(29)
        trits = random_trits(rng, 24_000)
        ram = BlockSet.from_trit_array(trits, 8)
        save_block_table(ram, tmp_path / "table")
        mapped = load_block_table(tmp_path / "table")
        genomes = rng.integers(0, 3, size=(16, 5 * 8), dtype=np.int8)
        rates = {}
        for label, blocks in (("ram", ram), ("memmap", mapped)):
            fitness = BatchCompressionRateFitness(
                blocks, n_vectors=5, block_length=8,
                kernel=kernel_name,
            )
            rates[label] = fitness.evaluate_batch(genomes)
        assert (rates["ram"] == rates["memmap"]).all()

    def test_bitpack_lanes_spill_to_disk_for_memmap_input(self, tmp_path):
        rng = np.random.default_rng(31)
        ram = BlockSet.from_trit_array(random_trits(rng, 24_000), 8)
        save_block_table(ram, tmp_path / "table")
        mapped = load_block_table(tmp_path / "table")
        kernel = get_kernel("bitpack")
        from_ram = kernel.prepare(ram)
        from_map = kernel.prepare(mapped)
        assert not isinstance(from_ram.block_lanes, np.memmap)
        assert isinstance(from_map.block_lanes, np.memmap)
        assert (
            np.asarray(from_ram.block_lanes)
            == np.asarray(from_map.block_lanes)
        ).all()


RSS_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.core.blocks_io import load_block_table
    from repro.core.fitness import BatchCompressionRateFitness

    blocks = load_block_table(sys.argv[1])
    fitness = BatchCompressionRateFitness(
        blocks, n_vectors=4, block_length=64, kernel="bitpack",
    )
    rng = np.random.default_rng(0)
    genomes = rng.integers(0, 3, size=(8, 4 * 64), dtype=np.int8)
    rates = fitness.evaluate_batch(genomes)
    assert np.isfinite(rates).all()
    # VmHWM (peak resident set, KiB) — unlike ru_maxrss it resets on
    # exec, so it measures THIS process, not the forking parent.
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM"))
    print(int(line.split()[1]) * 1024)
    """
)


@pytest.mark.slow
def test_large_table_prices_with_bounded_rss(tmp_path):
    """A D≈10⁵ table whose on-disk size dwarfs the pricing working set
    is priced end-to-end by a subprocess whose peak RSS stays well
    below the table size — the memory-mapped arrays stream from disk
    instead of being resident."""
    rng = np.random.default_rng(42)
    n_distinct, block_length = 100_000, 64
    # Synthesize the distinct table directly (cheap, no canonical-sort
    # requirement for pricing) and give it a long block sequence — the
    # bulk of the on-disk bytes.
    ones = rng.integers(0, 2**63, size=(n_distinct, 1), dtype=np.uint64)
    zeros = (~ones) & rng.integers(
        0, 2**63, size=(n_distinct, 1), dtype=np.uint64
    )
    n_sequence = 40_000_000
    sequence = rng.integers(0, n_distinct, size=n_sequence, dtype=np.int32)
    blocks = BlockSet(
        block_length=block_length,
        original_bits=n_sequence * block_length,
        ones=ones,
        zeros=zeros,
        counts=np.bincount(sequence, minlength=n_distinct).astype(np.int64),
        sequence=sequence,
    )
    table_dir = tmp_path / "big"
    save_block_table(blocks, table_dir)
    table_bytes = sum(
        file.stat().st_size for file in table_dir.iterdir()
    )
    assert table_bytes > 150 * 2**20  # the sequence alone is ~152 MiB
    result = subprocess.run(
        [sys.executable, "-c", RSS_SCRIPT, str(table_dir)],
        capture_output=True, text=True, check=True,
        env=subprocess_environment(),
    )
    peak_rss = int(result.stdout.strip())
    # Well below the table: the child's working set (~90 MiB, mostly
    # interpreter + numpy + the D-bounded pricing arrays) is flat in
    # the sequence length; an in-RAM load would add the full table.
    assert peak_rss < table_bytes * 0.75
