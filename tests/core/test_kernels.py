"""Cross-kernel parity and registry tests for ``repro.core.kernels``.

The subsystem's contract is bit-identical results from both kernels:
``bitpack`` ≡ ``native`` ≡ the reference ``cover_masks`` loop, including
the early-exit convention (uncoverable genomes report exact
``uncovered`` counts and all-zero frequency rows) and multi-word masks
(K > 64).  Every kernel is driven through the two calls the fitness
makes — ``prepare(blocks)`` and ``cover_grid(prepared, grid)`` on the
raw ``(C, L, K)`` trit grid, each kernel ordering the MVs itself.
Seeded experiments stay byte-identical no matter which kernel priced
them — these tests pin that property at the kernel, fitness, EA-run
and compressor layers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockSet, mask_word_count, pack_bits_to_words
from repro.core.compressor import compress_blocks
from repro.core.config import CompressionConfig, EAParameters
from repro.core.covering import cover_masks
from repro.core.decompressor import verify_roundtrip
from repro.core.fitness import BatchCompressionRateFitness
from repro.core.kernels import (
    BitpackKernel,
    CoveringKernel,
    NativeKernel,
    kernel_availability,
    resolve_kernel,
    select_kernel_name,
)
from repro.core.kernels import bitpack
from repro.core.kernels.base import covering_orders
from repro.core.optimizer import EAMVOptimizer
from repro.core.trits import DC, ONE, ZERO
from repro.testdata.synthetic import (
    WIDE_BLOCK_LENGTH,
    WIDE_BLOCK_SPEC,
    SyntheticSpec,
    synthetic_test_set,
    wide_block_test_set,
)

# The native kernel joins the parity suites only where it can run:
# asking availability here compiles on first use (warming the build
# cache for the whole session) and yields the skip reason otherwise.
NATIVE_UNAVAILABLE = kernel_availability()["native"]
KERNEL_NAMES = ("bitpack",) + (("native",) if NATIVE_UNAVAILABLE is None else ())
requires_native = pytest.mark.skipif(
    NATIVE_UNAVAILABLE is not None,
    reason=f"native kernel unavailable: {NATIVE_UNAVAILABLE}",
)


@pytest.fixture
def no_native(monkeypatch):
    """Force the no-compiler path for the duration of one test."""
    from repro.core.kernels import native as native_module

    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native_module._reset_native_state()
    yield
    native_module._reset_native_state()


def block_table(block_ones, block_zeros, counts, block_length):
    """A :class:`BlockSet` over explicit distinct-block masks."""
    return BlockSet(
        block_length=block_length,
        original_bits=len(counts) * block_length,
        ones=block_ones,
        zeros=block_zeros,
        counts=counts,
        sequence=np.arange(len(counts), dtype=np.int32),
    )


def random_blocks(rng, n_distinct, block_length):
    """``n_distinct`` random blocks (~half care bits) with counts 1–8."""
    bits = rng.integers(0, 2, size=(n_distinct, block_length))
    zero_bits = rng.integers(0, 2, size=(n_distinct, block_length)) & ~bits
    block_ones = pack_bits_to_words(bits)
    block_zeros = pack_bits_to_words(zero_bits)
    if mask_word_count(block_length) == 1:
        block_ones, block_zeros = block_ones[:, 0], block_zeros[:, 0]
    counts = rng.integers(1, 9, n_distinct).astype(np.int64)
    return block_table(block_ones, block_zeros, counts, block_length)


def random_workload(rng, block_length):
    """Random block table + ``(C, L, K)`` trit grid in declaration order."""
    blocks = random_blocks(rng, int(rng.integers(1, 60)), block_length)
    n_vectors = int(rng.integers(1, 14))
    n_genomes = int(rng.integers(1, 9))
    grid = rng.integers(0, 3, size=(n_genomes, n_vectors, block_length))
    return blocks, grid.astype(np.int8)


def cover_with(kernel, blocks, grid):
    """``prepare`` + ``cover_grid`` — exactly the fitness's two calls."""
    return kernel.cover_grid(kernel.prepare(blocks), grid)


def reference_order(mvs):
    """The paper's covering priority in plain Python: a stable sort of
    MV indices by U count."""
    return np.asarray(
        sorted(range(len(mvs)), key=lambda index: int((mvs[index] == DC).sum())),
        dtype=np.int64,
    )


def reference_row(blocks, grid, row):
    """``(frequencies, uncovered)`` of one genome by the reference loop,
    under the early-exit convention (uncoverable → zero frequencies)."""
    _, frequencies, uncovered = cover_masks(
        blocks.ones,
        blocks.zeros,
        blocks.counts,
        pack_bits_to_words(grid[row] == ONE),
        pack_bits_to_words(grid[row] == ZERO),
        reference_order(grid[row]),
    )
    return (np.zeros_like(frequencies) if uncovered else frequencies), uncovered


def assert_matches_reference(name, blocks, grid, result):
    frequencies, uncovered = result
    assert frequencies.shape == grid.shape[:2], name
    assert frequencies.dtype == np.int64 and uncovered.dtype == np.int64, name
    for row in range(len(grid)):
        ref_frequencies, ref_uncovered = reference_row(blocks, grid, row)
        assert uncovered[row] == ref_uncovered, (name, row)
        assert (frequencies[row] == ref_frequencies).all(), (name, row)


class TestCrossKernelParity:
    """bitpack ≡ native ≡ the reference loop, row by row."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([3, 9, 14, 33, 64, 70, 96, 130]),
    )
    def test_kernels_match_reference_loop(self, seed, block_length):
        rng = np.random.default_rng(seed)
        blocks, grid = random_workload(rng, block_length)
        for name in KERNEL_NAMES:
            assert_matches_reference(
                name, blocks, grid, cover_with(resolve_kernel(name), blocks, grid)
            )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_uncoverable_rows_early_exit_on_every_kernel(self, seed):
        rng = np.random.default_rng(seed)
        # Fully-specified complementary blocks and a single fully
        # specified MV: at most one block row can ever be covered.
        blocks = block_table(
            np.asarray([0b111111, 0b000000], dtype=np.uint64),
            np.asarray([0b000000, 0b111111], dtype=np.uint64),
            rng.integers(1, 5, 2).astype(np.int64),
            6,
        )
        grid = rng.integers(0, 2, size=(3, 1, 6)).astype(np.int8)
        results = {
            name: cover_with(resolve_kernel(name), blocks, grid)
            for name in KERNEL_NAMES
        }
        for name in KERNEL_NAMES:
            frequencies, uncovered = results[name]
            assert (uncovered > 0).all(), name
            assert (frequencies == 0).all(), name
            for ours, theirs in zip(results[name], results["bitpack"]):
                assert (ours == theirs).all(), name

    def test_empty_blocks_and_empty_batch(self):
        empty = BlockSet.from_trit_array(np.empty(0, dtype=np.int8), 4)
        all_u = np.full((3, 4, 4), DC, dtype=np.int8)
        blocks = BlockSet.from_string("0101 1X0X 0101", 4)
        for name in KERNEL_NAMES:
            kernel = resolve_kernel(name)
            frequencies, uncovered = cover_with(kernel, empty, all_u)
            assert frequencies.shape == (3, 4) and uncovered.shape == (3,), name
            assert (frequencies == 0).all() and (uncovered == 0).all(), name
            frequencies, uncovered = cover_with(kernel, blocks, all_u[:0])
            assert frequencies.shape == (0, 4) and uncovered.shape == (0,), name

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([4, 11, 64, 96]),
    )
    def test_match_columns_agree_with_reference(self, seed, block_length):
        """Standalone match columns ≡ one reference covering per MV."""
        rng = np.random.default_rng(seed)
        blocks, grid = random_workload(rng, block_length)
        mv_ones = pack_bits_to_words(grid[0] == ONE)
        mv_zeros = pack_bits_to_words(grid[0] == ZERO)
        for name in KERNEL_NAMES:
            kernel = resolve_kernel(name)
            columns = kernel.match_columns(
                kernel.prepare(blocks), mv_ones, mv_zeros
            )
            for index in range(len(mv_ones)):
                assignment, _, _ = cover_masks(
                    blocks.ones,
                    blocks.zeros,
                    blocks.counts,
                    mv_ones[index : index + 1],
                    mv_zeros[index : index + 1],
                    np.zeros(1, dtype=np.int64),
                )
                assert (columns[index] == (assignment >= 0)).all(), name

    def test_contract_is_prepare_and_cover_grid(self):
        assert CoveringKernel.__abstractmethods__ == {"prepare", "cover_grid"}
        for kernel_class in (BitpackKernel, NativeKernel):
            public = {
                name
                for name, value in vars(kernel_class).items()
                if callable(value) and not name.startswith("_")
            }
            assert public == {"prepare", "cover_grid"}, kernel_class

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=70),
    )
    def test_covering_orders_is_stable_sort_by_u_count(self, seed, n_vectors):
        rng = np.random.default_rng(seed)
        # Few distinct U counts, so most MVs tie with another.
        grid = rng.choice(3, size=(3, n_vectors, 3), p=[0.2, 0.2, 0.6])
        orders = covering_orders(grid.astype(np.int8))
        for row in range(len(grid)):
            assert (orders[row] == reference_order(grid[row])).all()


@pytest.fixture(params=[1, 2], ids=["omp1", "omp2"])
def openmp_threads(request):
    """Run the native kernel's OpenMP regions on 1 or 2 threads."""
    from repro.core.kernels.native import _load_library

    library = _load_library()[0]
    if not hasattr(library, "omp_set_num_threads"):
        pytest.skip("native kernel built without OpenMP")
    previous = library.omp_get_max_threads()
    library.omp_set_num_threads(request.param)
    yield request.param
    library.omp_set_num_threads(previous)


def edge_grid(rng, n_vectors, block_length):
    """Seven genomes at the covering edges, as one ``(7, L, K)`` grid.

    0 random trits; 1 all-U (every MV ties, the first takes every
    block); 2 one random MV repeated, last MV all-U (duplicates tie,
    only the first can win); 3 fully specified (usually uncoverable);
    4 fully specified, last MV all-U (zero-frequency MVs, often a
    single active one); 5 one U per MV (NU ties everywhere);
    6 one specified trit per MV (ties, mostly coverable).
    """
    n_genomes = 7
    grid = rng.integers(0, 2, size=(n_genomes, n_vectors, block_length))
    grid[0] = rng.integers(0, 3, size=(n_vectors, block_length))
    grid[1] = DC
    grid[2] = grid[2, :1]
    grid[2, -1] = DC
    grid[4, -1] = DC
    columns = np.arange(n_vectors) % block_length
    grid[5, np.arange(n_vectors), columns] = DC
    kept = grid[6, np.arange(n_vectors), columns]
    grid[6] = DC
    grid[6, np.arange(n_vectors), columns] = kept
    return grid.astype(np.int8)


@requires_native
class TestNativeDifferential:
    """The native raw-grid pass against bitpack and the reference loop
    at the word-size and chunk edges: K across the 32/64-bit lane
    boundaries, L across the 64-candidate chunks of the single-word
    loop, D = 1, at one and two OpenMP threads."""

    @pytest.mark.parametrize("block_length", [1, 31, 32, 33, 63, 64, 65, 96])
    def test_edges_match_bitpack_and_reference(self, openmp_threads, block_length):
        rng = np.random.default_rng([block_length, openmp_threads])
        for n_vectors in (1, 2, 63, 64, 65, 130):
            for n_distinct in (1, 41):
                blocks = random_blocks(rng, n_distinct, block_length)
                grid = edge_grid(rng, n_vectors, block_length)
                native = cover_with(NativeKernel(), blocks, grid)
                bitpack = cover_with(BitpackKernel(), blocks, grid)
                assert_matches_reference("native", blocks, grid, native)
                for ours, theirs in zip(native, bitpack):
                    assert (ours == theirs).all()
                frequencies, uncovered = native
                # The all-U genome: MV 0 wins every tie and every block.
                assert uncovered[1] == 0
                assert frequencies[1, 0] == blocks.counts.sum()
                assert (frequencies[1, 1:] == 0).all()
                # Duplicates after the first never cover a block.
                assert uncovered[2] == 0
                assert (frequencies[2, 1:-1] == 0).all()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([1, 12, 31, 32, 33, 63, 64, 65, 96]),
        st.sampled_from([1, 2, 5, 63, 64, 65, 130]),
    )
    def test_random_grids_match_bitpack(self, seed, block_length, n_vectors):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng, int(rng.integers(1, 300)), block_length)
        u_share = rng.random()
        grid = rng.choice(
            3,
            size=(int(rng.integers(1, 6)), n_vectors, block_length),
            p=[(1 - u_share) / 2, (1 - u_share) / 2, u_share],
        ).astype(np.int8)
        native = cover_with(NativeKernel(), blocks, grid)
        bitpack = cover_with(BitpackKernel(), blocks, grid)
        for ours, theirs in zip(native, bitpack):
            assert (ours == theirs).all()
        assert_matches_reference("native", blocks, grid, native)

    def test_strided_grid_prices_like_contiguous_copy(self):
        """A strided grid view prices like its contiguous copy."""
        rng = np.random.default_rng(5)
        blocks = random_blocks(rng, 50, 12)
        wide = rng.integers(0, 3, size=(4, 16, 24)).astype(np.int8)
        grid = wide[:, :, ::2]
        assert not grid.flags.c_contiguous
        kernel = NativeKernel()
        prepared = kernel.prepare(blocks)
        for ours, theirs in zip(
            kernel.cover_grid(prepared, grid),
            kernel.cover_grid(prepared, np.ascontiguousarray(grid)),
        ):
            assert (ours == theirs).all()

    def test_foreign_block_lanes_rejected(self):
        """Lanes the C pass would read or write out of bounds raise."""
        rng = np.random.default_rng(8)
        blocks = random_blocks(rng, 20, 12)
        grid = rng.integers(0, 3, size=(2, 4, 12)).astype(np.int8)
        kernel = NativeKernel()
        with pytest.raises(ValueError, match="do not fit"):
            kernel.cover_grid(BitpackKernel().prepare(blocks), grid)  # uint32
        wide = rng.integers(0, 3, size=(2, 4, 40)).astype(np.int8)
        with pytest.raises(ValueError, match="do not fit"):
            kernel.cover_grid(kernel.prepare(blocks), wide)  # K=12 table

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_objective_rows_bit_identical_to_bitpack(self, seed):
        rng = np.random.default_rng(seed)
        care = rng.random(900) < 0.4
        values = rng.random(900) < 0.5
        trits = np.where(care, values.astype(np.int8), np.int8(DC))
        blocks = BlockSet.from_trit_array(trits.astype(np.int8), 12)
        genomes = rng.choice(3, size=(6, 8 * 12), p=[0.2, 0.2, 0.6])
        genomes = genomes.astype(np.int8)
        genomes[:3, -12:] = DC  # coverable rows next to likely-invalid ones
        objectives = {
            name: BatchCompressionRateFitness(
                blocks, n_vectors=8, block_length=12, kernel=name
            ).evaluate_objectives(genomes)
            for name in ("native", "bitpack")
        }
        assert objectives["native"].tobytes() == objectives["bitpack"].tobytes()


class TestShardingKnobs:
    """Sharding must never change results."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=17),
    )
    def test_shard_size_is_result_invariant(self, seed, shard_size):
        rng = np.random.default_rng(seed)
        blocks, grid = random_workload(rng, 11)
        baseline = cover_with(BitpackKernel(), blocks, grid)
        # A shard holds _SHARD_TENSOR_BYTES // (C·L·lane bytes) blocks;
        # this small workload covers its C genomes in one chunk.
        lane_bytes = BitpackKernel().prepare(blocks).block_lanes.itemsize
        tensor_bytes = shard_size * grid.shape[0] * grid.shape[1] * lane_bytes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitpack, "_SHARD_TENSOR_BYTES", tensor_bytes)
            sharded = cover_with(BitpackKernel(), blocks, grid)
        for ours, theirs in zip(baseline, sharded):
            assert (ours == theirs).all()


class TestRegistry:
    def test_available_kernels(self):
        names = kernel_availability()
        assert set(KERNEL_NAMES) <= set(names)

    def test_resolve_unknown_name(self):
        with pytest.raises(
            ValueError,
            match=r"^unknown covering kernel 'nonsense'; "
            r"choose one of: auto, bitpack, native$",
        ):
            resolve_kernel("nonsense")

    def test_resolving_bitpack_never_loads_native(self, monkeypatch):
        """A cold native compile takes seconds; naming bitpack skips it."""
        from repro.core import kernels

        def refuse():
            raise AssertionError("resolve_kernel('bitpack') asked native")

        monkeypatch.setattr(kernels, "native_status", refuse)
        assert resolve_kernel("bitpack").name == BitpackKernel.name

    def test_resolve_passes_instances_through(self):
        kern = BitpackKernel()
        assert resolve_kernel(kern) is kern

    def test_auto_heuristic_shapes(self, no_native):
        # The no-compiler rule takes no workload shape: every batch,
        # narrow, wide (K = 96) or a tiny table, goes to bitpack.
        assert select_kernel_name() == BitpackKernel.name
        assert resolve_kernel("auto").name == BitpackKernel.name

    @requires_native
    def test_auto_prefers_native_when_available(self):
        # The compiled loop measured fastest on every batched shape,
        # so with a toolchain present every run goes to it.
        assert select_kernel_name() == NativeKernel.name
        assert resolve_kernel("auto").name == NativeKernel.name

    def test_kernels_repr_names(self):
        for name in KERNEL_NAMES:
            kern = resolve_kernel(name)
            assert isinstance(kern, CoveringKernel)
            assert kern.name == name
            assert name in repr(kern)


class TestAvailabilityResolution:
    """Unavailable kernels: explicit requests fail, auto skips quietly."""

    def test_native_always_registered(self):
        # ``native`` stays a valid name, listed with its reason even
        # on a toolchain-less machine.
        assert "native" in kernel_availability()

    def test_explicit_unavailable_kernel_raises(self, no_native):
        reason = kernel_availability()["native"]
        with pytest.raises(ValueError) as info:
            resolve_kernel("native")
        assert str(info.value) == (
            f"covering kernel 'native' is unavailable on this machine: {reason}"
        )

    def test_auto_silently_skips_unavailable(self, no_native):
        kern = resolve_kernel("auto")
        assert kern.name == BitpackKernel.name
        assert kernel_availability()["native"] is not None

    def test_unknown_name_still_raises(self, no_native):
        with pytest.raises(ValueError, match="unknown covering kernel"):
            resolve_kernel("nonsense")

    @requires_native
    def test_native_usable_with_compiler(self):
        assert kernel_availability()["native"] is None
        kern = resolve_kernel("native")
        assert kern.name == NativeKernel.name


class TestFitnessKernelChoice:
    @staticmethod
    def _blocks(rng, block_length=8, n_bits=400):
        care = rng.random(n_bits) < 0.5
        values = rng.random(n_bits) < 0.5
        trits = np.where(care, values.astype(np.int8), np.int8(2))
        return BlockSet.from_trit_array(trits.astype(np.int8), block_length)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_batch_rates_identical_across_kernels(self, seed):
        rng = np.random.default_rng(seed)
        blocks = self._blocks(rng)
        genomes = rng.integers(0, 3, size=(12, 5 * 8), dtype=np.int8)
        rates = {}
        for name in KERNEL_NAMES:
            fitness = BatchCompressionRateFitness(
                blocks, n_vectors=5, block_length=8, kernel=name
            )
            rates[name] = fitness.evaluate_batch(genomes)
            assert fitness.kernel_name == name
        for name in KERNEL_NAMES:
            assert (rates["bitpack"] == rates[name]).all(), name

    def test_auto_resolves_on_first_batch(self):
        rng = np.random.default_rng(3)
        blocks = self._blocks(rng)
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=5, block_length=8
        )
        assert fitness.kernel_name == "auto"
        fitness.evaluate_batch(rng.integers(0, 3, size=(4, 40), dtype=np.int8))
        assert fitness.kernel_name in kernel_availability()

    def test_kernel_instance_accepted(self, monkeypatch):
        rng = np.random.default_rng(4)
        blocks = self._blocks(rng)
        # Four-block shards: 4 genomes · 5 MVs · 2-byte lanes (K = 8).
        monkeypatch.setattr(bitpack, "_SHARD_TENSOR_BYTES", 4 * 4 * 5 * 2)
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=5, block_length=8, kernel=BitpackKernel()
        )
        assert fitness.kernel_name == "bitpack"
        rates = fitness.evaluate_batch(
            rng.integers(0, 3, size=(4, 40), dtype=np.int8)
        )
        assert rates.shape == (4,)


class TestSeededRunsAcrossKernels:
    """One seeded EA run must land on the same genome under any kernel."""

    def test_optimizer_results_kernel_invariant(self, force_kernel):
        rng = np.random.default_rng(11)
        care = rng.random(600) < 0.5
        values = rng.random(600) < 0.5
        trits = np.where(care, values.astype(np.int8), np.int8(2))
        blocks = BlockSet.from_trit_array(trits.astype(np.int8), 8)
        config = CompressionConfig(
            block_length=8,
            n_vectors=6,
            runs=2,
            ea=EAParameters(stagnation_limit=10, max_evaluations=300),
        )
        results = {}
        for kernel in KERNEL_NAMES:
            force_kernel(kernel)
            results[kernel] = EAMVOptimizer(config, seed=77).optimize(blocks)
        reference = results[KERNEL_NAMES[0]]
        for kernel in KERNEL_NAMES[1:]:
            result = results[kernel]
            assert result.mean_rate == reference.mean_rate
            assert result.best_rate == reference.best_rate
            for ours, theirs in zip(result.runs, reference.runs):
                assert ours.mv_set == theirs.mv_set


class TestSeededRunParity:
    """Seeded EA runs are byte-identical under every kernel choice,
    including ``auto`` with and without the compiled kernel."""

    CONFIG = dict(
        block_length=6, n_vectors=8, runs=2,
        ea=EAParameters(
            population_size=6, children_per_generation=4,
            stagnation_limit=8, max_evaluations=250,
        ),
    )

    def digest(self, force_kernel, kernel):
        spec = SyntheticSpec(
            name="kernel-run-parity", n_patterns=30, pattern_bits=30,
            care_density=0.5, seed=5,
        )
        blocks = synthetic_test_set(spec).blocks(6)
        force_kernel(kernel)
        result = EAMVOptimizer(
            CompressionConfig(**self.CONFIG), seed=99
        ).optimize(blocks)
        return [
            (run.rate, run.mv_set.to_genome().tobytes())
            for run in result.runs
        ]

    @pytest.mark.parametrize(
        "kernel",
        ["auto", "bitpack", pytest.param("native", marks=requires_native)],
    )
    def test_seeded_runs_byte_identical(self, force_kernel, kernel):
        picked = self.digest(force_kernel, kernel)
        assert picked == self.digest(force_kernel, "bitpack")

    def test_auto_without_compiler_matches(self, no_native, force_kernel):
        picked = self.digest(force_kernel, "auto")
        assert picked == self.digest(force_kernel, "bitpack")


class TestWideBlockEndToEnd:
    """K = 96 compresses and round-trips through every kernel."""

    def test_wide_workload_spans_two_words(self):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        assert WIDE_BLOCK_SPEC.pattern_bits % WIDE_BLOCK_LENGTH == 0
        assert blocks.word_count == 2
        assert blocks.n_distinct > 1

    def test_compress_decompress_roundtrip_all_kernels(self, force_kernel):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        config = CompressionConfig(
            block_length=WIDE_BLOCK_LENGTH,
            n_vectors=6,
            runs=1,
            ea=EAParameters(stagnation_limit=5, max_evaluations=80),
        )
        payloads = []
        for kernel in KERNEL_NAMES:
            force_kernel(kernel)
            optimizer = EAMVOptimizer(config, seed=9)
            compressed = optimizer.compress_best(blocks)
            decoded = verify_roundtrip(compressed)
            assert decoded.blocks_decoded == blocks.n_blocks
            payloads.append(compressed.payload)
        # Seeded search + emission is byte-identical across kernels.
        assert all(payload == payloads[0] for payload in payloads[1:])

    def test_wide_rate_prices_like_compressor(self):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        rng = np.random.default_rng(2)
        genomes = rng.integers(
            0, 3, size=(6, 4 * WIDE_BLOCK_LENGTH), dtype=np.int8
        )
        genomes[:, -WIDE_BLOCK_LENGTH:] = 2  # all-U tail: always coverable
        from repro.core.matching import MVSet

        for name in KERNEL_NAMES:
            fitness = BatchCompressionRateFitness(
                blocks,
                n_vectors=4,
                block_length=WIDE_BLOCK_LENGTH,
                kernel=name,
            )
            rates = fitness.evaluate_batch(genomes)
            for row in range(len(genomes)):
                mv_set = MVSet.from_genome(genomes[row], WIDE_BLOCK_LENGTH)
                expected = compress_blocks(blocks, mv_set).rate
                assert rates[row] == pytest.approx(expected)
