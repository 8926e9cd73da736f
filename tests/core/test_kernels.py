"""Cross-kernel parity and registry tests for ``repro.core.kernels``.

The subsystem's contract is bit-identical results from every kernel:
``bitpack`` ≡ ``native`` ≡ the scalar reference ``cover_masks`` loop,
including the batch early-exit convention (uncoverable genomes report
exact ``uncovered`` counts but all ``-1`` assignment rows and zero
frequencies) and multi-word masks (K > 64).  Every kernel is driven
through the two calls the fitness makes — ``prepare(blocks)`` and
``cover_grid(prepared, ordered_grid, orders)``.  Seeded experiments
stay byte-identical no matter which kernel priced them — these tests
pin that property at the kernel, fitness, EA-run and compressor
layers.
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
    ScalarKernel,
    available_kernels,
    get_kernel,
    kernel_unavailable_reason,
    resolve_kernel,
    select_kernel_name,
    usable_kernels,
)
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
NATIVE_UNAVAILABLE = kernel_unavailable_reason("native")
KERNEL_NAMES = ("bitpack", "scalar") + (
    ("native",) if NATIVE_UNAVAILABLE is None else ()
)
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


def random_workload(rng, block_length):
    """Random block table + genome batch: ``(blocks, grid, orders)``.

    ``grid`` is the ``(C, L, K)`` trit grid in declaration order and
    ``orders`` each genome's covering order over it.
    """
    n_distinct = int(rng.integers(1, 60))
    n_vectors = int(rng.integers(1, 14))
    n_genomes = int(rng.integers(1, 9))
    bits = rng.integers(0, 2, size=(n_distinct, block_length))
    zero_bits = rng.integers(0, 2, size=(n_distinct, block_length)) & ~bits
    block_ones = pack_bits_to_words(bits)
    block_zeros = pack_bits_to_words(zero_bits)
    if mask_word_count(block_length) == 1:
        block_ones, block_zeros = block_ones[:, 0], block_zeros[:, 0]
    counts = rng.integers(1, 9, n_distinct).astype(np.int64)
    blocks = block_table(block_ones, block_zeros, counts, block_length)
    grid = rng.integers(0, 3, size=(n_genomes, n_vectors, block_length))
    grid = grid.astype(np.int8)
    orders = np.stack([rng.permutation(n_vectors) for _ in range(n_genomes)])
    return blocks, grid, orders


def cover_with(kernel, blocks, grid, orders):
    """``prepare`` + ``cover_grid`` — exactly the fitness's two calls."""
    ordered_grid = grid[np.arange(len(grid))[:, None], orders]
    return kernel.cover_grid(kernel.prepare(blocks), ordered_grid, orders)


def reference_row(blocks, grid, orders, row):
    """The scalar reference loop on one genome in declaration order."""
    return cover_masks(
        blocks.ones,
        blocks.zeros,
        blocks.counts,
        pack_bits_to_words(grid[row] == ONE),
        pack_bits_to_words(grid[row] == ZERO),
        orders[row],
    )


class TestCrossKernelParity:
    """bitpack ≡ native ≡ scalar, against the reference loop per row."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([3, 9, 14, 33, 64, 70, 96, 130]),
    )
    def test_kernels_match_reference_loop(self, seed, block_length):
        rng = np.random.default_rng(seed)
        blocks, grid, orders = random_workload(rng, block_length)
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = cover_with(
                get_kernel(name), blocks, grid, orders
            )
            for row in range(len(grid)):
                ref_assignment, ref_frequencies, ref_uncovered = (
                    reference_row(blocks, grid, orders, row)
                )
                assert uncovered[row] == ref_uncovered, name
                if ref_uncovered == 0:
                    assert (assignment[row] == ref_assignment).all(), name
                    assert (frequencies[row] == ref_frequencies).all(), name
                else:  # the batch early-exit contract
                    assert (assignment[row] == -1).all(), name
                    assert (frequencies[row] == 0).all(), name

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
        orders = np.zeros((3, 1), dtype=np.int64)
        results = {
            name: cover_with(get_kernel(name), blocks, grid, orders)
            for name in KERNEL_NAMES
        }
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = results[name]
            assert (uncovered > 0).all(), name
            assert (assignment == -1).all(), name
            assert (frequencies == 0).all(), name
            for ours, theirs in zip(results[name], results["scalar"]):
                assert (ours == theirs).all(), name

    def test_empty_blocks_and_empty_batch(self):
        empty = BlockSet.from_trit_array(np.empty(0, dtype=np.int8), 4)
        all_u = np.full((3, 4, 4), DC, dtype=np.int8)
        orders = np.tile(np.arange(4), (3, 1))
        blocks = BlockSet.from_string("0101 1X0X 0101", 4)
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            assignment, frequencies, uncovered = cover_with(
                kernel, empty, all_u, orders
            )
            assert assignment.shape == (3, 0), name
            assert (frequencies == 0).all() and (uncovered == 0).all(), name
            assignment, frequencies, uncovered = cover_with(
                kernel, blocks, all_u[:0], orders[:0]
            )
            assert assignment.shape == (0, blocks.n_distinct), name
            assert frequencies.shape == (0, 4) and uncovered.shape == (0,), name

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([4, 11, 64, 96]),
    )
    def test_match_columns_agree_with_reference(self, seed, block_length):
        """Standalone match columns ≡ one reference covering per MV."""
        rng = np.random.default_rng(seed)
        blocks, grid, _ = random_workload(rng, block_length)
        mv_ones = pack_bits_to_words(grid[0] == ONE)
        mv_zeros = pack_bits_to_words(grid[0] == ZERO)
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
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
        for kernel_class in (BitpackKernel, NativeKernel, ScalarKernel):
            public = {
                name
                for name, value in vars(kernel_class).items()
                if callable(value) and not name.startswith("_")
            }
            assert public == {"prepare", "cover_grid"}, kernel_class


class TestShardingKnobs:
    """Sharding must never change results."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=17),
    )
    def test_shard_size_is_result_invariant(self, seed, shard_size):
        rng = np.random.default_rng(seed)
        blocks, grid, orders = random_workload(rng, 11)
        baseline = cover_with(BitpackKernel(), blocks, grid, orders)
        sharded = cover_with(
            BitpackKernel(shard_size=shard_size), blocks, grid, orders
        )
        for ours, theirs in zip(baseline, sharded):
            assert (ours == theirs).all()

    def test_shard_size_validated(self):
        with pytest.raises(ValueError):
            BitpackKernel(shard_size=0)


class TestRegistry:
    def test_available_kernels(self):
        names = available_kernels()
        assert set(KERNEL_NAMES) <= set(names)

    def test_get_kernel_unknown_name(self):
        with pytest.raises(ValueError, match="unknown covering kernel"):
            get_kernel("nonsense")

    def test_auto_never_resolves_by_get(self):
        with pytest.raises(ValueError):
            get_kernel("auto")

    def test_resolve_passes_instances_through(self):
        kern = BitpackKernel()
        assert (
            resolve_kernel(
                kern, n_genomes=4, n_distinct=10, n_vectors=4, block_length=8
            )
            is kern
        )

    def test_auto_heuristic_shapes(self, no_native):
        # The no-compiler rule: the scalar corner is unchanged and
        # every batched shape — narrow, wide (K = 96) or a tiny table —
        # goes to bitpack.
        assert select_kernel_name(1, 8, 4, 8) == ScalarKernel.name
        assert select_kernel_name(1, 8, 64, 12) == ScalarKernel.name
        for shape in (
            (256, 100, 64, 12),
            (256, 900, 64, 12),
            (256, 5000, 64, 64),
            (256, 400, 64, 96),
            (256, 4096, 64, 96),
            (5, 3, 64, 12),
            (5, 3, 64, 96),
            (1, 900, 64, 12),
        ):
            assert select_kernel_name(*shape) == BitpackKernel.name, shape

    @requires_native
    def test_auto_prefers_native_when_available(self):
        # The compiled loop measured fastest on every batched shape,
        # so with a toolchain present every non-scalar shape goes to it.
        assert select_kernel_name(1, 8, 4, 8) == ScalarKernel.name
        for shape in (
            (256, 100, 64, 12),
            (256, 900, 64, 12),
            (256, 5000, 64, 64),
            (256, 400, 64, 96),
            (256, 4096, 64, 96),
            (5, 3, 64, 12),
        ):
            assert select_kernel_name(*shape) == NativeKernel.name, shape

    def test_kernels_repr_names(self):
        for name in KERNEL_NAMES:
            kern = get_kernel(name)
            assert isinstance(kern, CoveringKernel)
            assert kern.name == name
            assert name in repr(kern)


class TestAvailabilityResolution:
    """Unavailable kernels: explicit requests fail, auto skips quietly."""

    def test_native_always_registered(self):
        # Registration is not usability: the name stays valid
        # configuration even on a toolchain-less machine.
        assert "native" in available_kernels()

    def test_explicit_unavailable_kernel_raises(self, no_native):
        with pytest.raises(ValueError, match="unavailable on this machine"):
            resolve_kernel(
                "native", n_genomes=32, n_distinct=900,
                n_vectors=32, block_length=12,
            )

    def test_auto_silently_skips_unavailable(self, no_native):
        kern = resolve_kernel(
            "auto", n_genomes=32, n_distinct=900,
            n_vectors=32, block_length=12,
        )
        assert kern.name == BitpackKernel.name
        assert "native" not in usable_kernels()
        assert kernel_unavailable_reason("native") is not None

    def test_unknown_name_still_raises(self):
        with pytest.raises(ValueError, match="unknown covering kernel"):
            kernel_unavailable_reason("nonsense")

    @requires_native
    def test_native_usable_with_compiler(self):
        assert "native" in usable_kernels()
        assert kernel_unavailable_reason("native") is None
        kern = resolve_kernel(
            "native", n_genomes=32, n_distinct=900,
            n_vectors=32, block_length=12,
        )
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
            assert (rates["scalar"] == rates[name]).all(), name

    def test_auto_resolves_on_first_batch(self):
        rng = np.random.default_rng(3)
        blocks = self._blocks(rng)
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=5, block_length=8
        )
        assert fitness.kernel_name == "auto"
        fitness.evaluate_batch(rng.integers(0, 3, size=(4, 40), dtype=np.int8))
        assert fitness.kernel_name in available_kernels()

    def test_kernel_instance_accepted(self):
        rng = np.random.default_rng(4)
        blocks = self._blocks(rng)
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=5, block_length=8, kernel=BitpackKernel(shard_size=4)
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
        ["auto", "bitpack", pytest.param("native", marks=requires_native), "scalar"],
    )
    def test_seeded_runs_byte_identical(self, force_kernel, kernel):
        picked = self.digest(force_kernel, kernel)
        assert picked == self.digest(force_kernel, "scalar")

    def test_auto_without_compiler_matches(self, no_native, force_kernel):
        picked = self.digest(force_kernel, "auto")
        assert picked == self.digest(force_kernel, "scalar")


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
