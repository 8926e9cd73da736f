"""Cross-kernel parity and registry tests for ``repro.core.kernels``.

The subsystem's contract is bit-identical results from every kernel:
``bitpack`` ≡ ``native`` ≡ the scalar reference ``cover_masks`` loop,
including the batch early-exit convention (uncoverable genomes report
exact ``uncovered`` counts but all ``-1`` assignment rows and zero
frequencies) and multi-word masks (K > 64).  Seeded experiments stay
byte-identical no matter which kernel priced them — these tests pin
that property at the kernel, fitness, EA-run and compressor layers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockSet, mask_word_count, pack_bits_to_words
from repro.core.compressor import compress_blocks
from repro.core.config import CompressionConfig, EAParameters
from repro.core.covering import cover_masks, cover_masks_batch
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


def random_workload(rng, block_length):
    """Random block set + genome batch over the given mask width."""
    n_distinct = int(rng.integers(1, 60))
    n_vectors = int(rng.integers(1, 14))
    n_genomes = int(rng.integers(1, 9))
    n_words = mask_word_count(block_length)

    def random_masks(count):
        bits = rng.integers(0, 2, size=(count, block_length))
        zero_bits = rng.integers(0, 2, size=(count, block_length)) & ~bits
        ones = pack_bits_to_words(bits)
        zeros = pack_bits_to_words(zero_bits)
        if n_words == 1:
            return ones[:, 0], zeros[:, 0]
        return ones, zeros

    block_ones, block_zeros = random_masks(n_distinct)
    counts = rng.integers(1, 9, n_distinct).astype(np.int64)
    mv_shape = (
        (n_genomes, n_vectors)
        if n_words == 1
        else (n_genomes, n_vectors, n_words)
    )
    mv_ones = np.empty(mv_shape, dtype=np.uint64)
    mv_zeros = np.empty(mv_shape, dtype=np.uint64)
    orders = np.empty((n_genomes, n_vectors), dtype=np.int64)
    for row in range(n_genomes):
        mv_ones[row], mv_zeros[row] = random_masks(n_vectors)
        orders[row] = rng.permutation(n_vectors)
    return block_ones, block_zeros, counts, mv_ones, mv_zeros, orders


class TestCrossKernelParity:
    """bitpack ≡ native ≡ scalar, against the reference loop per row."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([3, 9, 14, 33, 64, 70, 96, 130]),
    )
    def test_kernels_match_reference_loop(self, seed, block_length):
        rng = np.random.default_rng(seed)
        (
            block_ones,
            block_zeros,
            counts,
            mv_ones,
            mv_zeros,
            orders,
        ) = random_workload(rng, block_length)
        per_kernel = {
            name: cover_masks_batch(
                block_ones,
                block_zeros,
                counts,
                mv_ones,
                mv_zeros,
                orders,
                block_length=block_length,
                kernel=name,
            )
            for name in KERNEL_NAMES
        }
        n_genomes = orders.shape[0]
        reference = per_kernel["scalar"]
        for row in range(n_genomes):
            ref_assignment, ref_frequencies, ref_uncovered = cover_masks(
                block_ones,
                block_zeros,
                counts,
                mv_ones[row],
                mv_zeros[row],
                orders[row],
            )
            assert reference[2][row] == ref_uncovered
            if ref_uncovered == 0:
                assert (reference[0][row] == ref_assignment).all()
                assert (reference[1][row] == ref_frequencies).all()
            else:  # the batch early-exit contract
                assert (reference[0][row] == -1).all()
                assert (reference[1][row] == 0).all()
        for name in KERNEL_NAMES:
            if name == "scalar":
                continue
            for ours, theirs in zip(per_kernel[name], reference):
                assert (ours == theirs).all(), name

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_uncoverable_rows_early_exit_on_every_kernel(self, seed):
        rng = np.random.default_rng(seed)
        block_length = 6
        # Fully-specified complementary blocks and a single fully
        # specified MV: at most one block row can ever be covered.
        block_ones = np.asarray([0b111111, 0b000000], dtype=np.uint64)
        block_zeros = np.asarray([0b000000, 0b111111], dtype=np.uint64)
        counts = rng.integers(1, 5, 2).astype(np.int64)
        mv_ones = rng.integers(0, 2**6, (3, 1), dtype=np.uint64)
        mv_zeros = (~mv_ones) & np.uint64(0b111111)
        orders = np.zeros((3, 1), dtype=np.int64)
        results = {
            name: cover_masks_batch(
                block_ones, block_zeros, counts,
                mv_ones, mv_zeros, orders,
                block_length=block_length, kernel=name,
            )
            for name in KERNEL_NAMES
        }
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = results[name]
            assert (uncovered > 0).all(), name
            assert (assignment == -1).all(), name
            assert (frequencies == 0).all(), name
        for name in KERNEL_NAMES:
            if name == "scalar":
                continue
            for ours, theirs in zip(results[name], results["scalar"]):
                assert (ours == theirs).all()

    def test_single_genome_word_masks_promote_to_batch_of_one(self):
        """(L, W) masks + 1-D order must read as ONE genome, not L."""
        from repro.core.matching import MVSet

        rng = np.random.default_rng(8)
        trits = rng.integers(0, 3, size=96 * 11).astype(np.int8)
        blocks = BlockSet.from_trit_array(trits, 96)
        mv_set = MVSet.from_genome(
            np.full(96 * 4, 2, dtype=np.int8), 96
        )  # all-U MVs: every block covered by the first in order
        mv_ones, mv_zeros = mv_set.mask_arrays()
        assert mv_ones.shape == (4, 2)  # the ambiguous (L, W) shape
        order = np.asarray(mv_set.covering_order(), dtype=np.int64)
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = cover_masks_batch(
                blocks.ones, blocks.zeros, blocks.counts,
                mv_ones, mv_zeros, order,
                block_length=96, kernel=name,
            )
            assert assignment.shape == (1, blocks.n_distinct), name
            assert frequencies.shape == (1, 4), name
            assert uncovered.tolist() == [0], name
            assert (assignment == order[0]).all(), name
            assert frequencies[0, order[0]] == blocks.n_blocks, name

    def test_empty_blocks_and_empty_batch(self):
        empty_u64 = np.empty(0, dtype=np.uint64)
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = cover_masks_batch(
                empty_u64, empty_u64, np.empty(0, dtype=np.int64),
                np.zeros((3, 4), dtype=np.uint64),
                np.zeros((3, 4), dtype=np.uint64),
                np.tile(np.arange(4), (3, 1)),
                kernel=name,
            )
            assert assignment.shape == (3, 0)
            assert (frequencies == 0).all()
            assert (uncovered == 0).all()


    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([4, 11, 64, 96]),
    )
    def test_match_columns_agree_with_reference(self, seed, block_length):
        """Standalone match columns ≡ one reference covering per MV."""
        rng = np.random.default_rng(seed)
        block_ones, block_zeros, counts, mv_ones, mv_zeros, _ = (
            random_workload(rng, block_length)
        )
        n_vectors = mv_ones.shape[1]
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            prepared = kernel.prepare_masks(
                block_ones, block_zeros, counts, block_length
            )
            columns = kernel.match_columns(prepared, mv_ones[0], mv_zeros[0])
            for index in range(n_vectors):
                assignment, _, _ = cover_masks(
                    block_ones,
                    block_zeros,
                    counts,
                    mv_ones[0][index : index + 1],
                    mv_zeros[0][index : index + 1],
                    np.zeros(1, dtype=np.int64),
                )
                assert (columns[index] == (assignment >= 0)).all(), name


class TestShardingKnobs:
    """Sharding must never change results."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=17),
    )
    def test_shard_size_is_result_invariant(self, seed, shard_size):
        rng = np.random.default_rng(seed)
        workload = random_workload(rng, 11)
        block_ones, block_zeros, counts, mv_ones, mv_zeros, orders = workload
        baseline = get_kernel("bitpack")
        sharded = BitpackKernel(shard_size=shard_size)
        results = []
        for kern in (baseline, sharded):
            prepared = kern.prepare_masks(block_ones, block_zeros, counts, 11)
            results.append(
                kern.cover_masks(prepared, mv_ones, mv_zeros, orders)
            )
        for ours, theirs in zip(results[0], results[1]):
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

    def test_optimizer_results_kernel_invariant(self):
        rng = np.random.default_rng(11)
        care = rng.random(600) < 0.5
        values = rng.random(600) < 0.5
        trits = np.where(care, values.astype(np.int8), np.int8(2))
        blocks = BlockSet.from_trit_array(trits.astype(np.int8), 8)
        results = {}
        for kernel in KERNEL_NAMES:
            config = CompressionConfig(
                block_length=8,
                n_vectors=6,
                runs=2,
                kernel=kernel,
                ea=EAParameters(stagnation_limit=10, max_evaluations=300),
            )
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

    def digest(self, kernel):
        spec = SyntheticSpec(
            name="kernel-run-parity", n_patterns=30, pattern_bits=30,
            care_density=0.5, seed=5,
        )
        blocks = synthetic_test_set(spec).blocks(6)
        config = CompressionConfig(**self.CONFIG, kernel=kernel)
        result = EAMVOptimizer(config, seed=99).optimize(blocks)
        return [
            (run.rate, run.mv_set.to_genome().tobytes())
            for run in result.runs
        ]

    @pytest.mark.parametrize(
        "kernel",
        ["auto", "bitpack", pytest.param("native", marks=requires_native), "scalar"],
    )
    def test_seeded_runs_byte_identical(self, kernel):
        assert self.digest(kernel) == self.digest("scalar")

    def test_auto_without_compiler_matches(self, no_native):
        assert self.digest("auto") == self.digest("scalar")


class TestWideBlockEndToEnd:
    """K = 96 compresses and round-trips through every kernel."""

    def test_wide_workload_spans_two_words(self):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        assert WIDE_BLOCK_SPEC.pattern_bits % WIDE_BLOCK_LENGTH == 0
        assert blocks.word_count == 2
        assert blocks.n_distinct > 1

    def test_compress_decompress_roundtrip_all_kernels(self):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        payloads = []
        for kernel in KERNEL_NAMES:
            config = CompressionConfig(
                block_length=WIDE_BLOCK_LENGTH,
                n_vectors=6,
                runs=1,
                kernel=kernel,
                ea=EAParameters(stagnation_limit=5, max_evaluations=80),
            )
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
