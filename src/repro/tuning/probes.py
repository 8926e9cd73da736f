"""The ``repro tune`` microbenchmarks: measure thresholds, not guess them.

Each probe times the two contenders behind one hot-path decision on
*this* machine and derives the threshold from where the measured
curves cross (FFTW-style measure-then-dispatch):

* :func:`probe_kernel_crossover` — the batched fitness under the
  ``gemm`` vs ``bitpack`` kernel across distinct-table sizes, for
  narrow (one fused lane word) and wide (K > 64) blocks → the
  ``bitpack_min_distinct`` / ``bitpack_wide_min_distinct`` auto
  cutovers;
* :func:`probe_native_crossover` — the batched fitness under the
  ``bitpack`` (incumbent array kernel) vs cc-compiled ``native``
  kernel across the same narrow + wide sweeps → the
  ``native_min_distinct`` / ``native_wide_min_distinct`` auto
  cutovers; skipped (shipped defaults kept) when this machine has no
  C toolchain;
* :func:`probe_shard_size` — the bitpack kernel across candidate
  D-axis shard sizes → ``bitpack_shard_size`` (``None`` when the
  kernel's cache-budget autosizing wins);
* :func:`probe_huffman_lockstep` — per-row vs lockstep two-queue
  Huffman totals across batch row counts → ``huffman_lockstep_min_rows``.

Every probe takes an injectable ``timer`` (default
:func:`time.perf_counter`); given the same timer readings the derived
profile is a pure function of them, which is how the test suite pins
probe determinism with a scripted clock.  Probe workloads are seeded,
so the *work* is identical run to run too.

All derived thresholds are semantically inert — they move the wall
clock, never a result — so a bad probe on a noisy machine can cost
speed but can never corrupt an experiment.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from datetime import datetime, timezone

import numpy as np

from ..core.blocks import BlockSet, pack_bits_to_words
from ..core.fitness import BatchCompressionRateFitness
from ..core.kernels import BitpackKernel, NativeKernel, kernel_unavailable_reason
from ..core.trits import DC
from ..ea.genome import random_genome
from .profile import TuningProfile, current_fingerprint

__all__ = [
    "crossover_point",
    "probe_huffman_lockstep",
    "probe_kernel_crossover",
    "probe_native_crossover",
    "probe_shard_size",
    "run_probes",
    "tuning_summary",
]

Timer = Callable[[], float]

# Pins the shipped defaults regardless of any process-wide active
# profile, so probing is not skewed by the profile being replaced.
_BASELINE = TuningProfile()


def _probe_blocks(
    n_distinct: int, block_length: int, rng: np.random.Generator
) -> BlockSet:
    """A fully-specified distinct-block table of an exact size.

    Fully specified blocks make ``n_distinct`` exact (the probe's
    x-axis) and are timing-representative: kernel match work is dense
    integer/float arithmetic whose cost does not depend on block
    content, and the pinned all-U MV keeps every covering complete.
    """
    if block_length <= 20:
        if n_distinct > 1 << block_length:
            raise ValueError(
                f"cannot build {n_distinct} distinct K={block_length} blocks"
            )
        values = rng.choice(
            1 << block_length, size=n_distinct, replace=False
        ).astype(np.uint64)
        mask = np.uint64((1 << block_length) - 1)
        ones = values & mask
        zeros = ~values & mask
    else:
        bits = rng.integers(0, 2, size=(n_distinct, block_length), dtype=np.uint8)
        ones = pack_bits_to_words(bits == 1)
        zeros = pack_bits_to_words(bits == 0)
    counts = rng.integers(1, 5, size=n_distinct).astype(np.int64)
    return BlockSet(
        block_length=block_length,
        original_bits=int(counts.sum()) * block_length,
        ones=ones,
        zeros=zeros,
        counts=counts,
        sequence=np.repeat(
            np.arange(n_distinct, dtype=np.int32), counts
        ),
    )


def _probe_genomes(
    n_genomes: int, n_vectors: int, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    genomes = np.stack(
        [random_genome(n_vectors * block_length, rng) for _ in range(n_genomes)]
    )
    genomes[:, -block_length:] = DC  # pinned all-U MV: coverings complete
    return genomes


def _convergent_genomes(
    n_genomes: int,
    n_vectors: int,
    block_length: int,
    rng: np.random.Generator,
    n_parents: int = 8,
    mutated_genes: int = 3,
) -> np.ndarray:
    """Copy+mutate offspring of a few parents — the late-run EA regime
    (mirrors the bench's convergent workload)."""
    parents = _probe_genomes(n_parents, n_vectors, block_length, rng)
    rows = []
    for index in range(n_genomes):
        child = parents[index % n_parents].copy()
        sites = rng.integers(0, (n_vectors - 1) * block_length, size=mutated_genes)
        child[sites] = rng.integers(0, 3, size=mutated_genes)
        rows.append(child)
    return np.stack(rows)


def _best_seconds(function, repeats: int, timer: Timer) -> float:
    """Best-of-N wall time through the injectable clock."""
    function()  # warm allocations, caches, lazy kernel resolution
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = timer()
        function()
        best = min(best, timer() - start)
    return best


def crossover_point(
    points: Sequence[tuple[int, float, float]],
) -> int | None:
    """Smallest x from which the challenger beats the incumbent *and
    keeps winning* through the largest probed x.

    ``points`` are ``(x, incumbent_seconds, challenger_seconds)``.
    Requiring the win to persist to the end of the probed range makes
    the decision robust to a single noisy point in the middle; a
    challenger that loses at the largest x yields ``None`` (no safe
    crossover was observed).
    """
    best = None
    for x, incumbent, challenger in sorted(points, reverse=True):
        if challenger <= incumbent:
            best = x
        else:
            break
    return best


def _fallback_threshold(max_probed: int) -> int:
    # The challenger never won inside the probed range; engage it only
    # well past the measured evidence.
    return 2 * max_probed


# -- probes -----------------------------------------------------------


def probe_kernel_crossover(
    quick: bool = False,
    repeats: int = 3,
    timer: Timer = time.perf_counter,
) -> tuple[int, int, dict[str, float]]:
    """(bitpack_min_distinct, bitpack_wide_min_distinct, measurements)."""
    measurements: dict[str, float] = {}

    def sweep(block_length, n_vectors, batch, d_values, tag):
        points = []
        for n_distinct in d_values:
            rng = np.random.default_rng(1000 + n_distinct + block_length)
            blocks = _probe_blocks(n_distinct, block_length, rng)
            genomes = _probe_genomes(batch, n_vectors, block_length, rng)
            seconds = {}
            for kernel in ("gemm", "bitpack"):
                fitness = BatchCompressionRateFitness(
                    blocks,
                    n_vectors=n_vectors,
                    block_length=block_length,
                    kernel=kernel,
                    tuning=_BASELINE,
                )
                seconds[kernel] = _best_seconds(
                    lambda f=fitness: f.evaluate_batch(genomes), repeats, timer
                )
                measurements[f"{tag}/d{n_distinct}/{kernel}"] = seconds[kernel]
            points.append((n_distinct, seconds["gemm"], seconds["bitpack"]))
        crossover = crossover_point(points)
        return crossover if crossover is not None else _fallback_threshold(
            max(d_values)
        )

    narrow_ds = (128, 256, 512, 1024) if quick else (64, 128, 256, 512, 1024, 2048)
    wide_ds = (256, 512, 1024) if quick else (256, 512, 1024, 2048, 4096)
    narrow = sweep(12, 32, 32, narrow_ds, "kernel_narrow")
    wide = sweep(96, 16, 16, wide_ds, "kernel_wide")
    return narrow, wide, measurements


def probe_native_crossover(
    quick: bool = False,
    repeats: int = 3,
    timer: Timer = time.perf_counter,
) -> tuple[int, int, dict[str, float]]:
    """(native_min_distinct, native_wide_min_distinct, measurements).

    The incumbent is ``bitpack`` — the fastest array kernel on the
    shapes where the native kernel matters — and the challenger is the
    cc-compiled ``native`` kernel, over the same narrow/wide sweeps as
    :func:`probe_kernel_crossover`.  Only callable when the native
    kernel is available; :func:`run_probes` gates on availability and
    keeps the shipped defaults otherwise.
    """
    measurements: dict[str, float] = {}

    def sweep(block_length, n_vectors, batch, d_values, tag):
        points = []
        for n_distinct in d_values:
            rng = np.random.default_rng(1500 + n_distinct + block_length)
            blocks = _probe_blocks(n_distinct, block_length, rng)
            genomes = _probe_genomes(batch, n_vectors, block_length, rng)
            seconds = {}
            for kernel in ("bitpack", "native"):
                fitness = BatchCompressionRateFitness(
                    blocks,
                    n_vectors=n_vectors,
                    block_length=block_length,
                    kernel=kernel,
                    tuning=_BASELINE,
                )
                seconds[kernel] = _best_seconds(
                    lambda f=fitness: f.evaluate_batch(genomes), repeats, timer
                )
                measurements[f"{tag}/d{n_distinct}/{kernel}"] = seconds[kernel]
            points.append((n_distinct, seconds["bitpack"], seconds["native"]))
        crossover = crossover_point(points)
        return crossover if crossover is not None else _fallback_threshold(
            max(d_values)
        )

    narrow_ds = (128, 256, 512, 1024) if quick else (64, 128, 256, 512, 1024, 2048)
    wide_ds = (256, 512, 1024) if quick else (256, 512, 1024, 2048, 4096)
    narrow = sweep(12, 32, 32, narrow_ds, "native_narrow")
    wide = sweep(96, 16, 16, wide_ds, "native_wide")
    return narrow, wide, measurements


def probe_shard_size(
    quick: bool = False,
    repeats: int = 3,
    timer: Timer = time.perf_counter,
) -> tuple[int | None, dict[str, float]]:
    """(bitpack_shard_size or None for autosizing, measurements)."""
    measurements: dict[str, float] = {}
    block_length, n_vectors, batch = 12, 32, 32
    n_distinct = 2048 if quick else 4096
    rng = np.random.default_rng(4000)
    blocks = _probe_blocks(n_distinct, block_length, rng)
    genomes = _probe_genomes(batch, n_vectors, block_length, rng)
    candidates: list[int | None] = [None, 256, 512, 1024, 2048]
    seconds: dict[int | None, float] = {}
    for shard_size in candidates:
        fitness = BatchCompressionRateFitness(
            blocks,
            n_vectors=n_vectors,
            block_length=block_length,
            kernel=BitpackKernel(shard_size=shard_size),
            tuning=_BASELINE,
        )
        seconds[shard_size] = _best_seconds(
            lambda f=fitness: f.evaluate_batch(genomes), repeats, timer
        )
        label = "auto" if shard_size is None else str(shard_size)
        measurements[f"shard/{label}"] = seconds[shard_size]
    best = min(candidates, key=lambda size: seconds[size])
    # Prefer autosizing unless an explicit shard is a real (>2%) win —
    # autosizing adapts to future table sizes, a pinned number cannot.
    if best is not None and seconds[best] > 0.98 * seconds[None]:
        best = None
    return best, measurements


def probe_huffman_lockstep(
    quick: bool = False,
    repeats: int = 3,
    timer: Timer = time.perf_counter,
) -> tuple[int, dict[str, float]]:
    """(huffman_lockstep_min_rows, measurements)."""
    from ..coding.huffman import huffman_total_bits_batch

    measurements: dict[str, float] = {}
    n_symbols = 64
    row_values = (16, 32, 64, 96, 128) if quick else (16, 32, 64, 96, 128, 192, 256)
    rng = np.random.default_rng(5000)
    points = []
    for n_rows in row_values:
        freqs = rng.integers(0, 50, size=(n_rows, n_symbols))
        per_row = _best_seconds(
            lambda f=freqs: huffman_total_bits_batch(
                f, lockstep_min_rows=1 << 30
            ),
            repeats,
            timer,
        )
        lockstep = _best_seconds(
            lambda f=freqs: huffman_total_bits_batch(f, lockstep_min_rows=1),
            repeats,
            timer,
        )
        measurements[f"huffman/r{n_rows}/per_row"] = per_row
        measurements[f"huffman/r{n_rows}/lockstep"] = lockstep
        points.append((n_rows, per_row, lockstep))
    crossover = crossover_point(points)
    return (
        crossover if crossover is not None else _fallback_threshold(max(row_values))
    ), measurements


def _timing_signature(timer: Timer) -> tuple[float, float]:
    """(gemm_us, bitand_us) — the fingerprint's dtype timing signature."""
    rng = np.random.default_rng(6000)
    a = rng.random((256, 256), dtype=np.float32)
    b = rng.random((256, 256), dtype=np.float32)
    gemm_s = _best_seconds(lambda: a @ b, 3, timer)
    words = rng.integers(0, 1 << 62, size=1 << 18, dtype=np.uint64)
    bitand_s = _best_seconds(lambda: words & words[0], 3, timer)
    return round(gemm_s * 1e6, 3), round(bitand_s * 1e6, 3)


def run_probes(
    quick: bool = False,
    repeats: int = 3,
    timer: Timer = time.perf_counter,
    progress: Callable[[str], None] | None = None,
    created: str | None = None,
) -> TuningProfile:
    """Run every probe and assemble the machine's :class:`TuningProfile`.

    Pure given the timer's readings and the fixed probe seeds: the
    same measurements produce the same profile (the determinism tests
    drive this with a scripted clock).  Unprobed thresholds
    (``scalar_max_work``) keep the shipped defaults.
    """
    started = timer()
    measurements: dict[str, float] = {}

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    note("probing gemm-vs-bitpack crossover ...")
    narrow, wide, kernel_measured = probe_kernel_crossover(quick, repeats, timer)
    measurements.update(kernel_measured)
    note(f"  bitpack from D>={narrow} (narrow), D>={wide} (wide)")

    defaults = TuningProfile()
    native_reason = kernel_unavailable_reason(NativeKernel.name)
    if native_reason is None:
        note("probing bitpack-vs-native crossover ...")
        native_narrow, native_wide, native_measured = probe_native_crossover(
            quick, repeats, timer
        )
        measurements.update(native_measured)
        note(
            f"  native from D>={native_narrow} (narrow), "
            f"D>={native_wide} (wide)"
        )
    else:
        native_narrow = defaults.native_min_distinct
        native_wide = defaults.native_wide_min_distinct
        note(f"skipping native-kernel probe: {native_reason}")

    note("probing bitpack shard size ...")
    shard_size, shard_measured = probe_shard_size(quick, repeats, timer)
    measurements.update(shard_measured)
    note(f"  shard_size={'auto' if shard_size is None else shard_size}")

    note("probing Huffman lockstep cutover ...")
    lockstep_rows, huffman_measured = probe_huffman_lockstep(
        quick, repeats, timer
    )
    measurements.update(huffman_measured)
    note(f"  lockstep from {lockstep_rows} rows")

    gemm_us, bitand_us = _timing_signature(timer)
    return TuningProfile(
        fingerprint=current_fingerprint(gemm_us=gemm_us, bitand_us=bitand_us),
        bitpack_min_distinct=narrow,
        bitpack_wide_min_distinct=wide,
        native_min_distinct=native_narrow,
        native_wide_min_distinct=native_wide,
        scalar_max_work=defaults.scalar_max_work,
        bitpack_shard_size=shard_size,
        huffman_lockstep_min_rows=lockstep_rows,
        source=f"repro tune ({'quick' if quick else 'full'}, repeats={repeats})",
        created=(
            created
            if created is not None
            else datetime.now(timezone.utc).isoformat(timespec="seconds")
        ),
        probe_seconds=round(timer() - started, 3),
        measurements=tuple(
            sorted((name, round(value, 9)) for name, value in measurements.items())
        ),
    )


def tuning_summary(
    profile: TuningProfile,
    quick: bool = False,
    repeats: int = 3,
    timer: Timer = time.perf_counter,
) -> list[dict]:
    """Before/after genomes/s of the full default pipeline.

    Prices one convergent generation batch end to end (``auto``
    kernel) under the shipped
    defaults and under ``profile`` — the number ``repro tune`` prints
    after writing, so the operator sees what the profile actually buys
    on this machine.  Results are asserted identical: tuning moves
    only the clock.
    """
    shapes = {
        "medium": (768 if quick else 860, 12, 32, 32),
        "large": (2048 if quick else 3300, 12, 64, 32),
    }
    rows = []
    for name, (n_distinct, block_length, n_vectors, batch) in shapes.items():
        rng = np.random.default_rng(7000 + n_distinct)
        blocks = _probe_blocks(n_distinct, block_length, rng)
        genomes = _convergent_genomes(batch, n_vectors, block_length, rng)

        def throughput(tuning):
            fitness = BatchCompressionRateFitness(
                blocks,
                n_vectors=n_vectors,
                block_length=block_length,
                tuning=tuning,
            )
            rates = fitness.evaluate_batch(genomes)  # warm the kernel
            seconds = _best_seconds(
                lambda: fitness.evaluate_batch(genomes), repeats, timer
            )
            return batch / seconds, rates

        default_gps, default_rates = throughput(_BASELINE)
        tuned_gps, tuned_rates = throughput(profile)
        assert (default_rates == tuned_rates).all(), (
            "tuning changed results; profiles must be semantically inert"
        )
        rows.append(
            {
                "workload": name,
                "n_distinct_blocks": n_distinct,
                "batch_size": batch,
                "default_genomes_per_second": round(default_gps, 1),
                "tuned_genomes_per_second": round(tuned_gps, 1),
                "speedup_tuned_vs_default": round(tuned_gps / default_gps, 2),
            }
        )
    return rows
