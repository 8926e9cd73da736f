"""Runs/second scaling of the parallel execution subsystem.

The workload is the paper's multi-run protocol at the QUICK budget:
one :class:`EAMVOptimizer` fanning ``RUNS`` independent EA runs over a
medium synthetic test set (the same spec as ``bench_batch``'s
``medium``).  Contenders are the serial backend and thread/process
pools at several job counts; since every run is self-seeded, all
contenders produce bit-identical results and the only thing measured
is scheduling.

Run ``pytest benchmarks/bench_parallel.py --benchmark-only`` for
distributions, or ``python benchmarks/run_bench.py`` to (re)generate
the ``BENCH_parallel.json`` trajectory artifact.  Speedups are bounded
by the machine — the artifact records ``cpu_count`` so a 1-core CI
container's ~1× is read as the hardware ceiling, not a regression.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.config import CompressionConfig, EAParameters
from repro.core.optimizer import EAMVOptimizer
from repro.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

RUNS = 8  # independent EA runs per optimize() call — the fan-out width
JOB_COUNTS = (1, 2, 4, 8)

SPEC = SyntheticSpec(
    "bench-parallel", n_patterns=200, pattern_bits=64, care_density=0.4, seed=12
)
CONFIG = CompressionConfig(
    block_length=12,
    n_vectors=64,
    runs=RUNS,
    # QUICK-budget termination: the per-row effort of a default table run.
    ea=EAParameters(stagnation_limit=30, max_evaluations=1500),
)


def _blocks():
    return synthetic_test_set(SPEC).blocks(CONFIG.block_length)


def _backends() -> dict[str, ExecutionBackend]:
    contenders: dict[str, ExecutionBackend] = {"serial": SerialBackend()}
    for jobs in JOB_COUNTS[1:]:
        contenders[f"thread-{jobs}"] = ThreadBackend(jobs)
        contenders[f"process-{jobs}"] = ProcessBackend(jobs)
    return contenders


@pytest.mark.parametrize("name", list(_backends()))
def test_multi_run_scaling(benchmark, name):
    backend = _backends()[name]
    blocks = _blocks()

    def optimize():
        return EAMVOptimizer(CONFIG, seed=2005, backend=backend).optimize(blocks)

    result = benchmark.pedantic(optimize, rounds=1, iterations=1)
    benchmark.extra_info["backend"] = name
    benchmark.extra_info["runs"] = RUNS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["mean_rate"] = round(result.mean_rate, 3)


def scaling_report(repeats: int = 3, kinds: tuple[str, ...] = ("thread", "process")) -> dict:
    """Measure runs/second per backend and job count (for run_bench).

    Returns the ``BENCH_parallel.json`` document body.  Every
    contender's result is checked for bit-identical rates against the
    serial reference before its timing is recorded.
    """
    blocks = _blocks()

    def best_seconds(backend: ExecutionBackend) -> tuple[float, list[float]]:
        best, rates = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = EAMVOptimizer(CONFIG, seed=2005, backend=backend).optimize(
                blocks
            )
            best = min(best, time.perf_counter() - start)
            rates = [run.rate for run in result.runs]
        return best, rates

    serial_seconds, serial_rates = best_seconds(SerialBackend())
    results = [
        {
            "backend": "serial",
            "jobs": 1,
            "seconds": round(serial_seconds, 3),
            "runs_per_second": round(RUNS / serial_seconds, 2),
            "speedup_vs_serial": 1.0,
        }
    ]
    for jobs in JOB_COUNTS[1:]:
        for kind in kinds:
            backend = (
                ThreadBackend(jobs) if kind == "thread" else ProcessBackend(jobs)
            )
            seconds, rates = best_seconds(backend)
            assert rates == serial_rates, (
                f"{kind}-{jobs} diverged from the serial reference; "
                "refusing to benchmark"
            )
            results.append(
                {
                    "backend": kind,
                    "jobs": jobs,
                    "seconds": round(seconds, 3),
                    "runs_per_second": round(RUNS / seconds, 2),
                    "speedup_vs_serial": round(serial_seconds / seconds, 2),
                }
            )
    return {
        "benchmark": "parallel multi-run fan-out (EAMVOptimizer.optimize)",
        "workload": {
            "n_patterns": SPEC.n_patterns,
            "pattern_bits": SPEC.pattern_bits,
            "block_length": CONFIG.block_length,
            "n_vectors": CONFIG.n_vectors,
            "runs": RUNS,
            "stagnation_limit": CONFIG.ea.stagnation_limit,
            "max_evaluations": CONFIG.ea.max_evaluations,
        },
        "cpu_count": os.cpu_count(),
        "results": results,
    }


def bitpack_shard_report(repeats: int = 3) -> dict:
    """Shard-level thread scaling of the bitpack covering kernel.

    Times ``BitpackKernel(shard_backend=ThreadBackend(jobs))`` on the
    bandwidth-bound ``large`` batch workload at jobs ∈ {1, 2, 4}, with
    ``shard_size`` forced small enough that every job count has shards
    to fan out.  The integer ufuncs release the GIL, so on multi-core
    hardware threads are an honest parallel axis *inside* one fitness
    call; on a single-core container the artifact records the ~1×
    ceiling (judge against ``cpu_count``).  Every contender's rates
    are checked against the serial kernel before timing is recorded.
    """
    from bench_batch import build_kernel_workload

    from repro.core.fitness import BatchCompressionRateFitness
    from repro.core.kernels import BitpackKernel

    blocks, block_length, n_vectors, genomes = build_kernel_workload("large")
    shard_size = 512  # D≈3.3k → 7 shards: enough fan-out for 4 workers
    batch_size = len(genomes)

    def contender(jobs: int) -> BatchCompressionRateFitness:
        backend = None if jobs == 1 else ThreadBackend(jobs)
        kernel = BitpackKernel(shard_size=shard_size, shard_backend=backend)
        return BatchCompressionRateFitness(
            blocks,
            n_vectors=n_vectors,
            block_length=block_length,
            kernel=kernel,
        )

    def best_seconds(fitness) -> tuple[float, list[float]]:
        rates = fitness.evaluate_batch(genomes)  # warm caches
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            rates = fitness.evaluate_batch(genomes)
            best = min(best, time.perf_counter() - start)
        return best, [float(rate) for rate in rates]

    serial_seconds, serial_rates = best_seconds(contender(1))
    results = [
        {
            "jobs": 1,
            "seconds": round(serial_seconds, 3),
            "genomes_per_second": round(batch_size / serial_seconds, 1),
            "speedup_vs_serial": 1.0,
        }
    ]
    for jobs in (2, 4):
        seconds, rates = best_seconds(contender(jobs))
        assert rates == serial_rates, (
            f"thread-{jobs} shards diverged from serial; refusing to benchmark"
        )
        results.append(
            {
                "jobs": jobs,
                "seconds": round(seconds, 3),
                "genomes_per_second": round(batch_size / seconds, 1),
                "speedup_vs_serial": round(serial_seconds / seconds, 2),
            }
        )
    return {
        "benchmark": "bitpack kernel shard fan-out (ThreadBackend)",
        "workload": "large",
        "batch_size": batch_size,
        "n_distinct_blocks": blocks.n_distinct,
        "shard_size": shard_size,
        "cpu_count": os.cpu_count(),
        "results": results,
    }
