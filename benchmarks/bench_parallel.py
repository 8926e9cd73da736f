"""Runs/second scaling of the parallel execution subsystem.

The workload is the paper's multi-run protocol at the QUICK budget:
one :class:`EAMVOptimizer` fanning ``RUNS`` independent EA runs over a
medium synthetic test set (the same spec as ``bench_batch``'s
``medium``).  Contenders are the serial backend and process pools at
several job counts; since every run is self-seeded, all contenders
produce bit-identical results and the only thing measured is
scheduling.

``python benchmarks/run_bench.py`` (re)generates the
``BENCH_parallel.json`` trajectory artifact from
:func:`scaling_report`.  Speedups are bounded by the machine — the
artifact records ``cpu_count`` so a 1-core CI container's ~1× is read
as the hardware ceiling, not a regression.
"""

from __future__ import annotations

import os
import time

from repro.core.config import CompressionConfig, EAParameters
from repro.core.optimizer import EAMVOptimizer
from repro.parallel import ExecutionBackend, ProcessBackend, SerialBackend
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


def scaling_report(repeats: int = 3) -> dict:
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
        seconds, rates = best_seconds(ProcessBackend(jobs))
        assert rates == serial_rates, (
            f"process-{jobs} diverged from the serial reference; "
            "refusing to benchmark"
        )
        results.append(
            {
                "backend": "process",
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
