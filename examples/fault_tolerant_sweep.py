"""Fault-tolerant sweeps: retries, chaos injection, and resume.

Run with::

    python examples/fault_tolerant_sweep.py

Long seeded sweeps meet transient faults — a worker OOM-killed, a
wedged filesystem call.  This script demonstrates the three layers
that keep a sweep alive without ever changing its results:

1. a :class:`repro.parallel.RetryPolicy` absorbing injected transient
   failures (the chaos harness makes the faults reproducible);
2. a checkpoint journal that lets an interrupted sweep resume instead
   of restarting, byte-identical to an uninterrupted run;
3. fault accounting (:class:`repro.parallel.FaultToleranceStats`)
   surfacing what was absorbed.

The CLI equivalent::

    python -m repro table1 --circuits s298 --seed 11 \\
        --jobs 4 --retries 2 --task-timeout 600 --resume
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.config import CompressionConfig, EAParameters
from repro.core.optimizer import EAMVOptimizer, execute_run_task
from repro.experiments.checkpoint import CheckpointStore
from repro.parallel import (
    Fault,
    FaultPlan,
    FaultToleranceStats,
    ProcessBackend,
    RetryPolicy,
    chaos_wrap,
    grouped_map,
)
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set


def main() -> None:
    scratch = Path(tempfile.mkdtemp())
    spec = SyntheticSpec(
        name="chaos-demo", n_patterns=64, pattern_bits=64,
        care_density=0.5, seed=7,
    )
    blocks = synthetic_test_set(spec).blocks(12)
    ea = EAParameters(stagnation_limit=20, max_evaluations=800)
    config = CompressionConfig(block_length=12, n_vectors=16, runs=3, ea=ea)

    # The clean reference: three seeded EA runs, no faults.
    baseline = EAMVOptimizer(config, seed=42).optimize(blocks)
    print(f"baseline: mean rate {baseline.mean_rate:.2f}%")

    # 1. Inject a reproducible fault: run 1 fails its first attempt
    #    with a retryable error.  A RetryPolicy absorbs it — same
    #    results, one extra attempt.
    plan = FaultPlan(
        state_dir=scratch / "chaos",
        faults={"K12L16r1": {0: Fault("raise")}},
    )
    tasks = EAMVOptimizer(config, seed=42).build_run_tasks(blocks)
    stats = FaultToleranceStats()
    outcomes = ProcessBackend(3).map(
        chaos_wrap(execute_run_task, plan),
        tasks,
        retry=RetryPolicy(max_attempts=3),
        stats=stats,
    )
    assert [o.rate for o in outcomes] == [r.rate for r in baseline.runs]
    print(f"chaos absorbed: {stats.summary()} — results identical")

    # 2. Checkpoint/resume: journal every completed run, then rerun —
    #    the journal serves all three runs instead of re-searching.
    store = CheckpointStore(root=scratch / "checkpoints")
    for attempt in ("cold", "resumed"):
        stats = FaultToleranceStats()
        cache = store.cache("demo:seed42", stats=stats)
        tasks = EAMVOptimizer(config, seed=42).build_run_tasks(blocks)
        grouped = grouped_map(
            ProcessBackend(3), execute_run_task, [("demo", tasks)],
            cache=cache, stats=stats,
        )
        rates = [outcome.rate for outcome in grouped[0]]
        assert rates == [run.rate for run in baseline.runs]
        print(
            f"{attempt} sweep: rates identical, "
            f"{stats.resumed}/{len(tasks)} runs served from the journal"
        )


if __name__ == "__main__":
    main()
