#!/usr/bin/env python
"""Emit benchmark trajectory artifacts (``BENCH_*.json``).

Three artifacts, all small and diffable so future PRs re-run this
script and catch regressions:

* ``BENCH_fitness.json`` — times the three pricing paths of
  ``bench_batch.py`` (pinned pre-batching reference, one genome per
  ``evaluate_batch`` call as the ``scalar_wrapper`` row, batched
  generation kernel) on the
  small/medium/large synthetic workloads: genomes/second plus
  batched-over-reference and batched-over-scalar speedups.  A
  ``kernel_comparison`` section times the batched pipeline under
  every usable covering kernel (bitpack, native) on the
  same workloads plus the ``wide`` K = 96 one, recording the
  native-over-bitpack speedup and what ``auto`` would pick.  A
  ``stage_breakdown`` section splits one batched call into its
  pack / cover / huffman stages (so a future regression can be
  localized, not just detected).  ``cpu_count`` is recorded as
  provenance.
* ``BENCH_parallel.json`` — runs/second of the multi-run EA fan-out
  through the serial and process backends at jobs ∈ {1, 2, 4, 8}
  (``bench_parallel.scaling_report``), with ``cpu_count`` recorded so
  scaling is judged against the machine's ceiling.
* ``BENCH_serve.json`` — requests/second of the serve daemon: cold
  one-shot, warm serial and warm + batched over HTTP
  (``bench_serve.serve_report``).

::

    PYTHONPATH=src python benchmarks/run_bench.py \\
        [--output BENCH_fitness.json] [--parallel-output BENCH_parallel.json] \\
        [--serve-output BENCH_serve.json] \\
        [--fitness-only | --parallel-only | --serve-only]
    PYTHONPATH=src python benchmarks/run_bench.py --check \\
        [--check-tolerance 0.30]

``--check`` is the regression gate: it re-measures every workload
and compares the *hardware-normalized* batched-vs-reference speedup
against the committed ``BENCH_fitness.json``, exiting nonzero if any
workload's speedup fell by more than ``--check-tolerance`` (default
30%).  Both paths run in the same process, so the gate is meaningful
on any machine — including CI's bench lane, which runs it on every
push; raw genomes/second are printed for context only.

Nothing is timed unless it prices correctly: a fitness workload
needs exactly equal reference, batched and batch-of-one rates on its
first 16 genomes, the kernel rows need bit-identical rates from every
kernel, and each process-pool row needs the serial run's rates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from bench_batch import (  # noqa: E402
    KERNEL_WORKLOADS,
    KERNELS,
    WORKLOADS,
    build_kernel_workload,
    reference_scalar_fitness,
    stage_timings,
)
from repro.core.fitness import BatchCompressionRateFitness  # noqa: E402
from repro.core.kernels import select_kernel_name  # noqa: E402
from repro.ea.genome import random_genome  # noqa: E402
from repro.io_utils import atomic_write_json  # noqa: E402
from repro.testdata.synthetic import synthetic_test_set  # noqa: E402

def best_seconds(function, repeats: int) -> float:
    """Best-of-N wall time — robust to noisy shared machines."""
    function()  # warm caches and allocations
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def bench_workload(name: str, repeats: int) -> dict:
    """Reference / wrapper / batched throughput on one workload.

    This row feeds the ``--check`` regression gate, which exists to
    guard the covering kernels.
    """
    spec, block_length, n_vectors, batch_size = WORKLOADS[name]
    blocks = synthetic_test_set(spec).blocks(block_length)
    rng = np.random.default_rng(spec.seed)
    genomes = np.stack(
        [random_genome(n_vectors * block_length, rng) for _ in range(batch_size)]
    )
    genomes[:, -block_length:] = 2

    reference = reference_scalar_fitness(blocks, n_vectors, block_length)
    # The ``scalar_wrapper`` row (key kept for the artifact's history)
    # prices one genome per ``evaluate_batch`` call.
    scalar = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length
    )
    batch = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length
    )
    sample = genomes[:16]
    assert (
        batch.evaluate_batch(sample).tolist()
        == [reference(genome) for genome in sample]
        == [scalar.evaluate_batch(genome[None, :])[0] for genome in sample]
    ), "pricing paths disagree; refusing to benchmark"

    seconds = {
        "reference_scalar": best_seconds(
            lambda: [reference(genome) for genome in genomes], repeats
        ),
        "scalar_wrapper": best_seconds(
            lambda: [scalar.evaluate_batch(genome[None, :]) for genome in genomes],
            repeats,
        ),
        "batched": best_seconds(lambda: batch.evaluate_batch(genomes), repeats),
    }
    throughput = {
        path: batch_size / elapsed for path, elapsed in seconds.items()
    }
    return {
        "workload": name,
        "n_patterns": spec.n_patterns,
        "pattern_bits": spec.pattern_bits,
        "block_length": block_length,
        "n_vectors": n_vectors,
        "batch_size": batch_size,
        "n_distinct_blocks": blocks.n_distinct,
        "genomes_per_second": {
            path: round(value, 1) for path, value in throughput.items()
        },
        "speedup_batched_vs_reference": round(
            throughput["batched"] / throughput["reference_scalar"], 2
        ),
        "speedup_batched_vs_scalar_wrapper": round(
            throughput["batched"] / throughput["scalar_wrapper"], 2
        ),
    }


def bench_kernels(name: str, repeats: int) -> dict:
    """Per-kernel throughput of the batched pipeline on one workload."""
    blocks, block_length, n_vectors, genomes = build_kernel_workload(name)
    batch_size = len(genomes)
    fitnesses = {
        kernel: BatchCompressionRateFitness(
            blocks,
            n_vectors=n_vectors,
            block_length=block_length,
            kernel=kernel,
        )
        for kernel in KERNELS
    }
    sample_rates = [
        fitness.evaluate_batch(genomes[:8]) for fitness in fitnesses.values()
    ]
    assert all(
        (rates == sample_rates[0]).all() for rates in sample_rates
    ), "kernels disagree; refusing to benchmark"

    throughput = {
        kernel: batch_size
        / best_seconds(lambda f=fitness: f.evaluate_batch(genomes), repeats)
        for kernel, fitness in fitnesses.items()
    }
    row = {
        "workload": name,
        "block_length": block_length,
        "n_vectors": n_vectors,
        "batch_size": batch_size,
        "n_distinct_blocks": blocks.n_distinct,
        "genomes_per_second": {
            kernel: round(value, 1) for kernel, value in throughput.items()
        },
        "auto_selects": select_kernel_name(),
    }
    if "native" in throughput:
        row["speedup_native_vs_bitpack"] = round(
            throughput["native"] / throughput["bitpack"], 2
        )
    return row


def bench_stages(name: str, repeats: int, kernel: str = "auto") -> dict:
    """Per-stage seconds of one batched call under one kernel choice.

    The default row uses ``auto`` (the shipped configuration — with a
    toolchain that resolves to ``native``); explicit rows pin a named
    kernel so the breakdown records what ``auto`` replaced.
    """
    blocks, block_length, n_vectors, genomes = build_kernel_workload(name)
    fitness = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length, kernel=kernel
    )
    timings = stage_timings(fitness, genomes, repeats)
    total = sum(timings.values())
    return {
        "workload": name,
        "kernel": fitness.kernel_name,
        "batch_size": len(genomes),
        "seconds": {stage: round(value, 6) for stage, value in timings.items()},
        "fraction": {
            stage: round(value / total, 3) for stage, value in timings.items()
        },
    }


def emit_fitness_artifact(output: Path, repeats: int) -> None:
    document = {
        "benchmark": "batched fitness engine (cover + Huffman + price)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Provenance: throughput scales with the machine.
        "cpu_count": os.cpu_count(),
        "workloads": [
            bench_workload(name, repeats) for name in sorted(WORKLOADS)
        ],
        "kernel_comparison": [
            bench_kernels(name, repeats) for name in sorted(KERNEL_WORKLOADS)
        ],
        "stage_breakdown": [
            bench_stages(name, repeats, kernel=kernel)
            for name in sorted(KERNEL_WORKLOADS)
            # With a toolchain, auto resolves to native; a pinned
            # bitpack row records what the compiled loop replaced.
            for kernel in (
                ("auto", "bitpack") if "native" in KERNELS else ("auto",)
            )
        ],
    }
    atomic_write_json(output, document)
    for row in document["workloads"]:
        print(
            f"{row['workload']:>7}: batched {row['genomes_per_second']['batched']:>9}/s  "
            f"vs reference ×{row['speedup_batched_vs_reference']}  "
            f"vs wrapper ×{row['speedup_batched_vs_scalar_wrapper']}"
        )
    for row in document["kernel_comparison"]:
        rates = row["genomes_per_second"]
        print(
            f"{row['workload']:>7} kernels: "
            + "  ".join(f"{kernel}={rates[kernel]}/s" for kernel in sorted(rates))
            + (
                f"  native/bitpack ×{row['speedup_native_vs_bitpack']}"
                if "speedup_native_vs_bitpack" in row
                else ""
            )
            + f"  (auto → {row['auto_selects']})"
        )
    for row in document["stage_breakdown"]:
        fractions = row["fraction"]
        print(
            f"{row['workload']:>7} stages ({row['kernel']}): "
            + "  ".join(
                f"{stage}={fractions[stage]:.0%}" for stage in fractions
            )
        )
    print(f"wrote {output}")


def check_against_committed(
    committed_path: Path, repeats: int, tolerance: float
) -> int:
    """Regression gate: fresh batched speed vs the committed artifact.

    The gated metric is ``speedup_batched_vs_reference`` — the batched
    path against the pinned pre-batching reference, both measured *in
    this process on this machine* — so the comparison with the
    committed artifact is hardware-normalized: a slower CI runner
    slows numerator and denominator alike, and only a genuine change
    in the batched path's relative speed moves the ratio.  Raw
    genomes/second are printed for context but never gate (they track
    the machine, not the code).  A workload that lands below tolerance
    is re-measured once before being declared regressed, so a single
    noisy-runner spike (another job stealing the cores mid-measurement)
    cannot fail the build spuriously.  Returns a process exit code —
    nonzero when any workload's speedup fell more than ``tolerance``
    below the committed one on both measurements.
    """
    committed = json.loads(committed_path.read_text())
    failures = []
    print(
        f"checking against {committed_path} (tolerance {tolerance:.0%}, "
        "metric: batched-vs-reference speedup)"
    )
    for row in committed["workloads"]:
        name = row["workload"]
        old = row["speedup_batched_vs_reference"]
        fresh = bench_workload(name, repeats)
        new = fresh["speedup_batched_vs_reference"]
        ratio = new / old
        retried = ""
        if ratio < 1.0 - tolerance:
            fresh = bench_workload(name, repeats)
            new = fresh["speedup_batched_vs_reference"]
            ratio = new / old
            retried = " [re-measured]"
        verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(
            f"{name:>7}: speedup committed ×{old}  fresh ×{new}  "
            f"(ratio {ratio:.2f}; fresh batched "
            f"{fresh['genomes_per_second']['batched']}/s)  {verdict}{retried}"
        )
        if verdict != "ok":
            failures.append(name)
    if failures:
        print(f"regression gate FAILED for: {', '.join(failures)}")
        return 1
    print("regression gate passed")
    return 0


def emit_parallel_artifact(output: Path, repeats: int) -> None:
    from bench_parallel import scaling_report

    document = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **scaling_report(repeats=repeats),
    }
    atomic_write_json(output, document)
    for row in document["results"]:
        print(
            f"{row['backend']:>8} jobs={row['jobs']}: "
            f"{row['runs_per_second']:>6}/s  ×{row['speedup_vs_serial']} vs serial"
        )
    print(
        f"wrote {output} (cpu_count={document['cpu_count']}; speedups are "
        "bounded by available cores)"
    )


def emit_serve_artifact(output: Path) -> None:
    from bench_serve import serve_report

    document = {
        "benchmark": "serve daemon (warm state + cross-request batching)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        # One process, one machine: daemon throughput is bounded by
        # cpu_count — on a single core the win is warm state and
        # fewer kernel passes, not parallelism.
        "cpu_count": os.cpu_count(),
        **serve_report(),
    }
    atomic_write_json(output, document)
    cold = document["cold_per_request"]["requests_per_second"]
    print(f"cold per-request: {cold}/s")
    print(
        f"warm serial: {document['warm_serial']['requests_per_second']}/s  "
        f"×{document['warm_serial']['speedup_vs_cold']} vs cold"
    )
    for row in document["daemon"]:
        print(
            f"daemon c={row['concurrency']:>2}: "
            f"{row['requests_per_second']:>7}/s  "
            f"mean occupancy {row['mean_batch_occupancy']}"
        )
    print(
        f"wrote {output} (cpu_count={document['cpu_count']}; "
        f"warm+batched@64 ×{document['speedup_warm_batched_64_vs_cold']} "
        "vs cold)"
    )


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=root / "BENCH_fitness.json",
        help="where to write the fitness JSON artifact",
    )
    parser.add_argument(
        "--parallel-output",
        type=Path,
        default=root / "BENCH_parallel.json",
        help="where to write the parallel-scaling JSON artifact",
    )
    parser.add_argument(
        "--serve-output",
        type=Path,
        default=root / "BENCH_serve.json",
        help="where to write the serve-daemon JSON artifact",
    )
    parser.add_argument(
        "--repeats", type=int, default=7, help="best-of-N timing repeats"
    )
    only = parser.add_mutually_exclusive_group()
    only.add_argument(
        "--fitness-only",
        action="store_true",
        help="emit only the fitness artifact",
    )
    only.add_argument(
        "--parallel-only",
        action="store_true",
        help="emit only the parallel artifact",
    )
    only.add_argument(
        "--serve-only",
        action="store_true",
        help="emit only the serve-daemon artifact",
    )
    only.add_argument(
        "--check",
        action="store_true",
        help=(
            "regression mode: re-measure batched genomes/s and exit "
            "nonzero if any workload is slower than the committed "
            "artifact by more than --check-tolerance"
        ),
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=0.30,
        help="allowed fractional slowdown before --check fails (default 0.30)",
    )
    args = parser.parse_args()

    if args.check:
        raise SystemExit(
            check_against_committed(
                args.output, args.repeats, args.check_tolerance
            )
        )
    if not args.parallel_only and not args.serve_only:
        emit_fitness_artifact(args.output, args.repeats)
    if not args.fitness_only and not args.serve_only:
        # Multi-run EA timings are much coarser than single-kernel ones;
        # cap the repeats so a refresh stays in minutes.
        emit_parallel_artifact(args.parallel_output, min(args.repeats, 3))
    if not args.fitness_only and not args.parallel_only:
        # Whole-request timings over HTTP: repeats would re-measure
        # connection jitter, so the serve bench times one full sweep.
        emit_serve_artifact(args.serve_output)


if __name__ == "__main__":
    main()
