"""Worker process of the ``ea-large`` and ``table1-quick`` workloads.

``perfbench/run.py`` starts this script several times per run::

    python3 perfbench/workers.py WORKLOAD --seed N --budget S --trace 0|1

The worker imports the program, builds its inputs, makes one warm-up
fitness call (kernel resolve, block-table preparation, native library
load) and prints ``ready``; the parent's clock from spawn to that line
is one ``setup_s`` sample.  It then runs the workload's jobs back to
back until ``--budget`` seconds have passed, checks every job's
output, and prints one JSON line with the job timings, checks,
seed-pure digests, peak RSS and, when traced, the per-layer metrics.

Each job carries a key naming its inputs (``search-P-J``, search J of
worker part P; ``table-S``, the table of seed S), so the parent can
check that seed-pure digests repeat wherever the same inputs run
again: the traced and untraced workers of a traced run, and later
runs of the same seed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # setup.import_s is measured from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import common  # noqa: E402
import tracing  # noqa: E402

# Workload shapes.  "full" is the benchmark; "small" is the reduced
# size the harness self-test runs.
EA_SIZES = {
    # (patterns, pattern bits, K, L, runs, max evaluations)
    "full": (500, 128, 12, 64, 5, 1500),
    "small": (60, 64, 12, 16, 2, 120),
}
STAGNATION_LIMIT = 30  # the QUICK budget's stagnation window
TABLE1_SMALL_CIRCUITS = ("s349", "s298")

LAYERS = {
    "ea-large": ("ea", "fitness", "kernel", "huffman", "optimizer"),
    "table1-quick": ("ea", "fitness", "kernel", "huffman", "optimizer", "runner"),
}


@contextmanager
def job_span(tracer):
    """The root span of one job (a no-op when untraced)."""
    if tracer is None:
        yield
        return
    span = tracer.open("job")
    try:
        yield
    finally:
        tracer.close(span)


def warm_up(blocks, n_vectors: int, block_length: int) -> str:
    """One fitness call: resolves and prepares the kernel; its name."""
    import numpy as np

    from repro.core.fitness import BatchCompressionRateFitness
    from repro.core.trits import DC

    fitness = BatchCompressionRateFitness(
        blocks, n_vectors=n_vectors, block_length=block_length
    )
    genome = np.random.default_rng(0).integers(
        0, 3, size=n_vectors * block_length, dtype=np.int8
    )
    genome[-block_length:] = DC
    fitness.evaluate_batch(genome[None, :])
    return fitness.kernel_name


class EALarge:
    """Seeded searches at the paper's shape on the bench-large table.

    Search ``j`` of worker ``part`` has its own derived seed, so the
    searches of a run are all distinct and no one search's cost sets
    the run's figures.
    """

    def __init__(self, seed: int, size: str, part: int) -> None:
        from repro.core.config import CompressionConfig, EAParameters

        n_patterns, pattern_bits, block_length, n_vectors, runs, budget = (
            EA_SIZES[size]
        )
        self.seed = seed
        self.part = part
        self.shape = (n_patterns, pattern_bits, block_length, n_vectors)
        self.config = CompressionConfig(
            block_length=block_length,
            n_vectors=n_vectors,
            runs=runs,
            kernel="auto",
            mv_cache_persist=False,
            ea=EAParameters(
                stagnation_limit=STAGNATION_LIMIT, max_evaluations=budget
            ),
        )
        self.blocks = None

    def build_data(self) -> None:
        from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

        n_patterns, pattern_bits, block_length, _ = self.shape
        spec = SyntheticSpec(
            "bench-large",
            n_patterns=n_patterns,
            pattern_bits=pattern_bits,
            care_density=0.35,
            seed=self.seed,
        )
        self.blocks = synthetic_test_set(spec).blocks(block_length)

    def warm_up(self) -> str:
        return warm_up(self.blocks, self.config.n_vectors, self.config.block_length)

    def run_job(self, index: int, tracer) -> dict:
        """One search: every run of ``optimize``, timed run by run.

        ``optimize`` with the default serial backend is exactly this
        loop over ``build_run_tasks`` (see ``repro.core.optimizer``);
        running it here gives each run's latency without a wrapper.
        """
        from repro.core import optimizer

        search = optimizer.EAMVOptimizer(
            self.config,
            seed=common.derive_seed(self.seed, "search", self.part, index),
        )
        tasks = search.build_run_tasks(self.blocks)
        steps = []
        outcomes = []
        with job_span(tracer):
            started = time.perf_counter()
            for task in tasks:
                step_started = time.perf_counter()
                outcomes.append(optimizer.execute_run_task(task))
                steps.append(time.perf_counter() - step_started)
            seconds = time.perf_counter() - started
        result = optimizer.OptimizationResult(config=self.config, runs=tuple(outcomes))
        counts = {
            "evaluations": sum(run.ea_result.evaluations for run in result.runs),
            "generations": sum(run.ea_result.generations for run in result.runs),
            "memo_hits": sum(run.ea_result.cache_hits for run in result.runs),
        }
        return {
            "seconds": seconds,
            "steps_ms": [step * 1000.0 for step in steps],
            "key": f"search-{self.part}-{index}",
            "ok": search_ok(self.blocks, self.config, result.best_run),
            "counts": counts,
            "digest": common.digest(
                {
                    "counts": counts,
                    "rates": [repr(run.rate) for run in result.runs],
                    "best": mv_strings(result.best_mv_set),
                }
            ),
        }


def mv_strings(mv_set) -> list[str]:
    from repro.core.trits import format_trits

    return [format_trits(vector.trits) for vector in mv_set]


def search_ok(blocks, config, best_run) -> bool:
    """Re-price the best MV set, decode it, and compare rates exactly."""
    from repro.core.compressor import compress_blocks
    from repro.core.decompressor import verify_roundtrip

    compressed = compress_blocks(
        blocks, best_run.mv_set, config.strategy, fill_default=config.fill_default
    )
    try:
        verify_roundtrip(compressed)
    except AssertionError:
        return False
    return compressed.rate == best_run.rate


class Table1Quick:
    """``build_table1()`` with its defaults, as ``repro table1`` runs it.

    Worker ``part`` 0 builds the table of the workload seed itself and
    every other part the table of a seed derived from it: a build
    takes most of a worker's budget, and spreading a run's builds over
    several table seeds keeps one seed's table from setting the run's
    figures.
    """

    def __init__(self, seed: int, size: str, part: int) -> None:
        self.seed = seed if part == 0 else common.derive_seed(seed, "table1", part)
        self.size = size
        self.blocks = None

    def build_data(self) -> None:
        # The table's own test sets are generated inside the build; the
        # set here only feeds the warm-up call.
        from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

        spec = SyntheticSpec(
            "warm-up", n_patterns=40, pattern_bits=96, care_density=0.4, seed=self.seed
        )
        self.blocks = synthetic_test_set(spec).blocks(12)

    def warm_up(self) -> str:
        return warm_up(self.blocks, 64, 12)

    def run_job(self, index: int, tracer) -> dict:
        from dataclasses import replace

        from repro.experiments import runner, tables

        kwargs = {"seed": self.seed, "mv_cache_persist": False, "checkpoint": None}
        if self.size == "small":
            kwargs["circuits"] = TABLE1_SMALL_CIRCUITS
            kwargs["budget"] = replace(runner.QUICK, runs=1, max_evaluations=100)
        with job_span(tracer):
            started = time.perf_counter()
            result = tables.build_table1(**kwargs)
            seconds = time.perf_counter() - started
        rendered = tables.format_table(result)
        return {
            "seconds": seconds,
            "steps_ms": [row.seconds * 1000.0 for row in result.rows],
            "key": f"table-{self.seed}",
            "ok": bool(result.ordering_holds()),
            "counts": {"rows": len(result.rows)},
            "digest": hashlib.sha256(rendered.encode()).hexdigest()[:16],
        }


WORKLOADS = {"ea-large": EALarge, "table1-quick": Table1Quick}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # The program import is the first thing a user's process does too.
    if args.workload == "ea-large":
        import repro.core.optimizer  # noqa: F401
    else:
        import repro.experiments.tables  # noqa: F401
    imported = time.perf_counter()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, LAYERS[args.workload])
    workload = WORKLOADS[args.workload](args.seed, args.size, args.part)
    data_started = time.perf_counter()
    workload.build_data()
    data_done = time.perf_counter()
    kernel = workload.warm_up()
    ready = time.perf_counter()
    print("ready", flush=True)
    phases = {
        "import_s": imported - _STARTED,
        "data_s": data_done - data_started,
        "first_call_s": ready - data_done,
    }
    result = {"phases": phases, "kernel": kernel}
    if not args.setup_only:
        jobs = []
        deadline = ready + args.budget
        while not jobs or time.perf_counter() + jobs[-1]["seconds"] / 2 < deadline:
            try:
                job = workload.run_job(len(jobs), tracer)
            except Exception as error:  # a crashed job is a failed job
                traceback.print_exc()
                job = {"seconds": 0.0, "steps_ms": [], "ok": False, "counts": {},
                       "key": f"error-{len(jobs)}", "digest": repr(error)}
            jobs.append(job)
        result["jobs"] = jobs
    result["peak_rss_mb"] = common.peak_rss_mb()
    result["wrapped"] = tracing.wrapped_targets()
    if tracer is not None:
        tracer.uninstall()
        tracing.write_spans(tracer, f"{args.workload}-s{args.seed}")
        result["layers"] = tracing.layer_metrics(tracer.spans, "job")
        result["kernels"] = sorted(tracer.kernels)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
