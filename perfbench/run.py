"""End-to-end benchmark of the EA test-compression program, one command.

    python3 perfbench/run.py --workload ea-large --seed 2005 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  Workloads (their metrics and what each per-layer metric
should move are listed in ``perfbench/metrics.json``):

``ea-large``
    Seeded ``EAMVOptimizer`` searches back to back at the paper's
    shape (S = 10, C = 5, K = 12, L = 64, 5 runs, QUICK budget of
    1500 evaluations per run) on the 500x128 bench-large table.
    Fitness-bound, with the MV dedup path engaged on every call.
``table1-quick``
    ``build_table1()`` with its defaults (the 13 quick rows, QUICK
    budget, serial) — what ``repro table1`` runs; the workload seed is
    the table seed.  Engine- and runner-bound on small tables where
    the dedup path never engages.
``serve-mixed``
    One ``repro serve`` daemon, one load process, two keep-alive
    connections: a remote EA replaying seeded generations as
    ``/fitness`` requests, and seeded ``/compress`` searches beside it.

End-to-end metrics, the same names on every workload (``job`` is a
search, a table build or a ``/compress`` request; ``step`` is one EA
run of a search, one table row or one ``/fitness`` round trip):
``job_s``, ``step_ms_p50``, ``step_ms_p90``, ``setup_s`` (spawn to
first timed operation ready, median of several spawns per run) and
``peak_rss_mb`` (of the process doing the work).  ``--trace 1`` runs
the workload once untraced and once with the layer wrappers of
``perfbench/tracing.py`` installed, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time

import common

WORKLOADS = ("ea-large", "table1-quick", "serve-mixed")
# (processes doing the work, extra spawns that only time the set-up)
WORKER_PLAN = {"ea-large": (3, 2), "table1-quick": (2, 3)}
# A run must end within 180 s; children are stopped past this point.
RUN_LIMIT_S = 170.0
# Per-layer metrics a workload has no layer for (reported as 0).
NOT_APPLICABLE = {
    "ea-large": ("serve.", "runner.", "setup.register_s"),
    "table1-quick": ("serve.", "setup.register_s"),
    "serve-mixed": ("runner.",),
}


class BenchmarkError(RuntimeError):
    """A child process failed; the run prints no result."""


def stop_child(process: subprocess.Popen) -> None:
    """SIGTERM (children clean up their own children), then SIGKILL."""
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()


def run_child(command: list[str], timeout: float, ready_line: bool) -> tuple[float | None, dict]:
    """Run a benchmark child; ``(spawn-to-ready seconds, its JSON result)``.

    With ``ready_line`` the child prints ``ready`` once set up, and the
    first return value is the time from spawn to that line.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        env=common.hermetic_env(),
        cwd=common.ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(timeout, stop_child, [process])
    watchdog.start()
    try:
        ready = None
        if ready_line:
            line = process.stdout.readline()
            ready = time.perf_counter() - started
            if line.strip() != "ready":
                raise BenchmarkError(f"{command[1]} did not get ready: {line!r}")
        lines = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or not lines:
        raise BenchmarkError(f"{' '.join(command[1:3])} exited with {code}")
    return ready, json.loads(lines[-1])


def worker(args, budget: float, trace: int, part: int = 0, setup_only: bool = False):
    command = [
        sys.executable, str(common.HERE / "workers.py"), args.workload,
        "--seed", str(args.seed), "--budget", str(budget),
        "--trace", str(trace), "--size", args.size, "--part", str(part),
    ]
    if setup_only:
        command.append("--setup-only")
    return run_child(command, remaining(args), ready_line=True)


def remaining(args) -> float:
    return max(1.0, args.deadline - time.perf_counter())


def preflight() -> dict:
    """Compile the native kernel and the bytecode once; report the toolchain.

    Runs before any timed spawn, so neither compile lands in
    ``setup_s``; later loads of the cached library are a dlopen.
    """
    probe = (
        "import json, numpy\n"
        "import repro.cli, repro.experiments.tables, repro.serve\n"
        "from repro.core.kernels.native import native_status\n"
        "available, reason = native_status()\n"
        "print(json.dumps({'numpy': numpy.__version__,"
        " 'native': available, 'native_reason': reason}))\n"
    )
    _, info = run_child([sys.executable, "-c", probe], 900.0, ready_line=False)
    return info


class Outcome:
    """Attempted/failed operations and correctness of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"# problem: {text}", flush=True)


def check_jobs(args, outcome: Outcome, results: list[dict]) -> list[dict]:
    """Count the workers' jobs; check seed-pure digests repeat."""
    jobs = [job for result in results for job in result["jobs"]]
    outcome.attempted += len(jobs)
    outcome.failed += sum(not job["ok"] for job in jobs)
    by_key: dict[str, set[str]] = {}
    for job in jobs:
        by_key.setdefault(job["key"], set()).add(job["digest"])
    for key, values in sorted(by_key.items()):
        if len(values) > 1:
            outcome.problem(f"{key} differs between processes: {sorted(values)}")
    record = {key: min(values) for key, values in by_key.items()}
    for key in common.check_seed_record(args.workload, args.seed, args.size, record):
        outcome.problem(f"{key} differs from an earlier run of seed {args.seed}")
    return jobs


def timed_jobs(jobs: list[dict]) -> list[dict]:
    return [job for job in jobs if job["seconds"] > 0]


def run_workers(args, outcome: Outcome) -> tuple[dict, dict]:
    """ea-large / table1-quick: metrics and provenance extras."""
    n_work, n_setup_only = WORKER_PLAN[args.workload]
    if args.trace:
        _, plain = worker(args, args.seconds / 2, trace=0)
        _, traced = worker(args, args.seconds / 2, trace=1)
        check_jobs(args, outcome, [plain, traced])
        if plain["wrapped"]:
            outcome.problem(f"untraced worker had wrappers: {plain['wrapped']}")
        layers = dict(traced["layers"])
        layers.update(
            {f"setup.{name}": value for name, value in traced["phases"].items()}
        )
        untraced_s = common.median([job["seconds"] for job in timed_jobs(plain["jobs"])])
        traced_s = common.median([job["seconds"] for job in timed_jobs(traced["jobs"])])
        layers["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
        extras = {"kernel": traced["kernel"], "kernels_traced": traced["kernels"]}
        print(
            f"# traced self-time sum {layers['trace.self_sum_s']:.6f} s"
            f" = job wall sum {layers['trace.root_sum_s']:.6f} s",
            flush=True,
        )
        return layers, extras

    setup = []
    for _ in range(n_setup_only):
        ready, _ = worker(args, 0.0, trace=0, setup_only=True)
        setup.append(ready)
    results = []
    for part in range(n_work):
        ready, result = worker(args, args.seconds / n_work, trace=0, part=part)
        setup.append(ready)
        results.append(result)
    jobs = check_jobs(args, outcome, results)
    for result in results:
        if result["wrapped"]:
            outcome.problem(f"untraced worker had wrappers: {result['wrapped']}")
    timed = timed_jobs(jobs)
    steps = [step for job in timed for step in job["steps_ms"]]
    metrics = {
        "job_s": common.median([job["seconds"] for job in timed]),
        "step_ms_p50": common.median(steps),
        "step_ms_p90": common.p90(steps),
        "setup_s": common.median(setup),
        "peak_rss_mb": common.median([result["peak_rss_mb"] for result in results]),
    }
    extras = {
        "kernel": results[0]["kernel"],
        "jobs": len(jobs),
        "steps": len(steps),
        "setup_samples": setup,
    }
    if args.workload == "ea-large":
        extras["evals_per_s"] = common.median(
            [job["counts"]["evaluations"] / job["seconds"] for job in timed]
        )
    return metrics, extras


def run_serve(args, outcome: Outcome) -> tuple[dict, dict]:
    command = [
        sys.executable, str(common.HERE / "serve_load.py"),
        "--seed", str(args.seed), "--budget", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
    ]
    _, result = run_child(command, remaining(args), ready_line=False)
    outcome.attempted += result["attempted"]
    outcome.failed += result["failed"]
    if any(result["exit_codes"]):
        outcome.problem(f"daemon exit codes {result['exit_codes']} (drain failed)")
    for key in common.check_seed_record(
        args.workload, args.seed, args.size, result["digests"]
    ):
        outcome.problem(f"{key} differs from an earlier run of seed {args.seed}")
    extras = {"kernel": result["kernel"]}
    if args.trace:
        layers = dict(result["layers"])
        layers["trace.overhead_pct"] = (
            common.median(result["traced_compress_s"])
            / common.median(result["compress_s"])
            - 1.0
        ) * 100.0
        extras["kernels_traced"] = result["kernels"]
        return layers, extras
    metrics = {
        "job_s": common.median(result["compress_s"]),
        "step_ms_p50": common.median(result["fitness_ms"]),
        "step_ms_p90": common.p90(result["fitness_ms"]),
        "setup_s": common.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extras.update(
        jobs=len(result["compress_s"]),
        steps=len(result["fitness_ms"]),
        setup_samples=result["setup_s"],
    )
    return metrics, extras


def select_metrics(workload: str, values: dict, declared: list[dict]) -> dict:
    """The declared metrics with their units, in declaration order."""
    skipped = NOT_APPLICABLE[workload]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in values:
            value = float(values[name])
        elif name.startswith(skipped):
            value = 0.0
        else:
            raise BenchmarkError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def seed_value(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    default_seed = json.loads((common.HERE / "metrics.json").read_text())["default_seed"]
    parser.add_argument("--seed", type=seed_value, default=default_seed)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Reduced inputs for the harness self-test (perfbench/selftest.py).
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
    try:
        toolchain = preflight()
        args.deadline = time.perf_counter() + RUN_LIMIT_S
        outcome = Outcome()
        if args.workload == "serve-mixed":
            values, extras = run_serve(args, outcome)
        else:
            values, extras = run_workers(args, outcome)
        metrics = select_metrics(args.workload, values, declared)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": common.reported_env(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **toolchain,
        **extras,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
