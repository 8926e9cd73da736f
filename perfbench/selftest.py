"""Reduced-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a reduced input size (``--size small``), traced
and untraced, and checks the harness rather than the program:

* every declared metric is printed with its name and unit;
* a tampered ``/fitness`` byte, a wrong re-priced rate and a non-200
  status are each counted as a failed operation;
* traced self times sum to the traced wall time;
* an untraced run installs no wrappers (and a traced one does);
* seed-pure digests repeat across two runs of one seed.

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types

import common

sys.path.insert(0, str(common.SRC))

import run  # noqa: E402
import serve_load  # noqa: E402
import tracing  # noqa: E402
import workers  # noqa: E402

SEED = 11
SECONDS = "3"
FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def run_benchmark(workload: str, trace: int) -> tuple[dict, list[str]]:
    completed = subprocess.run(
        [
            sys.executable, str(common.HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
            "--size", "small",
        ],
        cwd=common.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        check(False, f"{workload} trace={trace} exited {completed.returncode}: "
                     f"{completed.stderr[-500:]}")
        return {}, lines
    return json.loads(lines[-1]), lines


def check_printed_metrics() -> None:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, lines = run_benchmark(workload, trace)
            if not result:
                continue
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{workload} trace={trace}: correct, no failed operations",
            )
            printed = {line.split(" = ")[0]: line for line in lines if " = " in line}
            missing = [
                entry["name"]
                for entry in declared
                if result["metrics"].get(entry["name"], {}).get("unit") != entry["unit"]
                or not printed.get(entry["name"], "").endswith(" " + entry["unit"])
            ]
            check(
                not missing and len(result["metrics"]) == len(declared),
                f"{workload} trace={trace}: every metric printed with name and "
                f"unit (missing: {missing})",
            )
            if workload == "ea-large" and trace == 0:
                # The same seed again: its digests must repeat.
                again, _ = run_benchmark(workload, trace)
                check(bool(again.get("correct")),
                      "ea-large: a second run of one seed reproduces its digests")


def check_failure_counting() -> None:
    # A real daemon answer, then the checks the load process applies.
    inputs = serve_load.build_inputs(SEED, "small")
    tally = serve_load.Tally()
    with serve_load.Ready(inputs, tally) as ready:
        client = ready.client
        body, expected = inputs["fitness"][0]
        status, data, _ = client.call("POST", "/fitness", body)
        tampered = bytes([data[0] ^ 1]) + data[1:]
        before = tally.failed
        tally.check(status, tampered, expected)
        check(tally.failed == before + 1, "a tampered /fitness byte is a failed operation")
        unknown = json.dumps({"table": "0" * 64, "n_vectors": 16, "genomes": ["U"]})
        status, data, _ = client.call("POST", "/fitness", unknown.encode())
        before = tally.failed
        tally.check(status, data, None)
        check(status == 404 and tally.failed == before + 1,
              "a non-200 status is a failed operation")

    # A wrong re-priced rate: the search's reported best rate is off.
    workload = workers.EALarge(SEED, "small", 0)
    workload.build_data()
    job = workload.run_job(0, None)
    check(job["ok"], "a real search re-prices to its reported rate")
    from repro.core import optimizer

    task = optimizer.EAMVOptimizer(workload.config, seed=1).build_run_tasks(
        workload.blocks
    )[0]
    best = optimizer.execute_run_task(task)
    wrong = optimizer.RunOutcome(
        run_index=best.run_index, mv_set=best.mv_set,
        rate=best.rate + 1e-9, ea_result=best.ea_result,
    )
    check(workers.search_ok(workload.blocks, workload.config, best)
          and not workers.search_ok(workload.blocks, workload.config, wrong),
          "a wrong re-priced rate fails the search check")
    outcome = run.Outcome()
    args = types.SimpleNamespace(workload="selftest", seed=SEED, size="small")
    failing = {"jobs": [dict(job), dict(job, ok=False)]}
    run.check_jobs(args, outcome, [failing])
    check(outcome.attempted == 2 and outcome.failed == 1,
          "a failed check counts as a failed operation against the attempted")


def check_tracing() -> None:
    def worker(trace: int) -> dict:
        completed = subprocess.run(
            [sys.executable, str(common.HERE / "workers.py"), "ea-large",
             "--seed", str(SEED), "--budget", "1", "--trace", str(trace),
             "--size", "small"],
            cwd=common.ROOT, env=common.hermetic_env(),
            capture_output=True, text=True, timeout=120,
        )
        return json.loads(completed.stdout.splitlines()[-1])

    untraced = worker(0)
    check(untraced["wrapped"] == [] and "layers" not in untraced,
          "an untraced run installs no wrappers")
    traced = worker(1)
    check(len(traced["wrapped"]) >= 5, "a traced run installs the layer wrappers")
    layers = traced["layers"]
    spans, _ = tracing.read_spans(tracing.spans_path(f"ea-large-s{SEED}"))
    own = tracing.self_times(spans)
    jobs = [span for span in spans if span.name == "job"]
    under_jobs = tracing.descendants(spans, {span.id for span in jobs})
    self_sum = sum(own[span.id] for span in under_jobs)
    wall = sum(span.duration for span in jobs)
    check(
        abs(self_sum - wall) <= 1e-9 * max(1.0, wall)
        and abs(layers["trace.self_sum_s"] - layers["trace.root_sum_s"]) <= 1e-9,
        f"traced self times sum to the traced wall time ({self_sum:.6f} s vs {wall:.6f} s)",
    )
    names = {span.name for span in under_jobs}
    check({"job", "optimizer", "ea", "fitness", "kernel", "huffman"} <= names,
          f"traced spans cover every ea-large layer ({sorted(names)})")


def main() -> int:
    check_tracing()
    check_failure_counting()
    check_printed_metrics()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
