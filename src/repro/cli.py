"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``      Reproduce Table 1 (stuck-at); quick subset by default.
``table2``      Reproduce Table 2 (path delay); quick subset by default.
``compress``    Compress a test-set file (one ``0/1/X`` pattern per line).
``atpg``        Generate a stuck-at test set for a library circuit and
                compress it with all methods.
``ablate``      Run one of the ablation studies on a calibrated test set.
``kernels``     List the covering-kernel backends with availability
                (e.g. ``native: unavailable — no C compiler found``)
                and, with ``--shape C,D,L,K``, the ``auto`` pick.
``cache``       Inspect or clear the on-disk native kernel builds
                (``list``/``info``/``clear``).
``serve``       Run the long-lived compression daemon: warm per-table
                state, cross-request batching, ``/compress`` ``/fitness``
                ``/tables`` ``/healthz`` ``/stats`` (see docs/serve.md).
``request``     Execute one serve-protocol JSON request offline and
                print the canonical response — the byte-parity
                reference for served responses.

Examples
--------
::

    python -m repro table1 --circuits s349 s298 --seed 1
    python -m repro table1 --full --budget paper --jobs 0
    python -m repro table1 --full --budget paper --jobs 0 --resume
    python -m repro compress my_tests.txt --k 12 --l 64
    python -m repro atpg c17
    python -m repro ablate kl --circuit s349 --jobs 4

Every run command takes ``--jobs N`` (1 = serial, 0 = all CPU cores)
and ``--backend {process,thread}``; results are independent of both —
the same seed gives the same table at any job count.  The covering
kernel is the fitness layer's own choice (``repro kernels`` shows it)
and never changes a result either.

Fault tolerance: ``--retries N`` re-attempts transient failures
(worker crashes, hangs cut short by ``--task-timeout SECONDS``) with
deterministic backoff, and ``--resume`` (table/ablate/report
commands) journals every completed EA run under ``REPRO_CACHE_DIR``
so an interrupted sweep restarted with ``--resume`` skips work it
already finished.  None of these can change seeded output — a
retried or resumed table is byte-identical to an uninterrupted one;
absorbed faults are summarized on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.compressor import compress_blocks
from .core.config import CompressionConfig, EAParameters
from .core.nine_c import compress_nine_c
from .core.optimizer import EAMVOptimizer
from .parallel import ExecutionBackend, RetryPolicy, resolve_backend
from .testdata.calibration import calibrate_spec
from .testdata.registry import TABLE1_STUCK_AT, row_by_name
from .testdata.synthetic import SyntheticSpec
from .testdata.test_set import TestSet

__all__ = ["main"]


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The parallel-execution knobs shared by every run command."""
    _add_jobs_argument(parser)
    parser.add_argument(
        "--backend",
        choices=("process", "thread"),
        default="process",
        help="pool flavor used when --jobs asks for parallelism",
    )
    _add_retries_argument(parser)
    _add_task_timeout_argument(parser)


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers: 1 = serial (default), 0 = all CPU cores",
    )


def _add_retries_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "re-attempts granted to each work unit after a transient "
            "failure (worker crash, timeout, injected fault) with "
            "deterministic exponential backoff; 0 disables retries; "
            "seeded results are byte-identical regardless (default 1)"
        ),
    )


def _add_task_timeout_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-attempt wall-clock budget on pool backends: an "
            "overdue work unit is abandoned and (given --retries) "
            "re-run on a fresh slot; ignored by the serial backend"
        ),
    )


def _resolve_backend(arguments: argparse.Namespace) -> ExecutionBackend:
    return resolve_backend(arguments.jobs, arguments.backend)


def _check_execution_arguments(arguments: argparse.Namespace) -> None:
    """Reject bad ``--retries``/``--task-timeout`` before any work."""
    retries = getattr(arguments, "retries", 0)
    if retries < 0:
        raise ValueError(f"--retries must be >= 0, got {retries}")
    timeout = getattr(arguments, "task_timeout", None)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"--task-timeout must be > 0, got {timeout}")


def _retry_policy(arguments: argparse.Namespace) -> RetryPolicy | None:
    """``--retries N`` as N+1 attempts; 0 disables retrying."""
    if arguments.retries == 0:
        return None
    return RetryPolicy(max_attempts=arguments.retries + 1)


def _resolve_fault_tolerance(
    arguments: argparse.Namespace,
) -> tuple[RetryPolicy | None, float | None]:
    """``(retry, timeout)`` from ``--retries``/``--task-timeout``."""
    return _retry_policy(arguments), arguments.task_timeout


def _resolve_checkpoint(arguments: argparse.Namespace):
    """A ``CheckpointStore`` when ``--resume`` is on, else ``None``."""
    if not getattr(arguments, "resume", False):
        return None
    from .experiments import CheckpointStore

    return CheckpointStore.default()


def _print_fault_summary(stats: dict[str, int]) -> None:
    """Absorbed-fault accounting on stderr (stdout stays byte-stable)."""
    eventful = {
        key: value
        for key, value in stats.items()
        if value and key != "attempts"
    }
    if not eventful:
        return
    rendered = " ".join(f"{key}={value}" for key, value in eventful.items())
    print(f"fault tolerance: {rendered}", file=sys.stderr)


def _add_table_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--full", action="store_true", help="run every circuit in the table"
    )
    parser.add_argument(
        "--circuits", nargs="*", default=None, help="explicit circuit subset"
    )
    parser.add_argument(
        "--budget",
        choices=("quick", "paper"),
        default="quick",
        help="EA effort per row (paper = 5 runs, 500-gen stagnation)",
    )
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "journal completed EA runs under REPRO_CACHE_DIR and skip "
            "work already journaled by a previous --resume run of the "
            "same seeded sweep (byte-identical output either way)"
        ),
    )
    _add_execution_arguments(parser)


def _table_command(arguments: argparse.Namespace, which: int) -> int:
    from .experiments import (
        PAPER,
        QUICK,
        build_table1,
        build_table2,
        format_table,
        shape_check_markdown,
    )

    budget = PAPER if arguments.budget == "paper" else QUICK
    builder = build_table1 if which == 1 else build_table2
    if arguments.circuits:
        circuits = arguments.circuits
    elif arguments.full:
        circuits = None
    else:
        from .experiments import DEFAULT_QUICK_TABLE1, DEFAULT_QUICK_TABLE2

        circuits = DEFAULT_QUICK_TABLE1 if which == 1 else DEFAULT_QUICK_TABLE2
    retry, timeout = _resolve_fault_tolerance(arguments)
    result = builder(
        circuits=circuits,
        budget=budget,
        seed=arguments.seed,
        progress=print,
        backend=_resolve_backend(arguments),
        retry=retry,
        timeout=timeout,
        checkpoint=_resolve_checkpoint(arguments),
    )
    print()
    print(format_table(result))
    print()
    print(shape_check_markdown(result))
    _print_fault_summary(result.fault_stats())
    return 0


def _print_pareto_front(blocks, config, arguments: argparse.Namespace) -> int:
    """Run the NSGA-II mode and print the merged Pareto front."""
    from .experiments import (
        OBJECTIVE_SETS,
        build_pareto_front,
        pareto_markdown,
    )

    retry, timeout = _resolve_fault_tolerance(arguments)
    result = build_pareto_front(
        blocks,
        config,
        OBJECTIVE_SETS[arguments.objectives],
        seed=arguments.seed,
        backend=_resolve_backend(arguments),
        retry=retry,
        timeout=timeout,
    )
    print(pareto_markdown(result), end="")
    return 0


def _compress_command(arguments: argparse.Namespace) -> int:
    lines = [
        line.strip()
        for line in Path(arguments.file).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    test_set = TestSet.from_strings(Path(arguments.file).stem, lines)
    print(f"loaded {test_set!r}")
    blocks8 = test_set.blocks(8)
    print(f"9C     rate: {compress_nine_c(blocks8).rate:6.2f}%")
    print(
        f"9C+HC  rate: {compress_nine_c(blocks8, use_huffman=True).rate:6.2f}%"
    )
    config = CompressionConfig(
        block_length=arguments.k,
        n_vectors=arguments.l,
        runs=arguments.runs,
        ea=EAParameters(
            stagnation_limit=arguments.stagnation,
            max_evaluations=arguments.max_evaluations,
        ),
    )
    if arguments.objectives != "rate":
        return _print_pareto_front(
            test_set.blocks(arguments.k), config, arguments
        )
    optimizer = EAMVOptimizer(
        config, seed=arguments.seed, backend=_resolve_backend(arguments)
    )
    retry, timeout = _resolve_fault_tolerance(arguments)
    result = optimizer.optimize(
        test_set.blocks(arguments.k), retry=retry, timeout=timeout
    )
    print(
        f"EA     rate: {result.mean_rate:6.2f}% mean, "
        f"{result.best_rate:6.2f}% best over {config.runs} runs"
    )
    compressed = compress_blocks(
        test_set.blocks(arguments.k), result.best_mv_set
    )
    print(f"best MV usage: {compressed.mv_usage()}")
    return 0


def _atpg_command(arguments: argparse.Namespace) -> int:
    from .atpg.stuck_at import generate_stuck_at_tests
    from .circuits.library import load_circuit

    netlist = load_circuit(arguments.circuit)
    result = generate_stuck_at_tests(netlist)
    test_set = result.test_set
    print(f"{netlist!r}")
    print(
        f"test set: {test_set.n_patterns} patterns x {test_set.n_inputs} "
        f"inputs, X density {test_set.x_density():.2f}, "
        f"fault coverage {result.fault_coverage:.1%}"
    )
    blocks8 = test_set.blocks(8)
    print(f"9C     rate: {compress_nine_c(blocks8).rate:6.2f}%")
    print(
        f"9C+HC  rate: {compress_nine_c(blocks8, use_huffman=True).rate:6.2f}%"
    )
    config = CompressionConfig(
        block_length=arguments.k,
        n_vectors=arguments.l,
        runs=3,
        ea=EAParameters(stagnation_limit=30, max_evaluations=1200),
    )
    if arguments.objectives != "rate":
        return _print_pareto_front(
            test_set.blocks(arguments.k), config, arguments
        )
    retry, timeout = _resolve_fault_tolerance(arguments)
    result = EAMVOptimizer(
        config, seed=arguments.seed, backend=_resolve_backend(arguments)
    ).optimize(test_set.blocks(arguments.k), retry=retry, timeout=timeout)
    print(
        f"EA     rate: {result.mean_rate:6.2f}% mean, "
        f"{result.best_rate:6.2f}% best"
    )
    return 0


def _calibrated_test_set(circuit: str, seed: int) -> TestSet:
    row = row_by_name(TABLE1_STUCK_AT, circuit)
    spec = SyntheticSpec(
        name=row.circuit,
        n_patterns=row.n_patterns,
        pattern_bits=row.pattern_bits,
        care_density=0.5,
        seed=seed,
    )
    return calibrate_spec(spec, row.published["9C"]).test_set


def _ablate_command(arguments: argparse.Namespace) -> int:
    from .experiments import (
        ablation_markdown,
        decoder_cost_study,
        kl_sweep,
        operator_sweep,
        seeding_ablation,
        subsumption_ablation,
    )

    test_set = _calibrated_test_set(arguments.circuit, arguments.seed)
    backend = _resolve_backend(arguments)
    retry, timeout = _resolve_fault_tolerance(arguments)
    checkpoint = _resolve_checkpoint(arguments)
    if arguments.study == "kl":
        points = kl_sweep(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout, checkpoint=checkpoint,
        )
        print(ablation_markdown(points, f"K/L sweep on {arguments.circuit}"))
    elif arguments.study == "operators":
        points = operator_sweep(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout, checkpoint=checkpoint,
        )
        print(
            ablation_markdown(
                points, f"Operator probabilities on {arguments.circuit}"
            )
        )
    elif arguments.study == "seeding":
        points = seeding_ablation(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout, checkpoint=checkpoint,
        )
        print(ablation_markdown(points, f"9C seeding on {arguments.circuit}"))
    elif arguments.study == "subsumption":
        points = subsumption_ablation(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout,
        )
        print(
            ablation_markdown(
                points, f"Subsumption encoding on {arguments.circuit}"
            )
        )
    else:  # decoder
        costs = decoder_cost_study(
            test_set, seed=arguments.seed, backend=backend
        )
        for method, values in costs.items():
            print(
                f"{method:6s} rate {values['rate']:6.2f}%  payload "
                f"{int(values['payload_bits'])} bits  code table "
                f"{int(values['code_table_bits'])} bits"
            )
    return 0


def _report_command(arguments: argparse.Namespace) -> int:
    from .experiments import (
        PAPER,
        QUICK,
        build_table1,
        build_table2,
        experiments_markdown,
        kl_sweep,
        operator_sweep,
        seeding_ablation,
        subsumption_ablation,
    )

    budget = PAPER if arguments.budget == "paper" else QUICK
    from .experiments import DEFAULT_QUICK_TABLE1, DEFAULT_QUICK_TABLE2

    circuits1 = None if arguments.full else DEFAULT_QUICK_TABLE1
    circuits2 = None if arguments.full else DEFAULT_QUICK_TABLE2
    backend = _resolve_backend(arguments)
    retry, timeout = _resolve_fault_tolerance(arguments)
    checkpoint = _resolve_checkpoint(arguments)
    print("building Table 1 ...")
    table1 = build_table1(
        circuits=circuits1,
        budget=budget,
        seed=arguments.seed,
        progress=print,
        backend=backend,
        retry=retry, timeout=timeout, checkpoint=checkpoint,
    )
    print("building Table 2 ...")
    table2 = build_table2(
        circuits=circuits2,
        budget=budget,
        seed=arguments.seed,
        progress=print,
        backend=backend,
        retry=retry, timeout=timeout, checkpoint=checkpoint,
    )
    print("running ablations on s349 ...")
    test_set = _calibrated_test_set("s349", arguments.seed)
    ablations = {
        "K/L sweep (s349, source of EA-Best)": kl_sweep(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout, checkpoint=checkpoint,
        ),
        "Operator probabilities (s349)": operator_sweep(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout, checkpoint=checkpoint,
        ),
        "9C seeding of the initial population (s349)": seeding_ablation(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout, checkpoint=checkpoint,
        ),
        "Subsumption-aware encoding (s349, Section 3.3)": subsumption_ablation(
            test_set, seed=arguments.seed, backend=backend,
            retry=retry, timeout=timeout,
        ),
    }
    _print_fault_summary(
        {
            key: table1.fault_stats().get(key, 0)
            + table2.fault_stats().get(key, 0)
            for key in set(table1.fault_stats()) | set(table2.fault_stats())
        }
    )
    document = experiments_markdown(
        table1, table2, ablations, budget_label=arguments.budget
    )
    Path(arguments.output).write_text(document)
    print(f"wrote {arguments.output}")
    return 0


def _cache_command(arguments: argparse.Namespace) -> int:
    from .core.kernels.build import describe_build_file, native_build_dir

    # Cache entries are native kernel builds (.so); .json build sidecars
    # and stray .lock files ride along on `clear` but are not listed as
    # entries of their own.
    directory = Path(arguments.dir) if arguments.dir is not None else native_build_dir()
    files = sorted(directory.glob("*.so")) if directory.is_dir() else []

    if arguments.action == "list":
        print(f"cache directory: {directory}")
        if not files:
            print("(empty)")
            return 0
        total = 0
        for path in files:
            size = path.stat().st_size
            total += size
            print(f"{size:>12,d}  {path.name}")
        print(f"{total:>12,d}  total in {len(files)} file(s)")
        return 0
    if arguments.action == "info":
        if not files:
            print(f"cache directory: {directory}")
            print("(empty)")
        for path in files:
            info = describe_build_file(path)
            print(f"{path.name}:")
            for key in sorted(info):
                if key != "file":
                    print(f"  {key}: {info[key]}")
        return 0
    # clear
    removed = 0
    if directory.is_dir():
        for pattern in ("*.so", "*.json", "*.lock"):
            for path in sorted(directory.glob(pattern)):
                path.unlink()
                removed += 1
    print(f"removed {removed} file(s) from {directory}")
    return 0


def _build_service(arguments: argparse.Namespace):
    """A :class:`~repro.serve.CompressionService` from the shared flags.

    One builder for ``serve`` and ``request`` is half the parity
    contract: the daemon and the offline runner resolve flags into
    identical service configuration, so the same request body
    prices through identically-configured engines on both paths.
    """
    from .serve import CompressionService, WarmRegistry

    return CompressionService(WarmRegistry(), retry=_retry_policy(arguments))


def _serve_command(arguments: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .serve import ServeDaemon

    jobs = arguments.jobs if arguments.jobs > 0 else (os.cpu_count() or 1)
    daemon = ServeDaemon(
        _build_service(arguments),
        host=arguments.host,
        port=arguments.port,
        jobs=jobs,
        batch_window_ms=arguments.batch_window_ms,
        max_batch=arguments.max_batch,
        max_queue=arguments.max_queue,
        request_timeout=arguments.task_timeout,
    )
    host, port = daemon.address

    def _drain(signum, frame) -> None:
        # shutdown() blocks until drained, and serve_forever() owns
        # this thread — hand the drain to a helper thread so the
        # accept loop can wind down underneath it.
        threading.Thread(
            target=daemon.shutdown, kwargs={"drain": True}, daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(jobs={jobs}, batch window {arguments.batch_window_ms}ms, "
        f"max batch {arguments.max_batch}, queue {arguments.max_queue}); "
        "SIGTERM drains",
        file=sys.stderr,
    )
    daemon.serve_forever()
    print("repro serve: drained and stopped", file=sys.stderr)
    return 0


def _request_command(arguments: argparse.Namespace) -> int:
    import json

    from .serve import ProtocolError, canonical_json

    service = _build_service(arguments)
    raw = (
        sys.stdin.read()
        if arguments.file == "-"
        else Path(arguments.file).read_text()
    )
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as error:
        print(f"error: invalid JSON request: {error}", file=sys.stderr)
        return 1
    endpoint = arguments.endpoint
    if endpoint is None:
        if isinstance(body, dict) and "genomes" in body:
            endpoint = "fitness"
        elif isinstance(body, dict) and "seed" in body:
            endpoint = "compress"
        else:
            endpoint = "tables"
    try:
        if endpoint == "fitness":
            payload = service.run_fitness(body)
        elif endpoint == "compress":
            payload = service.run_compress(body)
        else:
            payload = service.register_table(body)
    except ProtocolError as error:
        print(f"error: {error.message}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(canonical_json(payload))
    return 0


def _parse_shape(text: str) -> tuple[int, int, int, int]:
    """``C,D,L,K`` → four positive ints, else ``ValueError``."""
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 4 or min(shape) < 1:
        raise ValueError(
            f"invalid --shape {text!r}; expected C,D,L,K as four "
            "positive integers"
        )
    return shape


def _kernels_command(arguments: argparse.Namespace) -> int:
    from .core.kernels import kernel_availability, select_kernel_name

    shape = None if arguments.shape is None else _parse_shape(arguments.shape)
    for name, reason in sorted(kernel_availability().items()):
        if reason is None:
            print(f"{name}: available")
        else:
            print(f"{name}: unavailable — {reason}")
    if shape is not None:
        c, d, l, k = shape
        pick = select_kernel_name(c, d, l, k)
        print(f"auto pick for shape C={c}, D={d}, L={l}, K={k}: {pick}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Evolutionary optimization in code-based test compression",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="reproduce Table 1")
    _add_table_arguments(table1)
    table2 = commands.add_parser("table2", help="reproduce Table 2")
    _add_table_arguments(table2)

    compress = commands.add_parser("compress", help="compress a pattern file")
    compress.add_argument("file")
    compress.add_argument("--k", type=int, default=12)
    compress.add_argument("--l", type=int, default=64)
    compress.add_argument("--runs", type=int, default=3)
    compress.add_argument("--stagnation", type=int, default=50)
    compress.add_argument("--max-evaluations", type=int, default=2000)
    compress.add_argument("--seed", type=int, default=2005)
    compress.add_argument(
        "--objectives",
        choices=("rate", "rate+area", "rate+area+time"),
        default="rate",
        help=(
            "optimize a single rate objective (default) or run the "
            "NSGA-II multi-objective mode and print the Pareto front"
        ),
    )
    _add_execution_arguments(compress)

    atpg = commands.add_parser("atpg", help="ATPG + compression demo")
    atpg.add_argument("circuit")
    atpg.add_argument("--k", type=int, default=12)
    atpg.add_argument("--l", type=int, default=64)
    atpg.add_argument("--seed", type=int, default=2005)
    atpg.add_argument(
        "--objectives",
        choices=("rate", "rate+area", "rate+area+time"),
        default="rate",
        help=(
            "optimize a single rate objective (default) or run the "
            "NSGA-II multi-objective mode and print the Pareto front"
        ),
    )
    _add_execution_arguments(atpg)

    ablate = commands.add_parser("ablate", help="run an ablation study")
    ablate.add_argument(
        "study", choices=("kl", "operators", "seeding", "subsumption", "decoder")
    )
    ablate.add_argument("--circuit", default="s349")
    ablate.add_argument("--seed", type=int, default=2005)
    ablate.add_argument(
        "--resume",
        action="store_true",
        help="journal completed EA runs and skip already-journaled work",
    )
    _add_execution_arguments(ablate)

    report = commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md from measured runs"
    )
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument(
        "--budget", choices=("quick", "paper"), default="quick"
    )
    report.add_argument("--full", action="store_true")
    report.add_argument("--seed", type=int, default=2005)
    report.add_argument(
        "--resume",
        action="store_true",
        help="journal completed EA runs and skip already-journaled work",
    )
    _add_execution_arguments(report)

    kernels = commands.add_parser(
        "kernels",
        help=(
            "list covering-kernel backends with availability, and the "
            "auto pick for a workload shape"
        ),
    )
    kernels.add_argument(
        "--shape",
        default=None,
        metavar="C,D,L,K",
        help=(
            "also print the auto kernel pick for this workload shape "
            "(genome batch, distinct blocks, MVs per genome, block length)"
        ),
    )

    cache = commands.add_parser(
        "cache",
        help=(
            "inspect or clear the on-disk native kernel build cache"
        ),
    )
    cache.add_argument(
        "action",
        choices=("list", "info", "clear"),
        help=(
            "list = file names and sizes; info = decoded metadata per "
            "file; clear = delete every cache file"
        ),
    )
    cache.add_argument(
        "--dir",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "cache directory to operate on (default: the native "
            "directory under REPRO_CACHE_DIR)"
        ),
    )

    serve = commands.add_parser(
        "serve",
        help=(
            "run the long-lived compression daemon: warm per-table "
            "state and cross-request batching over stdlib HTTP"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8477,
        help="TCP port; 0 picks a free one (default 8477)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help=(
            "how long the coalescer holds the first fitness request of "
            "a batch open for same-table company before flushing "
            "(batching is byte-inert — served responses are identical "
            "at any window; default 5)"
        ),
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="flush a batch early once it holds N requests (default 64)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help=(
            "admission bound: past N queued requests new ones are "
            "rejected with 429 instead of accumulating (default 256)"
        ),
    )
    _add_jobs_argument(serve)
    _add_retries_argument(serve)
    _add_task_timeout_argument(serve)

    request = commands.add_parser(
        "request",
        help=(
            "execute one serve-protocol JSON request offline and print "
            "the canonical response (the serve byte-parity reference)"
        ),
    )
    request.add_argument(
        "file", help="request JSON file, or - to read from stdin"
    )
    request.add_argument(
        "--endpoint",
        choices=("tables", "fitness", "compress"),
        default=None,
        help=(
            "which endpoint semantics to apply (default: inferred — "
            "'genomes' means fitness, 'seed' means compress, otherwise "
            "tables)"
        ),
    )
    _add_retries_argument(request)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Bad input a command raises — a ``ValueError`` (an invalid option
    value, a malformed pattern) or an ``OSError`` (an unreadable file)
    — prints one ``repro: error: …`` line on stderr and exits 2, the
    status argparse uses for a bad flag, instead of a traceback.
    """
    arguments = build_parser().parse_args(argv)
    try:
        return _dispatch(arguments)
    except (ValueError, OSError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


def _dispatch(arguments: argparse.Namespace) -> int:
    _check_execution_arguments(arguments)
    if arguments.command == "table1":
        return _table_command(arguments, which=1)
    if arguments.command == "table2":
        return _table_command(arguments, which=2)
    if arguments.command == "compress":
        return _compress_command(arguments)
    if arguments.command == "atpg":
        return _atpg_command(arguments)
    if arguments.command == "ablate":
        return _ablate_command(arguments)
    if arguments.command == "report":
        return _report_command(arguments)
    if arguments.command == "kernels":
        return _kernels_command(arguments)
    if arguments.command == "cache":
        return _cache_command(arguments)
    if arguments.command == "serve":
        return _serve_command(arguments)
    if arguments.command == "request":
        return _request_command(arguments)
    raise AssertionError(f"unhandled command {arguments.command!r}")


if __name__ == "__main__":
    sys.exit(main())
