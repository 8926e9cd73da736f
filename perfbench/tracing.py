"""Per-layer tracing from outside the program: wrappers around public calls.

The traced run installs wrappers around the calls into each layer of
the repo (module names in brackets):

* ``ea`` — ``EvolutionaryEngine.run`` [repro.ea.engine];
* ``fitness`` — ``BatchCompressionRateFitness.evaluate_batch``
  [repro.core.fitness], with its stage clocks read through the public
  ``timings=`` argument and the MV-cache counters through the public
  ``mv_cache_stats`` property;
* ``kernel`` — ``cover_grid`` / ``match_columns`` of every kernel the
  fitness resolves (``resolve_kernel`` as the fitness module calls it);
* ``huffman`` — ``huffman_total_bits_batch`` as the fitness calls it;
* ``optimizer`` — ``execute_run_task`` wherever it is called from;
* ``runner`` — ``run_row``'s callees ``calibrate_spec``,
  ``compress_nine_c``, ``grouped_map``, ``compress_blocks``;
* ``serve`` — ``ServeDaemon.handle_*``, ``CompressionService``'s
  ``parse_fitness`` / ``evaluate`` / ``fitness_payload`` /
  ``run_compress`` and ``Coalescer.submit``.

Spans live in memory (name, start, end, parent span, thread) and are
written out when the workload ends.  A span's parent is the innermost
open span on the same thread, so a layer's self time — its duration
minus its children's — sums with every other span's self time to the
wall time of the job span at the root.  Untraced runs never call
:func:`install`; :func:`wrapped_targets` lets them prove it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

import common

_MARKER = "__perfbench_wrapped__"

# (module, attribute path) of every call a layer wraps — also the list
# :func:`wrapped_targets` inspects to prove an untraced run is clean.
TARGETS = {
    "ea": [("repro.ea.engine", "EvolutionaryEngine.run")],
    "fitness": [
        ("repro.core.fitness", "BatchCompressionRateFitness.evaluate_batch")
    ],
    "kernel": [("repro.core.fitness", "resolve_kernel")],
    "huffman": [("repro.core.fitness", "huffman_total_bits_batch")],
    "optimizer": [("repro.core.optimizer", "execute_run_task")],
    "runner": [
        ("repro.experiments.runner", "calibrate_spec"),
        ("repro.experiments.runner", "compress_nine_c"),
        ("repro.experiments.runner", "grouped_map"),
        ("repro.experiments.runner", "compress_blocks"),
        ("repro.experiments.runner", "execute_run_task"),
    ],
    "serve": [
        ("repro.serve.daemon", "ServeDaemon.handle_tables"),
        ("repro.serve.daemon", "ServeDaemon.handle_fitness"),
        ("repro.serve.daemon", "ServeDaemon.handle_compress"),
        ("repro.serve.service", "CompressionService.parse_fitness"),
        ("repro.serve.service", "CompressionService.evaluate"),
        ("repro.serve.service", "CompressionService.fitness_payload"),
        ("repro.serve.service", "CompressionService.run_compress"),
        ("repro.serve.service", "execute_run_task"),
        ("repro.serve.batching", "Coalescer.submit"),
    ],
}

# Span names the wrappers record, per target attribute.
_SPAN_NAMES = {
    "EvolutionaryEngine.run": "ea",
    "BatchCompressionRateFitness.evaluate_batch": "fitness",
    "huffman_total_bits_batch": "huffman",
    "execute_run_task": "optimizer",
    "calibrate_spec": "runner.calibrate",
    "compress_nine_c": "runner.nine_c",
    "grouped_map": "runner.search",
    "compress_blocks": "runner.reprice",
    "ServeDaemon.handle_tables": "serve.tables",
    "ServeDaemon.handle_fitness": "serve.fitness",
    "ServeDaemon.handle_compress": "serve.compress",
    "CompressionService.parse_fitness": "serve.parse",
    "CompressionService.evaluate": "serve.execute",
    "CompressionService.fitness_payload": "serve.payload",
    "CompressionService.run_compress": "serve.compress_exec",
    "Coalescer.submit": "serve.submit",
}


class Span:
    """One timed call: ``[start, end)`` on ``thread``, nested in ``parent``."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, span_id, name, start, parent, thread) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [
            self.id, self.name, self.start, self.end,
            self.parent, self.thread, self.attrs,
        ]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5])
        span.end = row[3]
        span.attrs = row[6]
        return span


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.kernels: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        thread = threading.current_thread().name
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent, thread)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result)``, when given, returns the dict
        stored on the span after the call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(wrapper, _MARKER, True)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def spans_path(name: str):
    return common.BUILD_DIR / "trace" / f"{name}.json"


def write_spans(tracer: Tracer, name: str, extra: dict | None = None):
    """Write the recorded spans (and ``extra``) out; returns the path."""
    import json

    path = spans_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "spans": [span.to_list() for span in tracer.spans],
        "kernels": sorted(tracer.kernels),
    }
    payload.update(extra or {})
    path.write_text(json.dumps(payload))
    return path


def read_spans(path) -> tuple[list[Span], dict]:
    import json

    payload = json.loads(path.read_text())
    return [Span.from_list(row) for row in payload.pop("spans")], payload


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) of a dotted target."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def wrapped_targets() -> list[str]:
    """Every target currently replaced by a wrapper (imported modules only)."""
    import sys

    found = []
    for targets in TARGETS.values():
        for module_name, path in targets:
            if module_name not in sys.modules:
                continue
            owner, attr = _resolve(module_name, path)
            if getattr(getattr(owner, attr), _MARKER, False):
                found.append(f"{module_name}.{path}")
    return found


def _ea_attrs(args, kwargs, result) -> dict:
    return {
        "generations": result.generations,
        "evaluations": result.evaluations,
        "memo_hits": result.cache_hits,
        "mv_hits": result.mv_cache_hits,
        "mv_misses": result.mv_cache_misses,
    }


def _huffman_attrs(args, kwargs, result) -> dict:
    return {"rows": int(args[0].shape[0])}


def _install_fitness(tracer: Tracer) -> None:
    owner, attr = _resolve(*TARGETS["fitness"][0])
    original = getattr(owner, attr)

    @functools.wraps(original)
    def evaluate_batch(self, genomes, timings=None):
        span = tracer.open("fitness")
        stages: dict = {}
        try:
            before = self.mv_cache_stats
            rates = original(self, genomes, timings=stages)
            after = self.mv_cache_stats
        finally:
            tracer.close(span)
        if timings is not None:
            for stage, seconds in stages.items():
                timings[stage] = timings.get(stage, 0.0) + seconds
        rows_total = after.rows_total - before.rows_total
        span.attrs = {
            "genomes": int(rates.size),
            "stages": stages,
            "rows_total": rows_total,
            "rows_unique": after.rows_unique - before.rows_unique,
            "dedup": rows_total > 0,
        }
        return rates

    tracer._replace(owner, attr, original, evaluate_batch)


def _instrument_kernel(tracer: Tracer, kernel) -> None:
    """Span-wrap one resolved kernel instance's two entry points."""
    cover_grid = kernel.cover_grid
    match_columns = kernel.match_columns

    def traced_cover_grid(prepared, ordered_grid, *args, **kwargs):
        span = tracer.open("kernel")
        try:
            return cover_grid(prepared, ordered_grid, *args, **kwargs)
        finally:
            tracer.close(span)
            n_genomes, n_vectors = ordered_grid.shape[:2]
            span.attrs = {"and_ops": n_genomes * n_vectors * prepared.n_distinct}

    def traced_match_columns(prepared, mv_ones, *args, **kwargs):
        span = tracer.open("kernel")
        try:
            return match_columns(prepared, mv_ones, *args, **kwargs)
        finally:
            tracer.close(span)
            span.attrs = {"and_ops": int(mv_ones.shape[0]) * prepared.n_distinct}

    kernel.cover_grid = traced_cover_grid
    kernel.match_columns = traced_match_columns


def _install_kernel(tracer: Tracer) -> None:
    owner, attr = _resolve(*TARGETS["kernel"][0])
    original = getattr(owner, attr)

    @functools.wraps(original)
    def resolve_kernel(*args, **kwargs):
        kernel = original(*args, **kwargs)
        if not getattr(kernel, _MARKER, False):
            _instrument_kernel(tracer, kernel)
            setattr(kernel, _MARKER, True)
        tracer.kernels.add(kernel.name)
        return kernel

    tracer._replace(owner, attr, original, resolve_kernel)


def install(tracer: Tracer, layers: tuple[str, ...]) -> None:
    """Install the wrappers of ``layers`` (keys of :data:`TARGETS`)."""
    for layer in layers:
        if layer == "fitness":
            _install_fitness(tracer)
            continue
        if layer == "kernel":
            _install_kernel(tracer)
            continue
        for module_name, path in TARGETS[layer]:
            owner, attr = _resolve(module_name, path)
            name = _SPAN_NAMES[path]
            attrs = {"ea": _ea_attrs, "huffman": _huffman_attrs}.get(name)
            tracer.wrap(owner, attr, name, attrs)


# -- analysis -----------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


def descendants(spans: list[Span], root_ids: set[int]) -> list[Span]:
    """The spans under the given roots (roots included), in id order."""
    by_id = {span.id: span for span in spans}
    chosen = []
    for span in spans:
        cursor = span
        while cursor is not None and cursor.id not in root_ids:
            cursor = by_id.get(cursor.parent) if cursor.parent is not None else None
        if cursor is not None:
            chosen.append(span)
    return chosen


LAYER_METRICS = (
    "ea.self_s", "ea.generations", "ea.evaluations", "ea.memo_hit_ratio",
    "ea.genomes_per_call",
    "fitness.calls", "fitness.busy_s", "fitness.pack_s", "fitness.match_s",
    "fitness.cover_s", "fitness.huffman_s",
    "cache.dedup_call_share", "cache.hit_ratio", "cache.rows_unique_ratio",
    "kernel.calls", "kernel.busy_s", "kernel.and_ops",
    "huffman.calls", "huffman.rows_per_call", "huffman.busy_s",
    "optimizer.tasks", "optimizer.overhead_s",
    "runner.calibrate_s", "runner.nine_c_s", "runner.search_s",
    "runner.reprice_s",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], root_name: str) -> dict[str, float]:
    """Per-job layer metrics over the jobs rooted at ``root_name`` spans.

    Times and counts are totals per job (one search, table build or
    compress request); ratios are pooled over the whole traced run.
    """
    roots = [span for span in spans if span.name == root_name]
    jobs = max(1, len(roots))
    chosen = descendants(spans, {span.id for span in roots})
    own = self_times(chosen)
    by_name: dict[str, list[Span]] = {}
    for span in chosen:
        by_name.setdefault(span.name, []).append(span)

    def spans_of(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str, key: str | None = None) -> float:
        if key is None:
            return sum(span.duration for span in spans_of(name))
        return sum(span.attrs[key] for span in spans_of(name) if span.attrs)

    def stage(name: str) -> float:
        return sum(
            span.attrs["stages"].get(name, 0.0)
            for span in spans_of("fitness")
            if span.attrs
        )

    ea_ids = {span.id for span in spans_of("ea")}
    engine_calls = [
        span for span in spans_of("fitness")
        if span.parent in ea_ids and span.attrs
    ]
    fitness_calls = [span for span in spans_of("fitness") if span.attrs]
    huffman_calls = len(spans_of("huffman"))
    metrics = {
        "ea.self_s": sum(own[span.id] for span in spans_of("ea")) / jobs,
        "ea.generations": total("ea", "generations") / jobs,
        "ea.evaluations": total("ea", "evaluations") / jobs,
        "ea.memo_hit_ratio": _ratio(
            total("ea", "memo_hits"), total("ea", "evaluations")
        ),
        "ea.genomes_per_call": _ratio(
            sum(span.attrs["genomes"] for span in engine_calls),
            len(engine_calls),
        ),
        "fitness.calls": len(spans_of("fitness")) / jobs,
        "fitness.busy_s": total("fitness") / jobs,
        "fitness.pack_s": stage("pack") / jobs,
        "fitness.match_s": stage("match") / jobs,
        "fitness.cover_s": stage("cover") / jobs,
        "fitness.huffman_s": stage("huffman") / jobs,
        "cache.dedup_call_share": _ratio(
            sum(1 for span in fitness_calls if span.attrs["dedup"]),
            len(fitness_calls),
        ),
        "cache.hit_ratio": _ratio(
            total("ea", "mv_hits"),
            total("ea", "mv_hits") + total("ea", "mv_misses"),
        ),
        "cache.rows_unique_ratio": _ratio(
            sum(span.attrs["rows_unique"] for span in fitness_calls),
            sum(span.attrs["rows_total"] for span in fitness_calls),
        ),
        "kernel.calls": len(spans_of("kernel")) / jobs,
        "kernel.busy_s": total("kernel") / jobs,
        "kernel.and_ops": total("kernel", "and_ops") / jobs,
        "huffman.calls": huffman_calls / jobs,
        "huffman.rows_per_call": _ratio(total("huffman", "rows"), huffman_calls),
        "huffman.busy_s": total("huffman") / jobs,
        "optimizer.tasks": len(spans_of("optimizer")) / jobs,
        "optimizer.overhead_s": sum(
            own[span.id] for span in spans_of("optimizer")
        ) / jobs,
        "runner.calibrate_s": total("runner.calibrate") / jobs,
        "runner.nine_c_s": total("runner.nine_c") / jobs,
        "runner.search_s": total("runner.search") / jobs,
        "runner.reprice_s": total("runner.reprice") / jobs,
    }
    job_seconds = [span.duration for span in roots]
    metrics["trace.job_s"] = common.median(job_seconds) if job_seconds else 0.0
    metrics["trace.self_sum_s"] = sum(own.values())
    metrics["trace.root_sum_s"] = sum(job_seconds)
    return metrics
