"""Grouped fan-out: many labeled groups of units, one flat submission.

The experiment layers all share one shape: several labeled groups of
work units (a table row's EA configurations × runs, an ablation's
sweep points × runs) that should saturate the backend as a single
flat task list, then be reassembled per group — with one progress
line per group, released in group order as each group's last unit
completes.  :func:`grouped_map` is that shape, so the index
bookkeeping (owner table, per-group countdown, cursor regrouping)
lives in exactly one place.

Fault tolerance rides through unchanged semantics: ``retry``,
``timeout`` and ``stats`` are forwarded to the backend, and an
optional ``cache`` (``get(item)``/``put(item, result)``, e.g. a
checkpoint :class:`~repro.experiments.checkpoint.RunTaskCache`)
short-circuits already-completed units before anything is submitted —
the resume path of ``--resume``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import Any, Protocol, runtime_checkable

from .backends import ExecutionBackend
from .progress import OrderedProgress
from .retry import FaultToleranceStats, RetryPolicy

__all__ = ["grouped_map", "ResultCache"]

DescribeGroup = Callable[[str, int, float], str]


@runtime_checkable
class ResultCache(Protocol):
    """Anything that can short-circuit completed work units."""

    def get(self, item: Any) -> Any | None: ...

    def put(self, item: Any, result: Any) -> None: ...


def _default_describe(label: str, n_items: int, seconds: float) -> str:
    return f"  {label}: done"


def grouped_map(
    backend: ExecutionBackend,
    function: Callable[[Any], Any],
    groups: Sequence[tuple[str, Sequence[Any]]],
    *,
    progress: Callable[[str], None] | None = None,
    describe: DescribeGroup | None = None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    stats: FaultToleranceStats | None = None,
    cache: ResultCache | None = None,
) -> list[list[Any]]:
    """Run ``(label, items)`` groups through one flat ``backend.map``.

    Returns one result list per group, in group order (each list in
    its items' order).  ``describe(label, n_items, seconds)`` builds
    the per-group progress line (seconds measured from submission);
    lines go through an :class:`OrderedProgress` so they appear in
    group order no matter which group finishes first.

    ``cache`` hits are resolved up front and never submitted; fresh
    results are ``put`` back as they complete (from the submitting
    thread, so the cache needs no locking).  ``retry``/``timeout``/
    ``stats`` pass straight through to :meth:`ExecutionBackend.map`.
    """
    describe = describe or _default_describe
    flat = [item for _, items in groups for item in items]
    owner = [
        group_index
        for group_index, (_, items) in enumerate(groups)
        for _ in items
    ]
    results: list[Any] = [None] * len(flat)
    fan_in = OrderedProgress(progress)
    remaining = [len(items) for _, items in groups]
    started = time.perf_counter()

    def finish(group_index: int) -> None:
        label, items = groups[group_index]
        fan_in.publish(
            group_index,
            describe(label, len(items), time.perf_counter() - started),
        )

    # Resolve cache hits before submitting anything: resumed units are
    # charged against their group's countdown exactly like completions.
    submitted = list(range(len(flat)))
    if cache is not None:
        submitted = []
        for flat_index, item in enumerate(flat):
            hit = cache.get(item)
            if hit is None:
                submitted.append(flat_index)
            else:
                results[flat_index] = hit
                remaining[owner[flat_index]] -= 1

    # Empty groups — and groups fully served from the cache — complete
    # immediately; they must not hold up the ordered release of later
    # groups' lines.
    for group_index, count in enumerate(remaining):
        if count == 0:
            finish(group_index)

    def on_result(submit_index: int, result: Any) -> None:
        flat_index = submitted[submit_index]
        if cache is not None:
            cache.put(flat[flat_index], result)
        group_index = owner[flat_index]
        remaining[group_index] -= 1
        if remaining[group_index] == 0:
            finish(group_index)

    if submitted:
        fresh = backend.map(
            function,
            [flat[index] for index in submitted],
            on_result=on_result,
            retry=retry,
            timeout=timeout,
            stats=stats,
        )
        for submit_index, flat_index in enumerate(submitted):
            results[flat_index] = fresh[submit_index]

    regrouped = []
    cursor = 0
    for _, items in groups:
        regrouped.append(results[cursor : cursor + len(items)])
        cursor += len(items)
    return regrouped
