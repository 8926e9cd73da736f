"""Build and format Table 1 and Table 2 of the paper.

Each table run produces measured-vs-published rates per circuit plus
column averages, rendered in the paper's layout with the published
value in parentheses next to every measured one.

Rows are independent, so a parallel :class:`ExecutionBackend` fans
them out when the selection is at least as wide as the pool (one
worker per row, progress lines released in row order); narrower
builds instead pass the backend down to :func:`run_row` so each row's
own EA runs and K/L grid use the full width.  Either way the measured
values are identical to the serial build.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..parallel import (
    ExecutionBackend,
    FaultToleranceStats,
    OrderedProgress,
    RetryPolicy,
    SerialBackend,
)
from ..testdata.registry import (
    TABLE1_AVERAGES,
    TABLE1_STUCK_AT,
    TABLE2_AVERAGES,
    TABLE2_PATH_DELAY,
    PaperRow,
)
from .checkpoint import CheckpointStore
from .runner import QUICK, ExperimentBudget, RowResult, run_row

__all__ = [
    "TableResult",
    "TABLE1_COLUMNS",
    "TABLE2_COLUMNS",
    "DEFAULT_QUICK_TABLE1",
    "DEFAULT_QUICK_TABLE2",
    "build_table1",
    "build_table2",
    "format_table",
]

TABLE1_COLUMNS = ("9C", "9C+HC", "EA", "EA-Best")
TABLE2_COLUMNS = ("9C", "9C+HC", "EA1", "EA2")

# Circuits spanning three decades of test-set size for the default
# (quick) runs; full tables are available via --full in the CLI.
DEFAULT_QUICK_TABLE1 = (
    "s349", "s298", "s386", "c6288", "s510", "s1494", "s832", "c499",
    "s953", "s713", "c2670", "s5378", "s35932",
)
DEFAULT_QUICK_TABLE2 = (
    "s27", "s298", "s386", "s444", "s1494", "s820", "s953", "s838",
)


@dataclass(frozen=True)
class TableResult:
    """All rows of one reproduced table plus aggregate statistics."""

    kind: str
    columns: tuple[str, ...]
    rows: tuple[RowResult, ...]
    published_averages: dict[str, float]
    # What the row-level fan-out absorbed (a crashed row retried
    # whole); diagnostic only, like ``RowResult.fault_stats``.
    row_fault_stats: dict[str, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def measured_average(self, column: str) -> float:
        """Mean measured rate over the reproduced rows."""
        return float(np.mean([row.measured[column] for row in self.rows]))

    def published_subset_average(self, column: str) -> float:
        """Mean *published* rate over the same subset of rows."""
        return float(np.mean([row.published[column] for row in self.rows]))

    def ordering_holds(self) -> bool:
        """The paper's headline: EA methods beat 9C+HC beat 9C on
        average (checked on the reproduced subset)."""
        averages = [self.measured_average(column) for column in self.columns]
        return averages[0] <= averages[1] <= max(averages[2:])

    def wins(self, column_a: str, column_b: str) -> int:
        """Rows where ``column_a`` strictly beats ``column_b``."""
        return sum(
            1
            for row in self.rows
            if row.measured[column_a] > row.measured[column_b]
        )

    def fault_stats(self) -> dict[str, int]:
        """Fault-tolerance accounting summed over the row-level fan-out
        and all rows (diagnostic)."""
        totals = dict(self.row_fault_stats)
        for row in self.rows:
            for key, value in row.fault_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals


def _format_row_progress(result: RowResult, columns: tuple[str, ...]) -> str:
    cells = "  ".join(
        f"{column}={result.measured[column]:6.1f}({result.published[column]:5.1f})"
        for column in columns
    )
    return f"{result.circuit:8s} {cells}  [{result.seconds:5.1f}s]"


def _build(
    table: Sequence[PaperRow],
    kind: str,
    columns: tuple[str, ...],
    published_averages: dict[str, float],
    circuits: Sequence[str] | None,
    budget: ExperimentBudget,
    seed: int,
    progress: Callable[[str], None] | None,
    backend: ExecutionBackend | None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
) -> TableResult:
    selected = [
        row for row in table if circuits is None or row.circuit in set(circuits)
    ]
    if not selected:
        raise ValueError("no circuits selected")
    backend = backend or SerialBackend()

    # Rows are the parallel unit when there are at least as many rows
    # as workers (saturates the pool AND overlaps the rows' serial
    # phases: calibration, 9C, re-pricing).  With fewer rows than
    # workers the rows run in sequence and the backend is handed down
    # instead, so each row's flattened EA runs × K/L grid use the full
    # width.  Either way the values are identical — every run is
    # self-seeded — only the scheduling differs.
    row_stats = FaultToleranceStats()
    if backend.jobs > 1 and len(selected) >= backend.jobs:
        fan_in = OrderedProgress(progress)
        # Each row worker applies retry to its in-row EA runs and
        # journals them; the row-level map also retries whole crashed
        # rows, and a retried row resumes its journaled runs.  No
        # timeout is enforced on this path: the in-row map is serial
        # inside the worker, which cannot preempt a run, and a deadline
        # here would bound a whole row.
        results = backend.map(
            functools.partial(
                run_row,
                kind=kind,
                budget=budget,
                seed=seed,
                retry=retry,
                checkpoint=checkpoint,
            ),
            selected,
            on_result=lambda index, result: fan_in.publish(
                index, _format_row_progress(result, columns)
            ),
            retry=retry,
            stats=row_stats,
        )
    else:
        results = []
        for row in selected:
            result = run_row(
                row, kind, budget=budget, seed=seed, backend=backend,
                retry=retry, timeout=timeout, checkpoint=checkpoint,
            )
            results.append(result)
            if progress is not None:
                progress(_format_row_progress(result, columns))
    return TableResult(
        kind=kind,
        columns=columns,
        rows=tuple(results),
        published_averages=dict(published_averages),
        row_fault_stats=row_stats.as_dict(),
    )


def build_table1(
    circuits: Sequence[str] | None = DEFAULT_QUICK_TABLE1,
    budget: ExperimentBudget = QUICK,
    seed: int = 2005,
    progress: Callable[[str], None] | None = None,
    backend: ExecutionBackend | None = None,
    mv_cache_persist: bool = False,  # inert: perfbench/ still passes False
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
) -> TableResult:
    """Reproduce Table 1 (stuck-at).  ``circuits=None`` runs all 39.

    A seeded table is byte-identical under ``retry``/``timeout``
    (transient-fault absorption) and ``checkpoint`` (resume from a
    journal of completed runs) — the fault-tolerance layer can change
    wall clock, never values.
    """
    if mv_cache_persist:
        raise ValueError("MV cache persistence was removed")
    return _build(
        TABLE1_STUCK_AT,
        "stuck-at",
        TABLE1_COLUMNS,
        TABLE1_AVERAGES,
        circuits,
        budget,
        seed,
        progress,
        backend,
        retry=retry,
        timeout=timeout,
        checkpoint=checkpoint,
    )


def build_table2(
    circuits: Sequence[str] | None = DEFAULT_QUICK_TABLE2,
    budget: ExperimentBudget = QUICK,
    seed: int = 2005,
    progress: Callable[[str], None] | None = None,
    backend: ExecutionBackend | None = None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    checkpoint: CheckpointStore | None = None,
) -> TableResult:
    """Reproduce Table 2 (path delay).  ``circuits=None`` runs all 29."""
    return _build(
        TABLE2_PATH_DELAY,
        "path-delay",
        TABLE2_COLUMNS,
        TABLE2_AVERAGES,
        circuits,
        budget,
        seed,
        progress,
        backend,
        retry=retry,
        timeout=timeout,
        checkpoint=checkpoint,
    )


def format_table(result: TableResult) -> str:
    """Render a reproduced table, paper-style, measured (published)."""
    title = (
        "Table 1: stuck-at test sets"
        if result.kind == "stuck-at"
        else "Table 2: path delay test sets"
    )
    header_cells = "".join(f"{column:>18s}" for column in result.columns)
    lines = [
        title,
        f"{'Circuit':8s}{'Size':>10s}{header_cells}",
        "-" * (18 + 18 * len(result.columns)),
    ]
    for row in result.rows:
        cells = "".join(
            f"{row.measured[column]:8.1f} ({row.published[column]:5.1f})"
            for column in result.columns
        )
        lines.append(f"{row.circuit:8s}{row.test_set_bits:>10d}{cells}")
    lines.append("-" * (18 + 18 * len(result.columns)))
    average_cells = "".join(
        f"{result.measured_average(column):8.1f} "
        f"({result.published_subset_average(column):5.1f})"
        for column in result.columns
    )
    lines.append(f"{'Average':8s}{'':>10s}{average_cells}")
    lines.append(
        "(published values in parentheses; averages over the reproduced "
        "subset)"
    )
    return "\n".join(lines)
