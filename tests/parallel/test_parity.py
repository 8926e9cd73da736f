"""Serial-vs-parallel bit-for-bit parity of the whole stack.

The contract the subsystem is built around: a given seed and workload
produce *identical* results — rates, MV sets, run order — on every
backend and at every job count.  These tests pin that down at the
optimizer layer, the experiment-runner layer, and the table layer.
"""

import numpy as np
import pytest

from repro.core.blocks import BlockSet
from repro.core.config import CompressionConfig, EAParameters
from repro.core.optimizer import EAMVOptimizer, execute_run_task
from repro.experiments.runner import ExperimentBudget, run_row
from repro.experiments.tables import build_table1
from repro.parallel import ProcessBackend, SerialBackend, spawn_seeds
from repro.testdata.registry import TABLE1_STUCK_AT, row_by_name

STRUCTURED_TEXT = ("1100" * 8 + "11XX" * 4 + "0000" * 6 + "10X0" * 3) * 2

MICRO = ExperimentBudget(
    runs=2,
    stagnation_limit=8,
    max_evaluations=250,
    kl_grid=((8, 16),),
    search_bit_cap=20_000,
)


def small_config(runs: int = 4) -> CompressionConfig:
    return CompressionConfig(
        block_length=4,
        n_vectors=6,
        runs=runs,
        ea=EAParameters(stagnation_limit=20, max_evaluations=400),
    )


def optimize_with(backend):
    blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
    return EAMVOptimizer(small_config(), seed=7, backend=backend).optimize(
        blocks
    )


class TestOptimizerParity:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return optimize_with(SerialBackend())

    def test_process_backend_matches_serial(self, serial_result):
        result = optimize_with(ProcessBackend(4))
        assert [r.rate for r in result.runs] == [
            r.rate for r in serial_result.runs
        ]
        assert [r.mv_set for r in result.runs] == [
            r.mv_set for r in serial_result.runs
        ]
        assert [r.ea_result.evaluations for r in result.runs] == [
            r.ea_result.evaluations for r in serial_result.runs
        ]

    def test_jobs_one_pool_matches_serial(self, serial_result):
        result = optimize_with(ProcessBackend(1))
        assert result.mean_rate == serial_result.mean_rate
        assert result.best_mv_set == serial_result.best_mv_set

    def test_run_outcomes_keep_run_index_order(self, serial_result):
        assert [r.run_index for r in serial_result.runs] == list(
            range(len(serial_result.runs))
        )

    def test_build_run_tasks_is_idempotent(self):
        """Building (or inspecting) tasks must not perturb a later
        optimize(): the per-run seed children are spawned once."""
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        reference = EAMVOptimizer(small_config(), seed=7).optimize(blocks)
        optimizer = EAMVOptimizer(small_config(), seed=7)
        first_tasks = optimizer.build_run_tasks(blocks)
        second_tasks = optimizer.build_run_tasks(blocks)
        assert [t.seed_sequence.spawn_key for t in first_tasks] == [
            t.seed_sequence.spawn_key for t in second_tasks
        ]
        peeked_then_optimized = optimizer.optimize(blocks)
        assert [r.rate for r in peeked_then_optimized.runs] == [
            r.rate for r in reference.runs
        ]

    def test_tasks_are_pure_functions_of_their_fields(self):
        """Executing a task twice gives the same outcome — the property
        that makes completion order irrelevant."""
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        task = EAMVOptimizer(small_config(), seed=7).build_run_tasks(blocks)[1]
        first = execute_run_task(task)
        second = execute_run_task(task)
        assert first.rate == second.rate
        assert first.mv_set == second.mv_set

    def test_seed_sequence_seed_equals_spawned_child(self):
        """Passing a pre-spawned child is how higher layers build the
        spawn tree; it must behave exactly like the optimizer's own
        spawn of the same parent."""
        blocks = BlockSet.from_string(STRUCTURED_TEXT, 4)
        via_helper = EAMVOptimizer(
            small_config(), seed=spawn_seeds(99, 1)[0]
        ).optimize(blocks)
        via_numpy = EAMVOptimizer(
            small_config(), seed=np.random.SeedSequence(99).spawn(1)[0]
        ).optimize(blocks)
        assert via_helper.mean_rate == via_numpy.mean_rate
        assert via_helper.best_mv_set == via_numpy.best_mv_set


class TestRunnerParity:
    @pytest.fixture(scope="class")
    def serial_row(self):
        row = row_by_name(TABLE1_STUCK_AT, "s349")
        return run_row(row, "stuck-at", budget=MICRO, seed=5)

    def test_process_backend_matches_serial(self, serial_row):
        row = row_by_name(TABLE1_STUCK_AT, "s349")
        parallel = run_row(
            row, "stuck-at", budget=MICRO, seed=5, backend=ProcessBackend(4)
        )
        assert parallel.measured == serial_row.measured

    def test_progress_lines_arrive_in_configuration_order(self):
        row = row_by_name(TABLE1_STUCK_AT, "s349")
        lines = []
        run_row(
            row,
            "stuck-at",
            budget=MICRO,
            seed=5,
            backend=ProcessBackend(4),
            progress=lines.append,
        )
        assert len(lines) == 1 + len(MICRO.kl_grid)
        assert "EA K=12,L=64" in lines[0]
        assert "EA-Best K=8,L=16" in lines[1]


class TestTableParity:
    @pytest.mark.slow
    def test_table_rows_match_at_any_job_count(self):
        """Both scheduling policies — row fan-out (rows >= jobs) and
        backend-down (rows < jobs) — must match the serial build."""
        circuits = ("s349", "s298")
        serial = build_table1(circuits=circuits, budget=MICRO, seed=4)
        for jobs in (2, 4):
            parallel = build_table1(
                circuits=circuits,
                budget=MICRO,
                seed=4,
                backend=ProcessBackend(jobs),
            )
            assert [row.measured for row in parallel.rows] == [
                row.measured for row in serial.rows
            ]

    def test_row_progress_released_in_row_order(self):
        circuits = ("s349", "s298")
        lines = []
        build_table1(
            circuits=circuits,
            budget=MICRO,
            seed=4,
            backend=ProcessBackend(2),
            progress=lines.append,
        )
        assert [line.split()[0] for line in lines] == ["s349", "s298"]
