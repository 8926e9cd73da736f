"""Tests for the NSGA-II multi-objective mode.

Pins the acceptance contract of the multi-objective issue: hand-checked
dominance/sort/crowding/hypervolume values, engine determinism, and
byte-identical merged Pareto fronts across backends, job counts,
kernels and checkpoint resume.
"""

import numpy as np
import pytest

from repro.core.config import CompressionConfig, EAParameters
from repro.core.fitness import OBJECTIVE_COLUMNS, BatchCompressionRateFitness
from repro.ea.multi_objective import (
    MAXIMIZED_OBJECTIVES,
    MultiObjectiveEngine,
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    hypervolume,
    minimization_form,
    non_dominated_mask,
    objective_signs,
)
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.pareto import (
    OBJECTIVE_SETS,
    ParetoRunTask,
    build_pareto_front,
    execute_pareto_task,
    merge_fronts,
    pareto_markdown,
    pareto_task_fingerprint,
)
from repro.parallel import ProcessBackend
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

FAST_EA = EAParameters(stagnation_limit=5, max_evaluations=150)


@pytest.fixture(scope="module")
def blocks():
    test_set = synthetic_test_set(
        SyntheticSpec(
            "pareto", n_patterns=24, pattern_bits=24, care_density=0.5, seed=9
        )
    )
    return test_set.blocks(4)


def fast_config(**overrides):
    return CompressionConfig(
        block_length=4, n_vectors=8, runs=2, ea=FAST_EA, **overrides
    )


class TestDominance:
    def test_dominates_strict(self):
        assert dominates(np.asarray([1.0, 2.0]), np.asarray([2.0, 2.0]))
        assert dominates(np.asarray([1.0, 1.0]), np.asarray([2.0, 2.0]))

    def test_equal_vectors_do_not_dominate(self):
        a = np.asarray([1.0, 2.0])
        assert not dominates(a, a)

    def test_incomparable(self):
        assert not dominates(np.asarray([1.0, 3.0]), np.asarray([2.0, 2.0]))
        assert not dominates(np.asarray([2.0, 2.0]), np.asarray([1.0, 3.0]))

    def test_non_dominated_mask(self):
        points = np.asarray(
            [[1.0, 4.0], [2.0, 2.0], [3.0, 3.0], [4.0, 1.0], [2.0, 2.0]]
        )
        # (3,3) is dominated by (2,2); duplicates are both non-dominated.
        assert non_dominated_mask(points).tolist() == [
            True, True, False, True, True,
        ]

    def test_signs_and_minimization_form_roundtrip(self):
        assert MAXIMIZED_OBJECTIVES == {"rate"}
        signs = objective_signs(("rate", "area", "time"))
        assert signs.tolist() == [-1.0, 1.0, 1.0]
        values = np.asarray([[50.0, 30.0, 70.0]])
        flipped = minimization_form(values, ("rate", "area", "time"))
        assert flipped.tolist() == [[-50.0, 30.0, 70.0]]
        back = minimization_form(flipped, ("rate", "area", "time"))
        assert back.tolist() == values.tolist()


class TestFastNonDominatedSort:
    def test_hand_example(self):
        objectives = np.asarray(
            [
                [1.0, 4.0],  # front 0
                [2.0, 2.0],  # front 0
                [4.0, 1.0],  # front 0
                [2.0, 5.0],  # front 1 (dominated by [1,4])
                [3.0, 3.0],  # front 1 (dominated by [2,2])
                [5.0, 5.0],  # front 2
            ]
        )
        fronts = fast_non_dominated_sort(objectives)
        assert [sorted(front.tolist()) for front in fronts] == [
            [0, 1, 2], [3, 4], [5],
        ]

    def test_single_point(self):
        fronts = fast_non_dominated_sort(np.asarray([[1.0, 1.0]]))
        assert [front.tolist() for front in fronts] == [[0]]

    def test_duplicates_share_a_front(self):
        fronts = fast_non_dominated_sort(
            np.asarray([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        )
        assert [sorted(front.tolist()) for front in fronts] == [[0, 1], [2]]

    def test_empty(self):
        assert fast_non_dominated_sort(np.empty((0, 2))) == []


class TestCrowdingDistance:
    def test_boundaries_infinite_interior_normalized(self):
        front = np.asarray([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]])
        distance = crowding_distance(front)
        assert np.isinf(distance[0]) and np.isinf(distance[3])
        # Interior: (3-1)/3 + (4-2)/3 = 4/3 per objective pair.
        assert distance[1] == pytest.approx(4.0 / 3.0)
        assert distance[2] == pytest.approx(4.0 / 3.0)

    def test_two_points_both_infinite(self):
        distance = crowding_distance(np.asarray([[1.0, 2.0], [2.0, 1.0]]))
        assert np.isinf(distance).all()

    def test_zero_span_objective_skipped(self):
        front = np.asarray([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        distance = crowding_distance(front)
        assert np.isinf(distance[0]) and np.isinf(distance[2])
        assert distance[1] == pytest.approx(1.0)  # only objective 0 counts


class TestHypervolume:
    def test_hand_2d(self):
        points = np.asarray([[1.0, 2.0], [2.0, 1.0]])
        # Ref (3,3): union of 2x1 and 1x2 boxes minus 1x1 overlap... by
        # slicing: width 1 * (3-2) + width 1 * (3-1) = 3.0.
        assert hypervolume(points, np.asarray([3.0, 3.0])) == pytest.approx(3.0)

    def test_hand_2d_with_dominated_point(self):
        points = np.asarray([[1.0, 2.0], [2.0, 2.0], [2.0, 1.0]])
        assert hypervolume(points, np.asarray([3.0, 3.0])) == pytest.approx(3.0)

    def test_single_3d_box(self):
        points = np.asarray([[1.0, 2.0, 3.0]])
        reference = np.asarray([3.0, 4.0, 7.0])
        assert hypervolume(points, reference) == pytest.approx(2 * 2 * 4)

    def test_points_outside_reference_ignored(self):
        points = np.asarray([[1.0, 5.0], [2.0, 1.0]])
        assert hypervolume(points, np.asarray([3.0, 3.0])) == pytest.approx(2.0)

    def test_empty(self):
        assert hypervolume(np.empty((0, 2)), np.asarray([1.0, 1.0])) == 0.0


class TestMultiObjectiveEngine:
    def engine(self, blocks, seed=5, objectives=OBJECTIVE_COLUMNS, params=FAST_EA):
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=8, block_length=4
        )
        return MultiObjectiveEngine(
            fitness=fitness,
            genome_length=8 * 4,
            objectives=objectives,
            params=params,
            seed=seed,
        )

    def test_requires_two_objectives(self, blocks):
        with pytest.raises(ValueError, match="at least 2"):
            self.engine(blocks, objectives=("rate",))

    def test_rejects_unknown_objective(self, blocks):
        with pytest.raises(ValueError, match="unknown objectives"):
            self.engine(blocks, objectives=("rate", "power"))

    def test_rejects_duplicate_objectives(self, blocks):
        with pytest.raises(ValueError, match="duplicate"):
            self.engine(blocks, objectives=("rate", "rate"))

    def test_requires_objective_fitness(self):
        with pytest.raises(TypeError, match="evaluate_objectives"):
            MultiObjectiveEngine(fitness=object(), genome_length=4)

    def test_rejects_adaptive_operators(self, blocks):
        adaptive = FAST_EA.with_updates(adaptive_operators=True)
        with pytest.raises(ValueError, match="adaptive_operators"):
            self.engine(blocks, params=adaptive)

    def test_seeded_runs_identical(self, blocks):
        first = self.engine(blocks, seed=5).run()
        second = self.engine(blocks, seed=5).run()
        assert first.evaluations == second.evaluations
        assert first.generations == second.generations
        assert [p.values for p in first.front] == [
            p.values for p in second.front
        ]
        for a, b in zip(first.front, second.front):
            assert np.array_equal(a.genome, b.genome)

    def test_front_is_mutually_non_dominated_and_unique(self, blocks):
        result = self.engine(blocks, seed=7).run()
        values = [p.values for p in result.front]
        assert len(set(values)) == len(values)
        matrix = minimization_form(
            np.asarray(values, dtype=np.float64), result.objectives
        )
        assert non_dominated_mask(matrix).all()

    def test_front_values_finite(self, blocks):
        result = self.engine(blocks, seed=7).run()
        assert len(result.front) >= 1
        for point in result.front:
            assert all(np.isfinite(v) for v in point.values)


class TestBuildParetoFront:
    def test_job_count_and_backend_invariance(self, blocks):
        serial = build_pareto_front(blocks, fast_config(), seed=13)
        pooled = build_pareto_front(
            blocks, fast_config(), seed=13, backend=ProcessBackend(4)
        )
        assert pareto_markdown(serial) == pareto_markdown(pooled)

    def test_kernel_invariance(self, blocks, force_kernel):
        outputs = {}
        for kernel in ("bitpack", "scalar"):
            force_kernel(kernel)
            outputs[kernel] = pareto_markdown(
                build_pareto_front(blocks, fast_config(), seed=13)
            )
        assert outputs["bitpack"] == outputs["scalar"]

    def test_adaptive_operators_rejected_through_config(self, blocks):
        config = fast_config().with_updates(
            ea=FAST_EA.with_updates(adaptive_operators=True)
        )
        with pytest.raises(ValueError, match="adaptive_operators"):
            build_pareto_front(blocks, config, seed=13)

    def test_objective_subset_columns(self, blocks):
        result = build_pareto_front(
            blocks, fast_config(), OBJECTIVE_SETS["rate+area"], seed=13
        )
        assert result.objectives == ("rate", "area")
        for point in result.front:
            assert len(point.values) == 2

    def test_standard_circuit_has_tradeoff_front(self):
        from repro.cli import _calibrated_test_set

        test_set = _calibrated_test_set("s298", seed=1)
        result = build_pareto_front(
            test_set.blocks(8),
            CompressionConfig(
                block_length=8,
                n_vectors=12,
                runs=2,
                ea=EAParameters(stagnation_limit=8, max_evaluations=300),
            ),
            seed=1,
        )
        assert len(result.front) >= 2
        assert result.front_hypervolume() > 0.0

    def test_merge_fronts_filters_cross_run_domination(self, blocks):
        config = fast_config()
        tasks = [
            ParetoRunTask(
                run_index=index,
                blocks=blocks,
                config=config,
                objectives=OBJECTIVE_SETS["rate+area+time"],
                seed_sequence=child,
            )
            for index, child in enumerate(
                np.random.SeedSequence(13).spawn(config.runs)
            )
        ]
        outcomes = [execute_pareto_task(task) for task in tasks]
        front = merge_fronts(outcomes, OBJECTIVE_SETS["rate+area+time"])
        values = [p.values for p in front]
        assert len(set(values)) == len(values)
        matrix = minimization_form(
            np.asarray(values), OBJECTIVE_SETS["rate+area+time"]
        )
        assert non_dominated_mask(matrix).all()

    def test_fingerprint_distinguishes_objectives_and_runs(self, blocks):
        config = fast_config()
        child = np.random.SeedSequence(13).spawn(1)[0]

        def fingerprint(objectives, run_index=0):
            return pareto_task_fingerprint(
                ParetoRunTask(
                    run_index=run_index,
                    blocks=blocks,
                    config=config,
                    objectives=objectives,
                    seed_sequence=child,
                )
            )

        base = fingerprint(OBJECTIVE_SETS["rate+area+time"])
        assert fingerprint(OBJECTIVE_SETS["rate+area"]) != base
        assert fingerprint(OBJECTIVE_SETS["rate+area+time"], 1) != base

    def test_checkpoint_resume_byte_parity(self, blocks, tmp_path):
        reference = pareto_markdown(
            build_pareto_front(blocks, fast_config(), seed=13)
        )
        store = CheckpointStore(root=tmp_path / "checkpoints")
        first = build_pareto_front(
            blocks, fast_config(), seed=13, checkpoint=store
        )
        assert pareto_markdown(first) == reference
        from repro.parallel import FaultToleranceStats

        stats = FaultToleranceStats()
        resumed = build_pareto_front(
            blocks, fast_config(), seed=13, checkpoint=store, stats=stats
        )
        assert pareto_markdown(resumed) == reference
        assert stats.resumed == fast_config().runs


class TestParetoMarkdown:
    def test_report_shape(self, blocks):
        text = pareto_markdown(build_pareto_front(blocks, fast_config(), seed=13))
        assert text.startswith("### Pareto front (rate, area, time)")
        assert "| # | Rate % | Area bits | Time cycles |" in text
        assert "- hypervolume:" in text
        assert text.endswith("\n")
