"""Integration tests for the ablation studies."""

import pytest

from repro.core.config import EAParameters
from repro.experiments.ablations import (
    decoder_cost_study,
    kl_sweep,
    operator_sweep,
    seeding_ablation,
    subsumption_ablation,
)
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set


@pytest.fixture(scope="module")
def test_set():
    return synthetic_test_set(
        SyntheticSpec(
            "ablate", n_patterns=40, pattern_bits=24, care_density=0.45, seed=3
        )
    )


FAST_EA = EAParameters(stagnation_limit=6, max_evaluations=150)


class TestKLSweep:
    def test_sweep_covers_grid(self, test_set):
        points = kl_sweep(
            test_set, grid=((4, 8), (8, 9)), ea=FAST_EA, runs=1, seed=2
        )
        assert [p.label for p in points] == ["K=4,L=8", "K=8,L=9"]
        for point in points:
            assert point.best_rate >= point.mean_rate - 1e-9
            assert point.evaluations > 0


    def test_paper_default_near_the_best_on_calibrated_s349(self):
        """K=12, L=64 lands within 10 points of the best grid point."""
        from repro.testdata.calibration import calibrate_spec
        from repro.testdata.registry import TABLE1_STUCK_AT, row_by_name

        row = row_by_name(TABLE1_STUCK_AT, "s349")
        spec = SyntheticSpec(
            name=row.circuit,
            n_patterns=row.n_patterns,
            pattern_bits=row.pattern_bits,
            care_density=0.5,
            seed=2005,
        )
        points = kl_sweep(calibrate_spec(spec, row.published["9C"]).test_set)
        by_label = {point.label: point.best_rate for point in points}
        assert by_label["K=12,L=64"] >= max(by_label.values()) - 10.0


class TestOperatorSweep:
    def test_all_variants_run(self, test_set):
        points = operator_sweep(test_set, runs=1, seed=2, n_vectors=8,
                                block_length=6)
        assert len(points) == 5
        labels = {p.label for p in points}
        assert "paper (30/30/10)" in labels
        for point in points:  # every operator mix compresses this set
            assert point.best_rate >= point.mean_rate - 1e-9
            assert point.mean_rate > 0.0


class TestSeedingAblation:
    def test_two_points(self, test_set):
        points = seeding_ablation(
            test_set, block_length=8, n_vectors=9, runs=1, seed=2
        )
        assert len(points) == 2
        assert points[0].label.startswith("random")
        assert points[1].label.startswith("9C-seeded")
        # A 9C-seeded start must not leave the search far behind.
        assert points[1].mean_rate >= points[0].mean_rate - 8.0


class TestSubsumptionAblation:
    def test_refined_never_worse(self, test_set):
        plain, refined = subsumption_ablation(
            test_set, block_length=6, n_vectors=8, runs=2, seed=2
        )
        assert refined.mean_rate >= plain.mean_rate - 1e-9
        assert refined.best_rate >= plain.best_rate - 1e-9


class TestDecoderCostStudy:
    def test_reports_both_methods(self, test_set):
        costs = decoder_cost_study(
            test_set, block_length=6, n_vectors=8, seed=2
        )
        assert set(costs) == {"9C", "EA"}
        for values in costs.values():
            assert values["payload_bits"] > 0
            assert values["code_table_bits"] > 0
        # Section 5: the EA's reconfigurable-decoder table is small
        # next to the payload bits it saves over 9C.
        saving = costs["9C"]["payload_bits"] - costs["EA"]["payload_bits"]
        assert costs["EA"]["code_table_bits"] < max(saving, 1.0) * 5
