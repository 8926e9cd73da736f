"""Tests for the 9C-anchored calibration."""

import pytest

from repro.experiments.tables import DEFAULT_QUICK_TABLE1, DEFAULT_QUICK_TABLE2
from repro.testdata.calibration import calibrate_spec, nine_c_rate
from repro.testdata.registry import TABLE1_STUCK_AT, TABLE2_PATH_DELAY, row_by_name
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set


def spec_for(circuit: str, seed: int = 11, rows=TABLE1_STUCK_AT) -> SyntheticSpec:
    row = row_by_name(rows, circuit)
    return SyntheticSpec(
        name=row.circuit,
        n_patterns=row.n_patterns,
        pattern_bits=row.pattern_bits,
        care_density=0.5,
        seed=seed,
    )


class TestNineCRate:
    def test_all_x_compresses_extremely_well(self):
        ts = synthetic_test_set(spec_for("s349").with_care_density(0.0))
        assert nine_c_rate(ts) > 80.0

    def test_dense_random_compresses_poorly(self):
        ts = synthetic_test_set(
            spec_for("s349").with_care_density(0.98)
        )
        assert nine_c_rate(ts) < 15.0

    def test_monotone_in_care_density(self):
        """The property bisection relies on (checked coarsely)."""
        rates = [
            nine_c_rate(
                synthetic_test_set(spec_for("s953").with_care_density(d))
            )
            for d in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a >= b - 1.0 for a, b in zip(rates, rates[1:]))


class TestCalibrateSpec:
    @pytest.mark.parametrize("circuit", ["s349", "s386", "c6288", "s953"])
    def test_hits_published_target(self, circuit):
        row = row_by_name(TABLE1_STUCK_AT, circuit)
        result = calibrate_spec(spec_for(circuit), row.published["9C"])
        assert result.anchor_error <= 1.0

    def test_negative_target(self):
        """c1908's published 9C rate is -2.0%: the generator must reach
        data that 9C *expands*."""
        row = row_by_name(TABLE1_STUCK_AT, "c1908")
        result = calibrate_spec(spec_for("c1908"), row.published["9C"])
        assert result.anchor_error <= 1.0
        assert result.achieved_nine_c_rate < 0

    def test_unreachable_target_returns_endpoint(self):
        result = calibrate_spec(spec_for("s349"), target_rate=99.9)
        # Best effort: lowest care density (highest rate) endpoint.
        assert result.spec.care_density <= 0.01
        assert result.anchor_error > 0

    def test_calibrated_test_set_has_right_size(self):
        row = row_by_name(TABLE1_STUCK_AT, "s349")
        result = calibrate_spec(spec_for("s349"), row.published["9C"])
        assert result.test_set.total_bits == row.test_set_bits

    def test_deterministic(self):
        row = row_by_name(TABLE1_STUCK_AT, "s349")
        first = calibrate_spec(spec_for("s349"), row.published["9C"])
        second = calibrate_spec(spec_for("s349"), row.published["9C"])
        assert first.spec.care_density == second.spec.care_density
        assert first.test_set.to_string() == second.test_set.to_string()

    @pytest.mark.parametrize(
        "table, circuit",
        [("table1", name) for name in DEFAULT_QUICK_TABLE1]
        + [("table2", name) for name in DEFAULT_QUICK_TABLE2],
    )
    def test_every_quick_row_is_anchored(self, table, circuit):
        """What `repro table1`/`table2` build at seed 2005: each row's
        9C column lands within 1.5 points of the published one."""
        rows = TABLE1_STUCK_AT if table == "table1" else TABLE2_PATH_DELAY
        spec = spec_for(circuit, seed=2005, rows=rows)
        target = row_by_name(rows, circuit).published["9C"]
        assert calibrate_spec(spec, target).anchor_error <= 1.5
