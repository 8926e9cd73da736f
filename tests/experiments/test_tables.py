"""Integration tests for table building and formatting."""

import pytest

from repro.experiments.tables import (
    TABLE1_COLUMNS,
    TABLE2_COLUMNS,
    build_table1,
    build_table2,
    format_table,
)
from .test_runner import MICRO


@pytest.fixture(scope="module")
def table1_result():
    return build_table1(circuits=("s349", "s298"), budget=MICRO, seed=4)


@pytest.fixture(scope="module")
def table2_result():
    return build_table2(circuits=("s27",), budget=MICRO, seed=4)


class TestBuildTables:
    def test_table1_rows(self, table1_result):
        assert [row.circuit for row in table1_result.rows] == ["s349", "s298"]
        assert table1_result.columns == TABLE1_COLUMNS

    def test_table2_rows(self, table2_result):
        assert [row.circuit for row in table2_result.rows] == ["s27"]
        assert table2_result.columns == TABLE2_COLUMNS

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            build_table1(circuits=("nope",), budget=MICRO)

    def test_progress_callback(self):
        messages = []
        build_table1(
            circuits=("s349",), budget=MICRO, seed=4, progress=messages.append
        )
        assert len(messages) == 1
        assert "s349" in messages[0]


class TestTableResultStats:
    def test_measured_average(self, table1_result):
        value = table1_result.measured_average("9C")
        rates = [row.measured["9C"] for row in table1_result.rows]
        assert value == pytest.approx(sum(rates) / len(rates))

    def test_published_subset_average(self, table1_result):
        value = table1_result.published_subset_average("9C")
        assert value == pytest.approx((23.0 + 19.0) / 2)

    def test_wins_counting(self, table1_result):
        wins = table1_result.wins("EA", "9C")
        assert 0 <= wins <= len(table1_result.rows)

    def test_anchoring_on_every_row(self, table1_result):
        for row in table1_result.rows:
            assert abs(row.measured["9C"] - row.published["9C"]) <= 1.0


class TestFormatTable:
    def test_contains_all_circuits_and_averages(self, table1_result):
        text = format_table(table1_result)
        assert "s349" in text and "s298" in text
        assert "Average" in text
        assert "Table 1" in text

    def test_table2_title(self, table2_result):
        assert "Table 2" in format_table(table2_result)

    def test_published_values_present(self, table1_result):
        text = format_table(table1_result)
        assert "( 23.0)" in text  # s349's published 9C rate


class TestPaperOrdering:
    """The headline orderings on the rows the quick tables start with,
    at the default budget and seed 2005."""

    def test_table1_subset_average(self):
        table = build_table1(circuits=("s349", "s298", "s386", "s953"), seed=2005)
        averages = {c: table.measured_average(c) for c in table.columns}
        assert averages["9C"] < averages["9C+HC"] < averages["EA"]
        assert averages["EA-Best"] >= averages["EA"]

    def test_table2_subset_average(self):
        table = build_table2(circuits=("s27", "s298", "s444"), seed=2005)
        averages = {c: table.measured_average(c) for c in table.columns}
        assert averages["9C"] < averages["9C+HC"]
        assert averages["EA2"] > averages["9C+HC"]
