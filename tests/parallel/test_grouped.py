"""Tests for the grouped fan-out helper."""

from repro.parallel import ProcessBackend, SerialBackend, grouped_map


def _double(x):
    return 2 * x


class TestGroupedMap:
    def test_results_regrouped_in_group_and_item_order(self):
        groups = [("a", [1, 2]), ("b", [3]), ("c", [4, 5, 6])]
        result = grouped_map(SerialBackend(), _double, groups)
        assert result == [[2, 4], [6], [8, 10, 12]]

    def test_progress_one_line_per_group_in_group_order(self):
        lines = []
        grouped_map(
            ProcessBackend(3),
            _double,
            [("a", [1, 2]), ("b", [3]), ("c", [4])],
            progress=lines.append,
        )
        assert lines == ["  a: done", "  b: done", "  c: done"]

    def test_describe_builds_the_line(self):
        lines = []
        grouped_map(
            SerialBackend(),
            _double,
            [("K=8", [1, 2, 3])],
            progress=lines.append,
            describe=lambda label, n, seconds: f"{label}|{n}",
        )
        assert lines == ["K=8|3"]

    def test_empty_group_does_not_stall_later_lines(self):
        lines = []
        result = grouped_map(
            SerialBackend(),
            _double,
            [("empty", []), ("full", [7])],
            progress=lines.append,
        )
        assert result == [[], [14]]
        assert lines == ["  empty: done", "  full: done"]

    def test_no_groups(self):
        assert grouped_map(SerialBackend(), _double, []) == []
