"""Tests for the reporting helpers."""

import pytest

from repro.analysis.reporting import format_series, format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["id", "value"], [[1, 3.14159], [22, 0.5]], title="demo"
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "id" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_large_and_small_floats_compact(self):
        text = format_table(["x"], [[123456.0], [0.0001]])
        assert "1.23e+05" in text
        assert "0.0001" in text

    def test_zero_formatting(self):
        assert "0" in format_table(["x"], [[0.0]])


class TestFormatSeries:
    def test_one_row_per_series(self):
        text = format_series(
            "cores", [1, 2, 4], {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header + rule + two series
        assert lines[-1].startswith("b") or "b" in lines[-1]

    def test_precision_respected(self):
        text = format_series("x", [1], {"s": [3.14159]}, precision=3)
        assert "3.142" in text


class TestCellFormatting:
    @pytest.mark.parametrize("value,text", [
        (0.0, "0"),
        (-0.0, "0"),
        (1.0, "1.00"),
        (999.994, "999.99"),
        (1000.0, "1e+03"),
        (-2500.0, "-2.5e+03"),
        (0.01, "0.01"),
        (0.00999, "0.00999"),
        (7, "7"),
        ("conv0", "conv0"),
    ])
    def test_single_cell(self, value, text):
        assert format_table(["h"], [[value]]).splitlines()[-1].strip() == text

    def test_headers_left_and_cells_right_aligned(self):
        lines = format_table(["name", "n"], [["a", 1], ["bbbb", 22]]).splitlines()
        assert lines[0] == "name  n "
        assert lines[1] == "----  --"
        assert lines[2] == "   a   1"
        assert lines[3] == "bbbb  22"

    def test_no_title_line_without_a_title(self):
        assert format_table(["h"], [[1]]).splitlines()[0].strip() == "h"

    def test_series_x_values_become_headers(self):
        header = format_series("cores", [1, 2.5], {"s": [1.0, 2.0]}).splitlines()[0]
        assert header.split() == ["cores", "1", "2.50"]
