"""Tests for table rendering and comparison helpers."""

import pytest

from repro.analysis.report import (
    comparison_table,
    render_table,
    shape_preserved,
)


class TestRenderTable:
    def test_contains_title_and_headers(self):
        out = render_table("T", ["a", "b"], [[1, 2], [3, 4]])
        assert "== T ==" in out
        assert "a" in out and "b" in out

    def test_rows_formatted_with_thousands(self):
        out = render_table("T", ["x"], [[1234567]])
        assert "1,234,567" in out

    def test_note_appended(self):
        out = render_table("T", ["x"], [[1]], note="hello")
        assert out.endswith("note: hello")

    def test_float_formatting(self):
        out = render_table("T", ["x"], [[3.14159], [12345.6]])
        assert "3.14" in out
        assert "12,346" in out


class TestComparisonTable:
    def test_ratio_column(self):
        out = comparison_table(
            "C",
            [{"label": "x", "paper": 100, "measured": 95}],
        )
        assert "0.950" in out

    def test_multiple_rows(self):
        out = comparison_table(
            "C",
            [
                {"label": "a", "paper": 10, "measured": 10},
                {"label": "b", "paper": 20, "measured": 30},
            ],
        )
        assert "1.000" in out and "1.500" in out


class TestShapePreserved:
    def test_same_ordering(self):
        assert shape_preserved([1, 5, 3], [10, 50, 30])

    def test_crossed_ordering(self):
        assert not shape_preserved([1, 5, 3], [10, 50, 60])

    def test_scaled_series(self):
        paper = [488, 97656, 22536, 2616]
        measured = [x * 0.9 for x in paper]
        assert shape_preserved(paper, measured)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shape_preserved([1], [1, 2])
