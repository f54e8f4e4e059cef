"""Report formatting tests."""

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.report import (
    cdf_series,
    format_comparison,
    format_table,
    heatmap_to_text,
)


class TestFormatTable:
    def test_aligned_columns(self):
        table = format_table(
            ("name", "value"), [("a", 1), ("longer-name", 123.456)], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "longer-name" in lines[4]
        # header separator matches widths
        assert set(lines[2]) <= {"-", " "}

    def test_float_formatting(self):
        table = format_table(("x",), [(0.001234,), (float("nan"),), (12345.6,)])
        assert "0.00123" in table
        assert "nan" in table
        assert "1.23e+04" in table

    def test_comparison_headers(self):
        table = format_comparison([("m", "p", "v")])
        assert "paper" in table.splitlines()[0]
        assert "measured" in table.splitlines()[0]


class TestCdfHelpers:
    def test_cdf_series_bounds(self):
        cdf = EmpiricalCdf(np.arange(100, dtype=float))
        series = cdf_series(cdf, n_points=11)
        assert len(series) == 11
        assert series[0][1] == 0.0
        assert series[-1][1] == 1.0


class TestHeatmap:
    def test_renders_square(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        text = heatmap_to_text(matrix, labels=["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ")
        assert len(lines[0]) == len(lines[1])

    def test_extremes_use_different_shades(self):
        matrix = np.array([[1.0, -1.0], [-1.0, 1.0]])
        text = heatmap_to_text(matrix)
        shades = {ch for line in text.splitlines() for ch in line.split(" ", 1)[1]}
        assert len(shades) == 2
