"""Plain-text emitters for experiment results.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep the formatting consistent (fixed-width ASCII tables
and CDF series) without pulling in a plotting stack.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.analysis.cdf import EmpiricalCdf


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width ASCII table."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0.0):
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def cdf_series(cdf: EmpiricalCdf, n_points: int = 50) -> list[tuple[float, float]]:
    """(x, F) pairs matching the released-data distribution format."""
    xs, fs = cdf.grid(n_points)
    return [(float(x), float(f)) for x, f in zip(xs, fs)]


def format_comparison(
    rows: Iterable[tuple[str, object, object]],
    title: str | None = None,
) -> str:
    """Paper-vs-measured table used by every experiment."""
    return format_table(
        headers=("metric", "paper", "measured"),
        rows=rows,
        title=title,
    )


def heatmap_to_text(matrix: np.ndarray, labels: Sequence[str] | None = None) -> str:
    """Coarse ASCII rendering of a correlation heatmap (Fig 8)."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if labels is None:
        labels = [f"s{i}" for i in range(n)]
    ramp = " .:-=+*#%@"

    def shade(value: float) -> str:
        clipped = min(1.0, max(0.0, (value + 1.0) / 2.0))
        return ramp[min(len(ramp) - 1, int(clipped * (len(ramp) - 1)))]

    width = max(len(label) for label in labels)
    lines = []
    for i, label in enumerate(labels):
        row = "".join(shade(float(matrix[i, j])) for j in range(n))
        lines.append(f"{label.rjust(width)} {row}")
    return "\n".join(lines)
