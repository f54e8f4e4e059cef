"""Export and compare release-format distribution files.

The authors released (x, cdf) distributions for the paper's figures at
github.com/zhangqiaorjc/imc2017-data.  ``export_distributions`` writes
our synthetic equivalents in the same format; ``compare_directory``
loads any directory of such files (ours or the real release) and reports
percentile and KS-distance agreement against freshly synthesized data —
so a user with the original data can quantify the reproduction directly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.analysis.bursts import extract_bursts_from_trace
from repro.analysis.cdf import EmpiricalCdf
from repro.data.io import distribution_from_samples, read_distribution, write_distribution
from repro.errors import DataFormatError
from repro.experiments.common import APPS, app_byte_traces
from repro.units import NS_PER_US

#: figures with a release-format distribution (samples from ``_samples_for``)
_EXPORTABLE = ("fig3", "fig4", "fig6")


def _samples_for(figure: str, app: str, seed: int, n_windows: int, window_s: float) -> np.ndarray:
    traces = app_byte_traces(app, seed=seed, n_windows=n_windows, window_s=window_s)
    if figure == "fig6":
        return np.clip(np.concatenate([t.utilization() for t in traces]), 0.0, 1.0)
    stats = [extract_bursts_from_trace(trace) for trace in traces]
    if figure == "fig3":
        return np.concatenate([s.durations_ns for s in stats]) / NS_PER_US
    if figure == "fig4":
        return np.concatenate([s.gaps_ns for s in stats]) / NS_PER_US
    raise DataFormatError(f"figure {figure!r} has no exportable distribution")


_UNITS = {"fig3": "us", "fig4": "us", "fig6": "fraction"}


def export_distributions(
    out_dir: str | Path,
    seed: int = 0,
    n_windows: int = 24,
    window_s: float = 2.0,
) -> list[Path]:
    """Write every exportable distribution; returns the file paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for figure in _EXPORTABLE:
        for app in APPS:
            samples = _samples_for(figure, app, seed, n_windows, window_s)
            dist = distribution_from_samples(samples, figure, app, _UNITS[figure])
            path = out_dir / f"{figure}_{app}.dist"
            write_distribution(path, dist)
            written.append(path)
    return written


def compare_directory(
    directory: str | Path,
    seed: int = 0,
    n_windows: int = 24,
    window_s: float = 2.0,
) -> list[dict]:
    """Compare every distribution file in ``directory`` against fresh
    synthetic data; returns one report dict per file."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.dist"))
    if not paths:
        raise DataFormatError(f"no .dist files in {directory}")
    reports: list[dict] = []
    for path in paths:
        reference = read_distribution(path)
        samples = _samples_for(
            reference.figure, reference.app, seed, n_windows, window_s
        )
        ours = EmpiricalCdf(samples)
        # Distributions with atoms (burst durations are multiples of the
        # sampling period) repeat x values on the quantile grid; keep the
        # maximal cdf per unique x so evaluation is right-continuous, and
        # compare both CDFs on the union of their unique support points.
        unique_x, last_index = np.unique(reference.x[::-1], return_index=True)
        unique_cdf = reference.cdf[::-1][last_index]
        grid = np.union1d(unique_x, np.unique(ours.values))
        reference_on_grid = np.interp(grid, unique_x, unique_cdf, left=0.0, right=1.0)
        ours_on_grid = ours(grid)
        ks = float(np.max(np.abs(reference_on_grid - ours_on_grid)))
        reports.append(
            {
                "file": path.name,
                "figure": reference.figure,
                "app": reference.app,
                "reference_p50": reference.percentile(0.5),
                "ours_p50": ours.median,
                "reference_p90": reference.percentile(0.9),
                "ours_p90": ours.p90,
                "ks_distance": ks,
            }
        )
    return reports
