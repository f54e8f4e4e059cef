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
from repro.data.schema import DistributionFile
from repro.errors import DataFormatError
from repro.core.samples import CounterTrace
from repro.experiments.common import APPS, reduce_app_traces
from repro.units import NS_PER_US

#: figures with a release-format distribution, and their sample units
_UNITS = {"fig3": "us", "fig4": "us", "fig6": "fraction"}


def _trace_samples(trace: CounterTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What export keeps of a trace: burst durations, gaps, utilization."""
    stats = extract_bursts_from_trace(trace)
    return stats.durations_ns, stats.gaps_ns, trace.utilization()


def _app_samples(app: str, seed: int, n_windows: int, window_s: float) -> dict[str, np.ndarray]:
    """Every exportable figure's samples for one app, from one collection."""
    durations, gaps, utilization = zip(*reduce_app_traces(
        app, reduce=_trace_samples, seed=seed, n_windows=n_windows, window_s=window_s
    ))
    return {
        "fig3": np.concatenate(durations) / NS_PER_US,
        "fig4": np.concatenate(gaps) / NS_PER_US,
        "fig6": np.clip(np.concatenate(utilization), 0.0, 1.0),
    }


def export_distributions(
    out_dir: str | Path,
    seed: int = 0,
    n_windows: int = 24,
    window_s: float = 2.0,
) -> list[Path]:
    """Write every exportable distribution; returns the file paths, figure
    by figure."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for app in APPS:
        for figure, samples in _app_samples(app, seed, n_windows, window_s).items():
            dist = distribution_from_samples(samples, figure, app, _UNITS[figure])
            write_distribution(out_dir / f"{figure}_{app}.dist", dist)
    return [out_dir / f"{figure}_{app}.dist" for figure in _UNITS for app in APPS]


def compare_directory(
    directory: str | Path,
    seed: int = 0,
    n_windows: int = 24,
    window_s: float = 2.0,
) -> list[dict]:
    """Compare every distribution file in ``directory`` against fresh
    synthetic data; returns one report dict per file, in file-name order."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.dist"))
    if not paths:
        raise DataFormatError(f"no .dist files in {directory}")
    by_app: dict[str, list] = {}
    for path in paths:
        reference = read_distribution(path)
        if reference.figure not in _UNITS:
            raise DataFormatError(
                f"figure {reference.figure!r} has no exportable distribution"
            )
        by_app.setdefault(reference.app, []).append((path, reference))
    reports: dict[Path, dict] = {}
    for app, files in by_app.items():
        collected = _app_samples(app, seed, n_windows, window_s)
        for path, reference in files:
            reports[path] = _compare(path, reference, collected[reference.figure])
    return [reports[path] for path in paths]


def _compare(path: Path, reference: DistributionFile, samples: np.ndarray) -> dict:
    """Percentile and KS agreement of one reference file with our samples."""
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
    return {
        "file": path.name,
        "figure": reference.figure,
        "app": reference.app,
        "reference_p50": reference.percentile(0.5),
        "ours_p50": ours.median,
        "reference_p90": reference.percentile(0.9),
        "ours_p90": ours.p90,
        "ks_distance": ks,
    }
