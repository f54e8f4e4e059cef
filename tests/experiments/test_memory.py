"""A port figure's peak memory does not grow with its campaign.

Each window is reduced inside its shard as soon as it is collected, so
fig3 holds one window's traces at a time whatever the window count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
PROBE = """
import resource, sys
from repro.experiments import run_experiment
run_experiment("fig3", seed=0, n_windows=int(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss(n_windows: int) -> int:
    """Peak RSS of a fresh interpreter that runs fig3 over ``n_windows``."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(n_windows)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return int(result.stdout.split()[-1])


def test_fig3_peak_rss_is_flat_in_window_count():
    small, large = peak_rss(12), peak_rss(48)
    assert large <= 1.1 * small, f"peak RSS {small} at 12 windows, {large} at 48"
