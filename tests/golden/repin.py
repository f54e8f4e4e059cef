"""Re-pin the experiment golden manifest.

    PYTHONPATH=src python tests/golden/repin.py

Runs every registered experiment at its small fixed size in ``SIZES``,
rewrites ``experiments.json`` and prints the keys whose digest moved.  A
declared output change commits the manifest diff and names the moved
keys, and why they moved, in CHANGES.md; a re-pin never hides a defect.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MANIFEST = Path(__file__).with_name("experiments.json")
SEEDS = (0, 17)
_PORT = {"n_windows": 4, "window_s": 0.5}
_RACK = {"duration_s": 0.5}
#: Every registered experiment at a small fixed size.  ext-netsim's
#: window is the shortest in which every app's netsim port bursts on both
#: seeds (hadoop at seed 17 needs 100 ms).
SIZES = {
    "fig1": {"n_links": 200, "samples_per_link": 4},
    "fig2": {"hours": 2},
    "tab1": {"duration_s": 0.05},
    "fig3": _PORT,
    "tab2": _PORT,
    "fig4": _PORT,
    "fig5": _RACK,
    "fig6": _PORT,
    "fig7": _RACK,
    "fig8": _RACK,
    "fig9": _RACK,
    "fig10": {"duration_s": 1.0, "n_activity_windows": 4},
    "ext-cc": _PORT,
    "ext-lb": _PORT,
    "ext-pacing": {},
    "ext-failures": _RACK,
    "ext-netsim": {"measure_ms": 100.0},
    "ext-chaos": {
        "n_windows": 2,
        "window_s": 0.5,
        "campaign_racks_per_app": 1,
        "campaign_hours": 2,
        "campaign_window_s": 0.25,
    },
}


def result_digest(result) -> str:
    """sha256 of an experiment's JSON form, series included."""
    blob = json.dumps(result.to_dict(include_series=True), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def compute() -> dict[str, str]:
    """``"<experiment>/seed<N>"`` -> digest, for every pinned run."""
    from repro.experiments import run_experiment

    return {
        f"{experiment}/seed{seed}": result_digest(
            run_experiment(experiment, seed=seed, **size)
        )
        for experiment, size in SIZES.items()
        for seed in SEEDS
    }


def load() -> dict[str, str]:
    return json.loads(MANIFEST.read_text())


def moved(pinned: dict[str, str], current: dict[str, str]) -> list[str]:
    """Every key that differs, is new, or is gone."""
    keys = pinned.keys() | current.keys()
    return sorted(key for key in keys if pinned.get(key) != current.get(key))


def main() -> None:
    pinned = load() if MANIFEST.exists() else {}
    current = compute()
    MANIFEST.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    changed = moved(pinned, current)
    print("moved: " + (", ".join(changed) if changed else "nothing"))


if __name__ == "__main__":
    main()
