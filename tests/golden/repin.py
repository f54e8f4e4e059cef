"""Re-pin the experiment golden manifest.

    PYTHONPATH=src python tests/golden/repin.py

Runs every pinned experiment at the manifest's small fixed scale,
rewrites ``experiments.json`` and prints the keys whose digest moved.  A
declared output change commits the manifest diff and names the moved
keys, and why they moved, in CHANGES.md; a re-pin never hides a defect.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MANIFEST = Path(__file__).with_name("experiments.json")
EXPERIMENTS = ("fig3", "tab2", "fig4", "fig6", "ext-cc", "ext-lb")
SEEDS = (0, 17)
SCALE = {"n_windows": 4, "window_s": 0.5}


def result_digest(result) -> str:
    """sha256 of an experiment's JSON form, series included."""
    blob = json.dumps(result.to_dict(include_series=True), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def compute() -> dict[str, str]:
    """``"<experiment>/seed<N>"`` -> digest, for every pinned run."""
    from repro.experiments import run_experiment

    return {
        f"{experiment}/seed{seed}": result_digest(
            run_experiment(experiment, seed=seed, **SCALE)
        )
        for experiment in EXPERIMENTS
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
