"""Every pinned experiment's output equals its digest in experiments.json."""

import repin

from repro.experiments import EXPERIMENTS


def test_every_registered_experiment_is_pinned():
    assert set(repin.SIZES) == set(EXPERIMENTS)


def test_experiment_outputs_match_the_golden_manifest():
    changed = repin.moved(repin.load(), repin.compute())
    assert not changed, (
        f"experiment output moved for {', '.join(changed)}; if the change is "
        "declared, re-pin with tests/golden/repin.py and list these keys in CHANGES.md"
    )
