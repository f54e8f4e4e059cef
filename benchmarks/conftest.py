"""Benchmark harness helpers.

The benches time kernels, the packet simulator, sharded campaigns and
telemetry overhead, and check the design choices in DESIGN.md.  The
paper verdicts are not here: each experiment records its own checks,
which ``repro <id> --seed 0`` prints.  Run with::

    pytest benchmarks/ --benchmark-only

Scale knobs default to a few seconds per bench; set
``REPRO_BENCH_SCALE=full`` for campaign-scale runs (minutes each).
"""

import os

FULL = os.environ.get("REPRO_BENCH_SCALE", "small") == "full"


def scaled(small: dict, full: dict) -> dict:
    """Pick bench kwargs by scale."""
    return full if FULL else small
