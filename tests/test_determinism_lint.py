"""Determinism lint: no wall clocks inside the simulation packages, no
environment-dependent analysis, no test code in the package.

The telemetry contract (DESIGN.md §9) is that telemetry may *read* wall
clocks but never feeds simulation state.  The cheapest way to hold that
line structurally is to ban wall-clock calls outright under
``src/repro/netsim/`` and ``src/repro/synth/`` — simulated time there
comes from the event engine's clock, and anything wall-clock-derived
would make traces depend on host speed.  Timing instrumentation for
these layers lives one level up, on the backend boundary
(``repro.backends.base.timed_window``), which this lint deliberately
does not cover.

The same reasoning covers ``src/repro/analysis/`` and ``src/repro/core/``:
their results must depend on their inputs alone, so neither reads the
process environment.  And nothing under ``src/`` imports from ``tests/``
— the scalar reference oracles live there and must stay out of
production paths.

Finally, there is one campaign driver: only ``repro.core.parallel``
constructs a ``MeasurementCampaign`` (its per-shard runner), so serial,
sharded and resumed runs all take the same path.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "repro"
LINTED_PACKAGES = ("netsim", "synth")
ENV_FREE_PACKAGES = ("analysis", "core")

#: The one module allowed to construct a ``MeasurementCampaign``.
CAMPAIGN_DRIVER = SRC / "core" / "parallel.py"

#: Top-level names test code is importable under (``tests`` itself, or a
#: module at its root such as ``oracles`` or ``conftest``).
TEST_MODULES = frozenset({"tests"} | {path.stem for path in TESTS.glob("*.py")})

#: ``time.<attr>()`` calls that read a host clock.
BANNED_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
#: ``datetime.<attr>()`` / ``date.<attr>()`` constructors that read one.
BANNED_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _violations_in_source(source: str, filename: str) -> list[str]:
    found: list[str] = []
    tree = ast.parse(source, filename=filename)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in BANNED_TIME_ATTRS:
                        found.append(
                            f"{filename}:{node.lineno}: "
                            f"from time import {alias.name}"
                        )
            continue
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if not isinstance(value, ast.Name):
            continue
        if value.id == "time" and node.attr in BANNED_TIME_ATTRS:
            found.append(f"{filename}:{node.lineno}: time.{node.attr}")
        if value.id in ("datetime", "date") and node.attr in BANNED_DATETIME_ATTRS:
            found.append(f"{filename}:{node.lineno}: {value.id}.{node.attr}")
    return found


def _violations_in_tree() -> list[str]:
    found: list[str] = []
    for package in LINTED_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            relative = str(path.relative_to(SRC.parent.parent))
            found.extend(_violations_in_source(path.read_text(), relative))
    return found


def test_no_wall_clock_in_simulation_packages():
    violations = _violations_in_tree()
    assert not violations, (
        "wall-clock calls are banned under src/repro/netsim and "
        "src/repro/synth (simulated time comes from the engine clock; "
        "telemetry timing belongs on the backend boundary):\n"
        + "\n".join(violations)
    )


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nx = time.time()",
        "import time\nx = time.monotonic_ns()",
        "from time import monotonic",
        "from datetime import datetime\nx = datetime.now()",
        "import datetime as dt\n\ndef f(datetime):\n    return datetime.utcnow()",
    ],
)
def test_lint_catches_known_bad_patterns(snippet):
    assert _violations_in_source(snippet, "fake.py")


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nx = time.sleep",  # not a clock read
        "clock.now",  # the engine's own clock is fine
        "from time import sleep",
    ],
)
def test_lint_allows_benign_patterns(snippet):
    assert not _violations_in_source(snippet, "fake.py")


# -- environment reads and test imports ------------------------------------------


def _env_reads_in_source(source: str, filename: str) -> list[str]:
    found: list[str] = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    found.append(f"{filename}:{node.lineno}: from os import {alias.name}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ):
            found.append(f"{filename}:{node.lineno}: os.{node.attr}")
    return found


def _test_imports_in_source(source: str, filename: str) -> list[str]:
    found: list[str] = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] in TEST_MODULES:
                found.append(f"{filename}:{node.lineno}: imports {name}")
    return found


def _scan(paths, check) -> list[str]:
    found: list[str] = []
    for path in paths:
        relative = str(path.relative_to(SRC.parent.parent))
        found.extend(check(path.read_text(), relative))
    return found


def test_no_environment_reads_in_analysis_or_core():
    paths = [p for package in ENV_FREE_PACKAGES for p in sorted((SRC / package).rglob("*.py"))]
    violations = _scan(paths, _env_reads_in_source)
    assert not violations, (
        "src/repro/analysis and src/repro/core must not read the process "
        "environment (results depend on inputs alone):\n" + "\n".join(violations)
    )


def test_src_never_imports_test_code():
    violations = _scan(sorted(SRC.rglob("*.py")), _test_imports_in_source)
    assert not violations, (
        "nothing under src/ may import from tests/:\n" + "\n".join(violations)
    )


@pytest.mark.parametrize(
    "snippet",
    [
        "import os\nx = os.environ.get('A')",
        "import os\nx = os.getenv('A')",
        "from os import environ",
        "from os import getenv as g",
    ],
)
def test_env_lint_catches_known_bad_patterns(snippet):
    assert _env_reads_in_source(snippet, "fake.py")


@pytest.mark.parametrize(
    "snippet",
    ["import tests.oracles", "from oracles import scalar_sorted", "from tests import oracles"],
)
def test_import_lint_catches_test_imports(snippet):
    assert _test_imports_in_source(snippet, "fake.py")


@pytest.mark.parametrize(
    "snippet", ["import os\nx = os.path.join('a')", "from repro.analysis import runs"]
)
def test_lints_allow_benign_patterns(snippet):
    assert not _env_reads_in_source(snippet, "fake.py")
    assert not _test_imports_in_source(snippet, "fake.py")


# -- one campaign driver -----------------------------------------------------------


def _campaign_constructions_in_source(source: str, filename: str) -> list[str]:
    found: list[str] = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "MeasurementCampaign":
            found.append(f"{filename}:{node.lineno}: MeasurementCampaign(...)")
    return found


def test_only_the_parallel_runner_constructs_campaigns():
    paths = [p for p in sorted(SRC.rglob("*.py")) if p != CAMPAIGN_DRIVER]
    violations = _scan(paths, _campaign_constructions_in_source)
    assert not violations, (
        "drive campaigns through repro.core.parallel.ParallelCampaign "
        "(workers=1 is the serial run); only src/repro/core/parallel.py "
        "may construct a MeasurementCampaign:\n" + "\n".join(violations)
    )


@pytest.mark.parametrize(
    "snippet",
    [
        "MeasurementCampaign(plan, source).run()",
        "from repro.core import campaign\ncampaign.MeasurementCampaign(plan, source)",
    ],
)
def test_campaign_lint_catches_direct_construction(snippet):
    assert _campaign_constructions_in_source(snippet, "fake.py")


@pytest.mark.parametrize(
    "snippet",
    [
        "ParallelCampaign(plan, source, workers=1).run()",
        "from repro.core.campaign import MeasurementCampaign",
        "x: MeasurementCampaign | None = None",
    ],
)
def test_campaign_lint_allows_driver_use(snippet):
    assert not _campaign_constructions_in_source(snippet, "fake.py")
