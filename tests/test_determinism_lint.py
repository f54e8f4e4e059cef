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


# -- src/ is what the CLI reaches ----------------------------------------------------

#: Entry points: the CLI, and ``python -m repro``, which only calls it.
ENTRY_MODULES = ("repro.cli", "repro.__main__")

#: Modules kept although the CLI does not reach them yet, with the reason.
UNREACHED_ALLOWLIST = {
    "repro.core.streaming": (
        "StreamingBurstStats becomes the campaign's mergeable per-window "
        "summary (ROADMAP item 9)"
    ),
}


def _module_names(src: Path) -> dict[str, Path]:
    """Dotted name -> file for every module under ``src`` (a package is
    named after its directory and maps to its ``__init__.py``)."""
    names = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names[".".join(parts)] = path
    return names


def _absolute(base: str | None, level: int, module: str, is_package: bool) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not level:
        return base or ""
    anchor = module.split(".")
    anchor = anchor[: len(anchor) - level + (1 if is_package else 0)]
    return ".".join(anchor + ([base] if base else []))


def _imports(tree: ast.AST, module: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` pairs a (non-package) module imports, anywhere in
    its body; ``name`` is None for a plain ``import a.b``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node.module, node.level, module, False)
            found.extend((base, alias.name) for alias in node.names)
    return found


def _package_bindings(tree: ast.Module, package: str) -> dict[str, tuple]:
    """Top-level names of a package ``__init__``: ``("import", module,
    name)`` for a re-export, ``("uses", names)`` for a definition made
    there (the names it refers to)."""
    bindings: dict[str, tuple] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            base = _absolute(node.module, node.level, package, True)
            for alias in node.names:
                bindings[alias.asname or alias.name] = ("import", base, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bindings[alias.asname or alias.name.split(".")[0]] = ("import", alias.name, None)
        else:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            uses = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            for name in names:
                bindings[name] = ("uses", uses - {name})
    return bindings


def _unreached_modules(src: Path, entries=ENTRY_MODULES) -> list[str]:
    """Non-package modules no entry point reaches.

    Walks the import graph from the entry modules.  An import from a
    package resolves each imported name to the module that defines it:
    through the package's re-exports, or, for code defined in the
    ``__init__`` itself, to the modules that code uses.  The rest of a
    package ``__init__`` is never walked: re-exporting a module does not
    make it reachable.
    """
    files = _module_names(src)
    trees = {name: ast.parse(path.read_text(), filename=str(path)) for name, path in files.items()}
    packages = {name for name, path in files.items() if path.name == "__init__.py"}
    bindings = {name: _package_bindings(trees[name], name) for name in packages}

    def resolve(base: str, name: str | None, seen: frozenset = frozenset()) -> set[str]:
        if name is not None and f"{base}.{name}" in files:
            return {f"{base}.{name}"}
        if base not in packages or name is None:
            return {base} if base in files else set()
        binding = bindings[base].get(name)
        if binding is None or (base, name) in seen:
            return set()
        seen = seen | {(base, name)}
        if binding[0] == "import":
            return resolve(binding[1], binding[2], seen)
        return set().union(*(resolve(base, used, seen) for used in binding[1]))

    reached: set[str] = set()
    stack = [entry for entry in entries if entry in files]
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        for base, name in _imports(trees[module], module):
            stack.extend(target for target in resolve(base, name) if target not in packages)
    return sorted(name for name in files if name not in packages and name not in reached)


def test_every_src_module_is_reached_from_the_cli():
    unreached = [name for name in _unreached_modules(SRC) if name not in UNREACHED_ALLOWLIST]
    assert not unreached, (
        "every module under src/repro must be imported on a path from "
        "repro/cli.py (package re-exports alone do not count); delete these "
        "or wire them into an experiment:\n" + "\n".join(unreached)
    )


def test_reachability_allowlist_is_current():
    assert set(UNREACHED_ALLOWLIST) <= set(_unreached_modules(SRC))


def _write_package(root: Path, files: dict[str, str]) -> Path:
    for relative, source in files.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root / "repro"


def test_reachability_follows_re_exports_but_not_package_inits(tmp_path):
    src = _write_package(
        tmp_path,
        {
            "__init__.py": "",
            "cli.py": "from repro.core import used\nfrom repro.core import helper\n",
            "core/__init__.py": (
                "from repro.core.impl import used\n"
                "from repro.core.orphan import unused\n"
                "from repro.core.backend import Backend\n"
                "REGISTRY = {'b': Backend}\n"
                "def make(): return REGISTRY['b']()\n"
            ),
            "core/impl.py": "from repro.core import make\ndef used(): return make()\n",
            "core/backend.py": "class Backend: pass\n",
            "core/helper.py": "from .deep import thing\n",
            "core/deep.py": "thing = 1\n",
            "core/orphan.py": "def unused(): pass\n",
        },
    )
    assert _unreached_modules(src) == ["repro.core.orphan"]
