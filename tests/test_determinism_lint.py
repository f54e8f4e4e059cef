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

There is one campaign driver: only ``repro.core.parallel`` constructs a
``MeasurementCampaign`` (its per-shard runner), so serial, sharded and
resumed runs all take the same path.  And ``src/repro/core/`` starts no
threads: a thread cannot be killed, so a timeout built on one abandons
work that keeps running (ROADMAP item 5).  Process pools stay allowed.
There is one event queue: under ``src/repro/netsim/`` only ``engine.py``
imports ``heapq``, and nothing outside its ``Simulator`` reads the
private ``_heap``, so no second scheduler path can grow beside it.

Finally, ``src/`` holds only what production code uses: every module is
reached from the CLI, every function, class and method is referred to
from ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` (tests and
package re-exports do not count), and every attribute or field is read
there, unless an allowlist names the reason.
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


# -- no threads in core ------------------------------------------------------------

#: Thread APIs ``src/repro/core`` may not import.
BANNED_THREAD_IMPORTS = frozenset({"threading", "ThreadPoolExecutor"})


def _banned_imports_in_source(source: str, filename: str, banned) -> list[str]:
    found: list[str] = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name in banned:
                found.append(f"{filename}:{node.lineno}: imports {name}")
    return found


def _thread_imports_in_source(source: str, filename: str) -> list[str]:
    return _banned_imports_in_source(source, filename, BANNED_THREAD_IMPORTS)


def test_core_starts_no_threads():
    violations = _scan(sorted((SRC / "core").rglob("*.py")), _thread_imports_in_source)
    assert not violations, (
        "src/repro/core must not import threading or ThreadPoolExecutor "
        "(an abandoned thread keeps running; bound work in the simulation "
        "or at the process level):\n" + "\n".join(violations)
    )


@pytest.mark.parametrize(
    "snippet",
    [
        "import threading",
        "from threading import Thread",
        "from concurrent.futures import ThreadPoolExecutor",
        "from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait",
    ],
)
def test_thread_lint_catches_thread_imports(snippet):
    assert _thread_imports_in_source(snippet, "fake.py")


@pytest.mark.parametrize(
    "snippet",
    [
        "from concurrent.futures import ProcessPoolExecutor, as_completed",
        "import concurrent.futures",
    ],
)
def test_thread_lint_allows_process_pools(snippet):
    assert not _thread_imports_in_source(snippet, "fake.py")


# -- one event queue -----------------------------------------------------------------

#: The one netsim module that may import ``heapq``; only its ``Simulator``
#: class may touch the private ``_heap``.
EVENT_ENGINE = SRC / "netsim" / "engine.py"
EVENT_ENGINE_NAME = str(EVENT_ENGINE.relative_to(SRC.parent.parent))


def _heapq_imports_in_source(source: str, filename: str) -> list[str]:
    return _banned_imports_in_source(source, filename, {"heapq"})


def _heap_reads_in_source(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename=filename)
    owner: set[int] = set()
    if filename == EVENT_ENGINE_NAME:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Simulator":
                owner = {id(inner) for inner in ast.walk(node)}
    found: list[str] = []
    for node in ast.walk(tree):
        if id(node) in owner:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "_heap") or (
            isinstance(node, ast.Constant) and node.value == "_heap"
        ):
            found.append(f"{filename}:{node.lineno}: reads _heap")
    return found


def test_one_event_queue():
    netsim = [p for p in sorted((SRC / "netsim").rglob("*.py")) if p != EVENT_ENGINE]
    violations = _scan(netsim, _heapq_imports_in_source)
    for root in ("src", "examples", "benchmarks", "perfbench"):
        violations += _scan(sorted((SRC.parent.parent / root).rglob("*.py")), _heap_reads_in_source)
    assert not violations, (
        "schedule through Simulator.schedule / schedule_at: only "
        "src/repro/netsim/engine.py may import heapq under netsim, and only "
        "its Simulator may read Simulator._heap:\n" + "\n".join(violations)
    )


@pytest.mark.parametrize(
    "snippet",
    ["import heapq", "from heapq import heappop, heappush", "import heapq as hq"],
)
def test_queue_lint_catches_heapq_imports(snippet):
    assert _heapq_imports_in_source(snippet, "fake.py")


@pytest.mark.parametrize(
    "snippet",
    ["sim._heap[0]", "heap = self.sim._heap", "getattr(sim, '_heap')"],
)
def test_queue_lint_catches_heap_reads(snippet):
    assert _heap_reads_in_source(snippet, "fake.py")
    assert _heap_reads_in_source(snippet, EVENT_ENGINE_NAME)


def test_queue_lint_allows_the_engine_its_own_heap():
    snippet = "class Simulator:\n    def peek(self):\n        return self._heap[0]\n"
    assert not _heap_reads_in_source(snippet, EVENT_ENGINE_NAME)
    assert _heap_reads_in_source(snippet, "fake.py")


# -- src/ is what the CLI reaches ----------------------------------------------------

#: Entry points: the CLI, and ``python -m repro``, which only calls it.
ENTRY_MODULES = ("repro.cli", "repro.__main__")

#: Modules kept although the CLI does not reach them yet, with the reason.
UNREACHED_ALLOWLIST: dict[str, str] = {}


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


# -- every src/ definition has a production caller ----------------------------------

#: Trees whose code counts as a caller of a ``src/repro`` definition: the
#: package itself (package ``__init__`` files excepted), the examples, the
#: benchmarks and the performance harness.  ``tests/`` does not count.
CALLER_ROOTS = ("src", "examples", "benchmarks", "perfbench")

_BUFFER_WINDOW = (
    "the buffer-window protocol method fig10 moves onto when every window "
    "kind takes one collection path (ROADMAP item 3)"
)

#: Definitions kept although no production code refers to them, with the
#: reason (qualified as ``module.Class.method``).
UNCALLED_ALLOWLIST = {
    "repro.backends.base.MeasurementBackend.sample_buffer_window": _BUFFER_WINDOW,
    "repro.backends.synth.SynthBackend.sample_buffer_window": _BUFFER_WINDOW,
    "repro.backends.netsim.NetsimBackend.sample_buffer_window": _BUFFER_WINDOW,
    "repro.netsim.buffer.SharedBuffer.occupancy_bytes": (
        "tests/netsim/test_buffer.py, tests/netsim/test_port.py and "
        "tests/property/test_buffer_properties.py check admission and "
        "release against the occupancy it reads"
    ),
    "repro.data.published.Table2Entry.p00": (
        "Table 2 prints p(0|0); the paper's digitized record keeps it next to p(1|0)"
    ),
    "repro.data.published.Table2Entry.p10": (
        "Table 2 prints p(0|1); the paper's digitized record keeps it next to p(1|1)"
    ),
}


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, bare name, node)`` for every top-level function
    and class of a module and every method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{child.name}", child.name, child


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of every ``Name``, ``Attribute`` and import alias."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((alias.name.split(".")[-1], node.lineno) for alias in node.names)
    return found


def _uncalled_definitions(src: Path, caller_roots: list[Path]) -> list[str]:
    """Qualified names of ``src`` definitions no caller refers to.

    A definition counts as called when a file under ``caller_roots`` names
    it (by bare name, as a variable, an attribute or an imported name)
    outside the definition's own body.  References from package
    ``__init__`` files do not count: a re-export is not a use.  Dunder
    methods are exempt; the interpreter calls them.
    """
    refs: dict[str, list[tuple[Path, int]]] = {}
    for root in caller_roots:
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py" and path.is_relative_to(src):
                continue
            for name, line in _references(ast.parse(path.read_text(), filename=str(path))):
                refs.setdefault(name, []).append((path, line))
    uncalled: list[str] = []
    for module, path in _module_names(src).items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, name, node in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            own_body = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref_path != path or line not in own_body
                for ref_path, line in refs.get(name, [])
            ):
                uncalled.append(qualified)
    return sorted(uncalled)


def _production_uncalled() -> list[str]:
    repo = SRC.parent.parent
    return _uncalled_definitions(SRC, [repo / root for root in CALLER_ROOTS])


def test_every_src_definition_has_a_production_caller():
    uncalled = [name for name in _production_uncalled() if name not in UNCALLED_ALLOWLIST]
    assert not uncalled, (
        "every function, class and method under src/repro must be referred "
        "to from src/, examples/, benchmarks/ or perfbench/ (package "
        "re-exports and tests do not count); delete these, move a test "
        "helper or oracle to tests/, or add an UNCALLED_ALLOWLIST entry "
        "with its reason:\n" + "\n".join(uncalled)
    )


def test_uncalled_allowlist_is_current():
    assert all(UNCALLED_ALLOWLIST.values())
    assert set(UNCALLED_ALLOWLIST) <= set(_production_uncalled())


def test_definition_lint_ignores_inits_and_tests_but_follows_attributes(tmp_path):
    src = _write_package(
        tmp_path,
        {
            "__init__.py": "from repro.core import exported\n",
            "cli.py": (
                "from repro.core import Engine\n"
                "def main():\n"
                "    return Engine().run()\n"
            ),
            "core.py": (
                "def exported():\n"
                "    return exported()\n"
                "def tested():\n"
                "    pass\n"
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self.steps = 0\n"
                "    def run(self):\n"
                "        return self.steps\n"
            ),
        },
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_core.py").write_text("from repro.core import tested\ntested()\n")
    uncalled = _uncalled_definitions(src, [src, tests.parent / "examples"])
    assert uncalled == ["repro.cli.main", "repro.core.exported", "repro.core.tested"]


# -- every src/ attribute is read in production --------------------------------------

_PAPER_RECORD = (
    "the paper's digitized record: data/published.py keeps every number the "
    "paper states (DESIGN.md §2.6), read by the experiments or not"
)

#: Attributes and fields kept although no production code reads them, with
#: the reason (qualified as ``module.Class.name``).
UNREAD_ALLOWLIST = {
    f"repro.data.published.PaperTargets.{name}": _PAPER_RECORD
    for name in (
        "fig4_gap_tail_ns",
        "fig10_hadoop_standing_occupancy",
        "campaign_window_s",
        "campaign_total_windows",
        "campaign_samples_per_window",
        "server_link_gbps",
        "tor_uplinks",
        "oversubscription",
        "drops_tor_to_server_share",
        "campaign_hours",
        "campaign_racks_per_app",
    )
}


def _attribute_definitions(tree: ast.Module, module: str):
    """``(qualified name, bare name)`` of every field a class body
    declares and every ``self.<name>`` a class assigns."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for child in cls.body:
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                yield f"{module}.{cls.name}.{child.target.id}", child.target.id
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        yield f"{module}.{cls.name}.{sub.attr}", sub.attr


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Bare names a file reads: every ``x.<name>`` not assigned to.  A
    keyword argument only stores a value, so it is not a read."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    }


def _unread_attributes(src: Path, caller_roots: list[Path]) -> list[str]:
    """Qualified names of ``src`` fields and ``self`` attributes no file
    under ``caller_roots`` reads (matched by bare name)."""
    reads: set[str] = set()
    for root in caller_roots:
        for path in sorted(root.rglob("*.py")):
            reads |= _attribute_reads(ast.parse(path.read_text(), filename=str(path)))
    unread = set()
    for module, path in _module_names(src).items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, name in _attribute_definitions(tree, module):
            if name not in reads and not (name.startswith("__") and name.endswith("__")):
                unread.add(qualified)
    return sorted(unread)


def _production_unread() -> list[str]:
    repo = SRC.parent.parent
    return _unread_attributes(SRC, [repo / root for root in CALLER_ROOTS])


def test_every_src_attribute_is_read_in_production():
    unread = [name for name in _production_unread() if name not in UNREAD_ALLOWLIST]
    assert not unread, (
        "every field and self attribute under src/repro must be read "
        "somewhere in src/, examples/, benchmarks/ or perfbench/ (tests do "
        "not count): state only a test reads is a side-channel tally; "
        "delete these, or add an UNREAD_ALLOWLIST entry with its reason:\n"
        + "\n".join(unread)
    )


def test_unread_allowlist_is_current():
    assert all(UNREAD_ALLOWLIST.values())
    assert set(UNREAD_ALLOWLIST) <= set(_production_unread())


def test_attribute_lint_ignores_writes_and_tests(tmp_path):
    src = _write_package(
        tmp_path,
        {
            "__init__.py": "",
            "cli.py": (
                "from repro.core import Config, Engine\n"
                "def main():\n"
                "    return Engine(Config(rate=2, stored=3)).run()\n"
            ),
            "core.py": (
                "class Config:\n"
                "    rate: int = 1\n"
                "    stored: int = 0\n"
                "    unused: int = 0\n"
                "class Engine:\n"
                "    def __init__(self, config):\n"
                "        self.config = config\n"
                "        self.steps = 0\n"
                "        self.ticks = 0\n"
                "    def run(self):\n"
                "        self.ticks += 1\n"
                "        self.steps = self.config.rate\n"
                "        return self.steps\n"
            ),
        },
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_core.py").write_text("def test(engine):\n    assert engine.ticks\n")
    unread = _unread_attributes(src, [src, tmp_path / "examples"])
    assert unread == [
        "repro.core.Config.stored",
        "repro.core.Config.unused",
        "repro.core.Engine.ticks",
    ]
