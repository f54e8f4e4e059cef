"""The repository's pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for at least ``--seconds`` seconds as a series of
passes, each in a fresh interpreter started one after another (no pool:
the reference box has two cores).  Passes cycle through ``CYCLE`` input
seeds derived from ``--seed``, each at least twice; every pass must pass
the correctness gate, and passes on the same input seed must produce the
same output digest.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` window counts, and the
metrics, each with its unit.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` traces the first round of passes over the input
seeds, not the second, and reports the per-layer metrics.
``--workload all`` runs every workload in turn and nests each one's
metrics under its name.  Run records and span files go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("rack-figures", "port-figures", "checkpoint-resume", "netsim-windows")
#: Passes cycle through this many input seeds, so a run's figures average
#: over several inputs instead of resting on one draw of the workload.
CYCLE = 2
#: every run makes at least this many passes, so every input seed runs at
#: least twice: its digests are compared across fresh interpreters, and its
#: timings take the best of the repeats
MIN_PASSES = 2 * CYCLE
PASS_TIMEOUT_S = 150


def _declared(section: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec[section]}


def input_seed(seed: int, index: int) -> int:
    """The input seed of pass ``index`` of a run with seed ``seed``."""
    return seed * CYCLE + index % CYCLE


def _run_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    env = dict(os.environ)
    # single-threaded BLAS: steadier timings on a shared two-core box
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # the span export's header runs `git describe`; keep it inside the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    command = [
        sys.executable, str(HERE / "passrun.py"),
        "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)),
        "--pass-index", str(index), "--out", str(OUT),
    ]
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["input_seed"] = seed
    return record


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method (``statistics.quantiles``)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _by_input(passes: list[dict]) -> list[list[dict]]:
    groups: dict[int, list[dict]] = {}
    for record in passes:
        groups.setdefault(record["input_seed"], []).append(record)
    return list(groups.values())


def _input_best(passes: list[dict], value) -> float:
    """The minimum over each input seed's passes, then the mean over input
    seeds.  The host's slow spells only ever add time, so the best repeat
    filters them out; distinct inputs average out the draw of the workload."""
    return statistics.fmean(
        min(value(record) for record in group) for group in _by_input(passes)
    )


def _latency_percentile(passes: list[dict], q: int) -> float:
    """The q-th percentile of one input seed's window latencies, averaged
    over input seeds.  Repeats of an input make the same window calls in
    the same order, so each call's latency is its best over the repeats."""
    return statistics.fmean(
        _percentile([min(calls) for calls in zip(*(r["window_ms"] for r in group))], q)
        for group in _by_input(passes)
    )


def end_to_end(passes: list[dict]) -> dict[str, float]:
    attempts = sum(record["attempts"] for record in passes)
    windows = sum(record["windows"] for record in passes)
    # Each unit of the pass (a figure, one app's campaigns) is aggregated on
    # its own, so a slow spell on a shared host only moves the units it
    # overlapped.
    wall_s = sum(
        _input_best(passes, lambda record, unit=unit: record["units"][unit])
        for unit in passes[0]["units"]
    )
    return {
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "wall_s": wall_s,
        "trace_s_per_s": _input_best(passes, lambda record: record["trace_s"]) / wall_s,
        "window_ms.p50": _latency_percentile(passes, 50),
        "window_ms.p90": _latency_percentile(passes, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "attempts_per_window": attempts / windows,
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [r for r in passes if r["traced"]]
    names = traced[0]["layers"]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in names
    }
    # traced over plain wall on the same input seed; in a run of MIN_PASSES
    # passes every input seed has both
    ratios = []
    for group in _by_input(passes):
        traced_walls = [r["wall_s"] for r in group if r["traced"]]
        plain_walls = [r["wall_s"] for r in group if not r["traced"]]
        if traced_walls and plain_walls:
            ratios.append(statistics.median(traced_walls) / statistics.median(plain_walls))
    metrics["telemetry.overhead_ratio"] = statistics.median(ratios) - 1.0
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload's passes and return its result object."""
    start = time.perf_counter()
    passes: list[dict] = []
    error = ""
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        # the first round over the input seeds is traced, the second plain
        traced = bool(trace) and (len(passes) // CYCLE) % 2 == 0
        try:
            record = _run_pass(workload, input_seed(seed, len(passes)), traced, len(passes))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            error = str(exc)
            break
        passes.append(record)
        print(
            f"{workload} pass {len(passes) - 1}{' (traced)' if traced else ''}: "
            f"wall {record['wall_s']:.3f} s, setup {record['setup_s']:.3f} s, "
            f"{len(record['window_ms'])} windows, input seed {record['input_seed']}, "
            f"digest {record['digest'][:16]}",
            flush=True,
        )

    digests = {
        group[0]["input_seed"]: {record["digest"] for record in group}
        for group in _by_input(passes)
    }
    problems = [error] if error else []
    problems += sorted({name for r in passes for name in r["verdicts_failed"]})
    problems += [
        f"output digest differs between passes on input seed {s}: {sorted(d)}"
        for s, d in digests.items() if len(d) > 1
    ]
    failed = sum(record["failed"] for record in passes)
    attempted = max(1, sum(record["windows"] for record in passes))
    correct = not problems and failed == 0
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}

    run_record = OUT / f"run-{workload}-seed{seed}-trace{trace}.json"
    run_record.write_text(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                      "passes": passes, "problems": problems}, indent=1))
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if correct:
        section = "per_layer" if trace else "end_to_end"
        measured = per_layer(passes) if trace else end_to_end(passes)
        units = _declared(section)
        summary["metrics"] = {
            name: {"value": measured[name], "unit": units[name]["unit"]} for name in units
        }
        print(f"{workload} gate: {passes[0]['verdicts']} verdicts passed on each of "
              f"{len(passes)} passes")
        for s, (digest,) in sorted(digests.items()):
            print(f"{workload} input seed {s}: digest {digest}")
        for name in sorted({n for r in passes for n in r["advisory_failed"]}):
            print(f"{workload} advisory verdict not met: {name}")
        print(f"{workload} window latency samples: {len(passes[0]['window_ms'])} per pass, "
              f"{sum(len(r['window_ms']) for r in passes)} in all")
        for name, value in summary["metrics"].items():
            print(f"{workload} {name} = {value['value']:.6g} {value['unit']}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {w: result["metrics"] for w, result in results.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
