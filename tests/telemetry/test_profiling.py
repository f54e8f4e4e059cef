"""Per-stage profiling gauges."""

import multiprocessing

import numpy as np
import pytest

from repro.telemetry.metrics import scoped_registry
from repro.telemetry import profiling
from repro.telemetry.profiling import profile_stage, set_profiling


@pytest.fixture
def set_flag():
    previous = profiling._PROFILING
    yield set_profiling
    set_profiling(previous)


def _alloc_then_idle(conn) -> None:
    set_profiling(True)
    with scoped_registry() as registry:
        with profile_stage("alloc"):
            block = np.ones(8 * 2**20)  # 64 MiB, every page touched
        with profile_stage("idle"):
            pass
        conn.send(registry.snapshot()["gauges"])
    del block


def test_rss_growth_is_per_stage():
    # A forked child starts its RSS high-water mark at its current RSS, so
    # the test process's own earlier peak cannot hide the stage's growth
    # (a spawned interpreter would inherit that peak across exec).
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_alloc_then_idle, args=(writer,))
    child.start()
    assert reader.poll(60), "profiling child sent no gauges"
    gauges = reader.recv()
    child.join(timeout=60)
    assert not child.is_alive()
    assert gauges["profile.alloc.rss_growth_bytes"] >= 50 * 2**20
    assert gauges["profile.idle.rss_growth_bytes"] == 0


def test_stage_gauges(registry, set_flag):
    set_flag(True)
    with profile_stage("stage"):
        pass
    gauges = registry.snapshot()["gauges"]
    names = {f"profile.stage.{kind}" for kind in ("cpu_ns", "wall_ns", "rss_growth_bytes")}
    assert names <= set(gauges)
    assert not any("peak_rss" in name for name in gauges)


def test_disabled_records_nothing(registry, set_flag):
    set_flag(False)
    with profile_stage("stage"):
        pass
    assert registry.snapshot()["gauges"] == {}
