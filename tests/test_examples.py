"""Smoke tests: every example script must run to completion.

Each example's ``main`` is imported and executed (fast configurations
are already their defaults except quickstart/full_campaign, which are
exercised at reduced scale through their underlying APIs elsewhere).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None, capsys=None) -> str:
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


def test_incast_microburst(capsys):
    out = run_example("incast_microburst.py", capsys=capsys)
    assert "high-resolution view" in out
    assert "SNMP-style view" in out
    assert "drops" in out


def test_hadoop_shuffle(capsys):
    out = run_example("hadoop_shuffle.py", capsys=capsys)
    assert "full-MTU" in out
    assert "normalized MAD" in out


def test_dctcp_incast(capsys):
    out = run_example("dctcp_incast.py", capsys=capsys)
    assert "=== reno ===" in out
    assert "=== dctcp ===" in out


def test_chaos_campaign(capsys):
    out = run_example("chaos_campaign.py", capsys=capsys)
    assert "traces byte-identical to uninterrupted run: True" in out
    assert "interrupted after" in out


@pytest.mark.slow
def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys=capsys)
    assert "bursts found" in out


@pytest.mark.slow
def test_cache_scatter_gather(capsys):
    out = run_example("cache_scatter_gather.py", capsys=capsys)
    assert "Fig 8 effect" in out
