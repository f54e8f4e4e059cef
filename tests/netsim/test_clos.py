"""Clos fabric topology tests."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.errors import ConfigError
from repro.netsim import ClosConfig, ClosFabric


@pytest.fixture
def fabric():
    return ClosFabric(ClosConfig())


class TestStructure:
    def test_validates(self, fabric):
        fabric.validate()

    def test_node_counts(self, fabric):
        cfg = fabric.config
        tiers = {}
        for _node, data in fabric.graph.nodes(data=True):
            tiers[data["tier"]] = tiers.get(data["tier"], 0) + 1
        assert tiers["tor"] == cfg.n_pods * cfg.n_racks_per_pod
        assert tiers["fabric"] == cfg.n_pods * cfg.n_fabric_per_pod
        assert tiers["spine"] == cfg.n_fabric_per_pod * cfg.n_spines_per_plane

    def test_uplinks_per_tor(self, fabric):
        for tor in fabric.tors:
            assert fabric.graph.degree(tor) == 4

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            ClosConfig(n_pods=0)


class TestPaths:
    def test_same_pod_paths_via_fabric(self, fabric):
        a = ClosFabric.tor_name(0, 0)
        b = ClosFabric.tor_name(0, 1)
        paths = list(nx.all_shortest_paths(fabric.graph, a, b))
        # one 2-hop path per fabric switch of the pod
        assert len(paths) == fabric.config.n_fabric_per_pod
        assert all(len(p) == 3 for p in paths)

    def test_cross_pod_paths_via_spines(self, fabric):
        a = ClosFabric.tor_name(0, 0)
        b = ClosFabric.tor_name(1, 0)
        paths = list(nx.all_shortest_paths(fabric.graph, a, b))
        # planes x spines-per-plane distinct 4-hop paths
        expected = fabric.config.n_fabric_per_pod * fabric.config.n_spines_per_plane
        assert len(paths) == expected
        assert all(len(p) == 5 for p in paths)


class TestFailures:
    def test_healthy_factors_all_one(self, fabric):
        assert fabric.uplink_capacity_factors(fabric.tors[0]) == [1.0] * 4

    def test_tor_uplink_failure_zeroes_one_factor(self, fabric):
        tor = ClosFabric.tor_name(0, 0)
        fabric.fail_link(tor, ClosFabric.fabric_name(0, 2))
        factors = fabric.uplink_capacity_factors(tor)
        assert factors == [1.0, 1.0, 0.0, 1.0]
        # the neighbouring rack is unaffected
        other = ClosFabric.tor_name(0, 1)
        assert fabric.uplink_capacity_factors(other) == [1.0] * 4

    def test_spine_link_failure_fractional(self, fabric):
        fabric.fail_link(ClosFabric.fabric_name(0, 1), ClosFabric.spine_name(1, 0))
        factors = fabric.uplink_capacity_factors(ClosFabric.tor_name(0, 0))
        assert factors[1] == pytest.approx(0.75)
        assert factors[0] == factors[2] == factors[3] == 1.0

    def test_failure_reduces_paths(self, fabric):
        a = ClosFabric.tor_name(0, 0)
        b = ClosFabric.tor_name(1, 0)
        before = len(list(nx.all_shortest_paths(fabric._live_graph(), a, b)))
        fabric.fail_link(ClosFabric.fabric_name(0, 0), ClosFabric.spine_name(0, 0))
        after = len(list(nx.all_shortest_paths(fabric._live_graph(), a, b)))
        assert after == before - 1

    def test_restore(self, fabric):
        tor = ClosFabric.tor_name(0, 0)
        fabric.fail_link(tor, ClosFabric.fabric_name(0, 0))
        fabric.restore_all()
        assert fabric.uplink_capacity_factors(tor) == [1.0] * 4

    def test_unknown_link_rejected(self, fabric):
        with pytest.raises(ConfigError):
            fabric.fail_link("tor-p0r0", "spine-l0s0")

    def test_bisection_drops_with_failures(self, fabric):
        tor = ClosFabric.tor_name(0, 0)
        before = sum(fabric.uplink_capacity_factors(tor))
        fabric.fail_link(tor, ClosFabric.fabric_name(0, 0))
        assert sum(fabric.uplink_capacity_factors(tor)) < before


def test_importing_the_package_leaves_networkx_unloaded():
    # Only ext-failures builds a ClosFabric; every other run skips the import.
    src = Path(__file__).resolve().parents[2] / "src"
    code = "import sys, repro, repro.experiments, repro.backends; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
