"""Clos fabric topology tests."""

import pytest

from repro.errors import ConfigError
from repro.netsim import ClosFabric


@pytest.fixture
def fabric():
    return ClosFabric()


def test_tors_listed_pod_by_pod(fabric):
    assert len(fabric.tors) == 16
    assert fabric.tors[:2] == [ClosFabric.tor_name(0, 0), ClosFabric.tor_name(0, 1)]
    assert [fabric.pod_of(tor) for tor in fabric.tors] == sorted(list(range(4)) * 4)
    assert fabric.pod_of(ClosFabric.tor_name(2, 3)) == 2


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

    def test_link_order_does_not_matter(self, fabric):
        tor = ClosFabric.tor_name(1, 0)
        fabric.fail_link(ClosFabric.fabric_name(1, 3), tor)
        assert fabric.uplink_capacity_factors(tor) == [1.0, 1.0, 1.0, 0.0]

    def test_restore(self, fabric):
        tor = ClosFabric.tor_name(0, 0)
        fabric.fail_link(tor, ClosFabric.fabric_name(0, 0))
        fabric.restore_all()
        assert fabric.uplink_capacity_factors(tor) == [1.0] * 4

    def test_unknown_link_rejected(self, fabric):
        with pytest.raises(ConfigError):
            fabric.fail_link("tor-p0r0", "spine-l0s0")
        with pytest.raises(ConfigError):  # fabric switch 1 reaches only plane 1
            fabric.fail_link(ClosFabric.fabric_name(0, 1), ClosFabric.spine_name(2, 0))

    def test_bisection_drops_with_failures(self, fabric):
        tor = ClosFabric.tor_name(0, 0)
        before = sum(fabric.uplink_capacity_factors(tor))
        fabric.fail_link(tor, ClosFabric.fabric_name(0, 0))
        assert sum(fabric.uplink_capacity_factors(tor)) < before
