"""Hot-port and buffer-statistics tests (Fig 9 / Fig 10 machinery)."""

import numpy as np
import pytest

from repro.analysis.bufferstats import (
    BoxStats,
    occupancy_by_hot_ports,
)
from repro.analysis.hotports import (
    DirectionShare,
    hot_port_counts,
    hot_share_by_direction,
    max_simultaneous_hot_fraction,
    window_hot_port_counts,
)
from repro.errors import AnalysisError


class TestDirectionShare:
    def test_counts_and_shares(self):
        up = np.array([[0.9, 0.1], [0.6, 0.7]])
        down = np.array([[0.1, 0.1, 0.9], [0.1, 0.1, 0.1]])
        share = hot_share_by_direction(up, down)
        assert share.uplink_hot == 3
        assert share.downlink_hot == 1
        assert share.uplink_share == pytest.approx(0.75)
        assert share.downlink_share == pytest.approx(0.25)

    def test_no_hot_samples_nan(self):
        share = DirectionShare(uplink_hot=0, downlink_hot=0)
        assert np.isnan(share.uplink_share)

    def test_period_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            hot_share_by_direction(np.zeros((2, 2)), np.zeros((3, 2)))


class TestHotPortCounts:
    def test_per_period_counts(self):
        util = np.array([[0.9, 0.9, 0.1], [0.1, 0.1, 0.1]])
        assert list(hot_port_counts(util)) == [2, 0]

    def test_max_fraction(self):
        util = np.array([[0.9, 0.9, 0.1, 0.1], [0.9, 0.1, 0.1, 0.1]])
        assert max_simultaneous_hot_fraction(util) == pytest.approx(0.5)

    def test_window_counts_any_hot_in_window(self):
        # 2 windows of 2 periods, 3 ports
        util = np.array(
            [[0.9, 0.1, 0.1], [0.1, 0.9, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1]]
        )
        counts = window_hot_port_counts(util, periods_per_window=2)
        assert list(counts) == [2, 0]

    def test_window_validation(self):
        with pytest.raises(AnalysisError):
            window_hot_port_counts(np.zeros((4, 2)), 0)
        with pytest.raises(AnalysisError):
            window_hot_port_counts(np.zeros((1, 2)), 5)


class TestBoxStats:
    def test_quartiles(self):
        stats = BoxStats.from_samples(np.arange(1, 102, dtype=float))
        assert stats.median == pytest.approx(51.0)
        assert stats.q1 == pytest.approx(26.0)
        assert stats.q3 == pytest.approx(76.0)
        assert stats.whisker_low == 1.0
        assert stats.whisker_high == 101.0
        assert stats.n == 101

    def test_whiskers_exclude_outliers(self):
        samples = np.concatenate([np.full(99, 10.0), [1000.0]])
        stats = BoxStats.from_samples(samples)
        assert stats.whisker_high == 10.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            BoxStats.from_samples(np.array([]))


class TestOccupancyGroups:
    def test_grouping_by_count(self):
        # 4 windows of 1 period each, 2 ports
        util = np.array([[0.9, 0.9], [0.9, 0.1], [0.1, 0.1], [0.9, 0.9]])
        peaks = np.array([0.8, 0.5, 0.1, 0.9])
        groups = occupancy_by_hot_ports(peaks, util, periods_per_window=1)
        assert set(groups) == {0, 1, 2}
        assert groups[2].n == 2
        assert groups[2].median == pytest.approx(0.85)

    def test_normalization(self):
        util = np.array([[0.9, 0.9]])
        groups = occupancy_by_hot_ports(
            np.array([500.0]), util, periods_per_window=1, normalize_to=1000.0
        )
        assert groups[2].median == pytest.approx(0.5)

    def test_scaling_slope(self):
        """fig10's scaling measure: median occupancy at most vs fewest hot ports."""
        util = np.array([[0.1, 0.1], [0.9, 0.1], [0.9, 0.9]])
        peaks = np.array([0.1, 0.4, 0.7])
        groups = occupancy_by_hot_ports(peaks, util, periods_per_window=1)
        assert [groups[k].median for k in sorted(groups)] == pytest.approx([0.1, 0.4, 0.7])
        assert groups[max(groups)].median - groups[min(groups)].median == pytest.approx(0.6)

    def test_bad_normalize(self):
        util = np.array([[0.9, 0.9]])
        with pytest.raises(AnalysisError):
            occupancy_by_hot_ports(
                np.array([0.5]), util, periods_per_window=1, normalize_to=0.0
            )
