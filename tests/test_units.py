"""Unit-helper tests."""

import pytest

from repro import units


def test_time_conversions_roundtrip():
    assert units.us(25) == 25_000
    assert units.ms(1) == 1_000_000
    assert units.seconds(2) == 2_000_000_000
    assert units.to_us(units.us(123)) == 123


def test_time_conversions_round_not_truncate():
    assert units.us(0.0015) == 2  # 1.5 ns rounds up


def test_rates():
    assert units.gbps(10) == 10e9


def test_bytes_per_interval():
    # 10 Gbps for 25 us = 31250 bytes
    assert units.bytes_per_interval(units.gbps(10), units.us(25)) == pytest.approx(31250)


def test_utilization_full_rate_is_one():
    cap = units.bytes_per_interval(units.gbps(10), units.us(25))
    assert units.utilization(cap, units.gbps(10), units.us(25)) == pytest.approx(1.0)


def test_utilization_rejects_zero_capacity():
    with pytest.raises(ValueError):
        units.utilization(100, 0.0, units.us(25))


def test_serialization_time():
    # 1500 B at 10 Gbps = 1.2 us
    assert units.serialization_time_ns(1500, units.gbps(10)) == 1200
    # 64 B at 10 Gbps = 51.2 ns -> rounds to 51
    assert units.serialization_time_ns(64, units.gbps(10)) == 51


def test_packet_constants_sane():
    assert units.MIN_PACKET < units.MTU
    assert units.TCP_HEADER_OVERHEAD < units.MIN_PACKET + 10
