"""Exporters: Prometheus text exposition, JSON snapshots, build info."""

import json

from repro.telemetry.export import (
    build_info,
    git_describe,
    package_version,
    snapshot_with_header,
    to_prometheus,
    write_metrics_json,
    write_metrics_prometheus,
)


class TestBuildInfo:
    def test_package_version_resolves(self):
        assert isinstance(package_version(), str)
        assert package_version() not in ("", "unknown")

    def test_git_describe_is_cached_string(self):
        first = git_describe()
        assert isinstance(first, str) and first
        assert git_describe() is first  # lru_cache: one subprocess at most

    def test_build_info_keys(self):
        info = build_info()
        assert set(info) == {"repro_version", "git_describe"}


class TestPrometheus:
    def test_counter_exposition(self, registry):
        registry.counter("campaign.windows_ok").inc(4)
        text = to_prometheus(registry)
        assert "# TYPE repro_campaign_windows_ok_total counter" in text
        assert "repro_campaign_windows_ok_total 4" in text

    def test_gauge_exposition(self, registry):
        registry.gauge("netsim.peak_heap_size").set(17)
        text = to_prometheus(registry)
        assert "# TYPE repro_netsim_peak_heap_size gauge" in text
        assert "repro_netsim_peak_heap_size 17" in text

    def test_histogram_cumulative_buckets(self, registry):
        hist = registry.histogram("lat", bounds=(10, 100))
        for value in (5, 50, 5000):
            hist.observe(value)
        text = to_prometheus(registry)
        assert 'repro_lat_bucket{le="10"} 1' in text
        assert 'repro_lat_bucket{le="100"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 5055" in text
        assert "repro_lat_count 3" in text

    def test_names_sanitised(self, registry):
        registry.counter("backend.netsim.sample-window").inc()
        assert "repro_backend_netsim_sample_window_total 1" in to_prometheus(registry)

    def test_header_comment_carries_build_info(self, registry):
        first_line = to_prometheus(registry).splitlines()[0]
        assert first_line.startswith("# repro telemetry")
        assert package_version() in first_line


class TestJsonSnapshot:
    def test_header_stamped(self, registry):
        registry.counter("c").inc()
        payload = snapshot_with_header(registry, extra={"experiment": "tab1"})
        assert payload["header"]["repro_version"] == package_version()
        assert payload["header"]["git_describe"] == git_describe()
        assert payload["header"]["experiment"] == "tab1"
        assert payload["header"]["created_unix_s"] > 0
        assert payload["counters"] == {"c": 1}

    def test_write_json_roundtrip(self, registry, tmp_path):
        registry.counter("campaign.windows_ok").inc(2)
        path = write_metrics_json(tmp_path / "metrics.json", registry)
        payload = json.loads(path.read_text())
        assert payload["counters"]["campaign.windows_ok"] == 2
        assert "git_describe" in payload["header"]

    def test_write_prometheus_file(self, registry, tmp_path):
        registry.counter("c").inc()
        path = write_metrics_prometheus(tmp_path / "metrics.prom", registry)
        assert "repro_c_total 1" in path.read_text()
