"""Export / compare pipeline tests."""

import hashlib

import pytest

from repro.data import export
from repro.data.export import compare_directory, export_distributions
from repro.data.io import read_distribution
from repro.errors import DataFormatError
from repro.experiments.common import APPS

#: sha256 of each file ``export_distributions(seed=0, n_windows=6,
#: window_s=1.0)`` writes; collecting once per app must not move a byte.
EXPORT_SHA256 = {
    "fig3_web.dist": "5e40cd04f0b5dd985c1b6cc2c59590b67dcddcb6908cabe0c10c99ec34c5e105",
    "fig3_cache.dist": "37ab780b04ae9f777546b24b7d1e3cf44f66619f4bdb2126b2a2d1bb011e9214",
    "fig3_hadoop.dist": "fbd7cf5b5ca2d01c2d470b0be1f79446448a7dfa4abb484406c3d11ec202099f",
    "fig4_web.dist": "0122973fc487bce5735130059142a788227b5362db51662946eac31e7ef183dd",
    "fig4_cache.dist": "cd792491301c8758d2c13474b715c645d1e2f3076aadfebc7c0a7d93de1b98d3",
    "fig4_hadoop.dist": "0bf92cb2d1fd03e95ed1f713ea3b6d7055947bead3a52ee82ce50f5bf2b9eeeb",
    "fig6_web.dist": "bad98e2a8000ebdb4c428c7e9cea82de696d0bf899ebbddc32736fd3a92e771c",
    "fig6_cache.dist": "66d033668d1dc3b9fdd14dbf17835c92f84e51e71b8bf5e5b2b96354b111da85",
    "fig6_hadoop.dist": "a70106361e1739279714996b953961a8882d24980221e22a72803d801c15fbf2",
}


@pytest.fixture
def collections(monkeypatch):
    """Count the campaigns ``export``/``compare`` run (one per call)."""
    calls = []
    collect = export.reduce_app_traces

    def counting(app, **kwargs):
        calls.append(app)
        return collect(app, **kwargs)

    monkeypatch.setattr(export, "reduce_app_traces", counting)
    return calls


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("dists")
    paths = export_distributions(out, seed=0, n_windows=6, window_s=1.0)
    return out, paths


class TestExport:
    def test_writes_nine_files(self, exported):
        _out, paths = exported
        assert len(paths) == 9  # 3 figures x 3 apps
        names = {p.name for p in paths}
        assert "fig3_web.dist" in names
        assert "fig6_hadoop.dist" in names

    def test_files_parse_and_validate(self, exported):
        _out, paths = exported
        for path in paths:
            dist = read_distribution(path)
            assert dist.cdf[-1] == pytest.approx(1.0)
            assert dist.figure in ("fig3", "fig4", "fig6")

    def test_files_byte_identical_to_pinned(self, exported):
        _out, paths = exported
        assert [p.name for p in paths] == [f"{f}_{a}.dist" for f in ("fig3", "fig4", "fig6") for a in APPS]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert digests == EXPORT_SHA256

    def test_one_collection_per_app(self, tmp_path, collections):
        export_distributions(tmp_path, seed=0, n_windows=2, window_s=0.2)
        assert sorted(collections) == sorted(APPS)

    def test_fig3_landmarks_in_export(self, exported):
        out, _paths = exported
        web = read_distribution(out / "fig3_web.dist")
        # p90 burst duration ~50 us (two periods)
        assert web.percentile(0.9) <= 75.0


class TestCompare:
    def test_same_seed_near_perfect(self, exported):
        out, _paths = exported
        reports = compare_directory(out, seed=0, n_windows=6, window_s=1.0)
        assert len(reports) == 9
        for report in reports:
            assert report["ks_distance"] < 0.02

    def test_cross_seed_still_close(self, exported):
        out, _paths = exported
        reports = compare_directory(out, seed=99, n_windows=6, window_s=1.0)
        for report in reports:
            assert report["ks_distance"] < 0.15

    def test_one_collection_per_app(self, exported, collections):
        out, _paths = exported
        reports = compare_directory(out, seed=0, n_windows=2, window_s=0.2)
        assert [r["file"] for r in reports] == sorted(p.name for p in out.glob("*.dist"))
        assert sorted(collections) == sorted(APPS)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            compare_directory(tmp_path)


class TestCliExportCompare:
    def test_cli_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["export", "--dir", str(tmp_path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert main(["compare", "--dir", str(tmp_path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "KS" in out

    @pytest.mark.parametrize("scale, n_windows", [("small", 24), ("full", 240)])
    def test_compare_collects_what_export_wrote(self, tmp_path, monkeypatch, scale, n_windows):
        from repro.cli import main

        passed = {}

        def fake_compare(directory, seed=0, n_windows=24, window_s=2.0):
            passed.update(seed=seed, n_windows=n_windows)
            return []

        monkeypatch.setattr(export, "compare_directory", fake_compare)
        assert main(["compare", "--dir", str(tmp_path), "--seed", "3", "--scale", scale]) == 0
        assert passed == {"seed": 3, "n_windows": n_windows}
