"""Tests for tally persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RecordConfig,
    Simulation,
    SimulationConfig,
    Tally,
    run_batch_vectorized,
    task_rng,
)
from repro.detect import GridSpec
from repro.io import load_tally, save_tally
from repro.sources import PencilBeam


def summaries_equal(a: Tally, b: Tally) -> None:
    sa, sb = a.summary(), b.summary()
    for key in sa:
        if np.isnan(sa[key]):
            assert np.isnan(sb[key])
        else:
            assert sa[key] == pytest.approx(sb[key], rel=1e-12), key


class TestRoundTrip:
    def test_minimal_tally(self, tmp_path):
        t = Tally(n_layers=2)
        t.n_launched = 5
        t.diffuse_reflectance_weight = 1.5
        path = save_tally(tmp_path / "t.npz", t)
        back = load_tally(path)
        summaries_equal(t, back)
        assert back.n_layers == 2

    def test_full_featured_tally(self, tmp_path, fast_stack):
        spec = GridSpec.cube(8, 5.0, 5.0)
        config = SimulationConfig(
            stack=fast_stack,
            source=PencilBeam(),
            records=RecordConfig(
                absorption_grid=spec,
                path_grid=spec,
                pathlength_bins=(0.0, 50.0, 10),
                reflectance_rho_bins=(20.0, 8),
                penetration_bins=(30.0, 12),
            ),
        )
        t = run_batch_vectorized(config, 500, task_rng(0, 0))
        back = load_tally(save_tally(tmp_path / "full.npz", t))
        summaries_equal(t, back)
        np.testing.assert_array_equal(back.absorption_grid, t.absorption_grid)
        np.testing.assert_array_equal(back.path_grid, t.path_grid)
        np.testing.assert_array_equal(
            back.pathlength_hist.counts, t.pathlength_hist.counts
        )
        np.testing.assert_array_equal(
            back.penetration_hist.edges, t.penetration_hist.edges
        )
        np.testing.assert_array_equal(back.absorbed_by_layer, t.absorbed_by_layer)

    def test_loaded_tally_still_merges(self, tmp_path, fast_config):
        t1 = run_batch_vectorized(fast_config, 200, task_rng(0, 0))
        t2 = run_batch_vectorized(fast_config, 300, task_rng(0, 1))
        merged_direct = t1.merge(t2)
        loaded = load_tally(save_tally(tmp_path / "t1.npz", t1))
        merged_via_disk = loaded.merge(t2)
        summaries_equal(merged_direct, merged_via_disk)

    def test_running_stats_preserved(self, tmp_path):
        t = Tally(n_layers=1)
        t.n_launched = 3
        t.pathlength.add(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 2.0]))
        back = load_tally(save_tally(tmp_path / "s.npz", t))
        assert back.pathlength.mean == pytest.approx(t.pathlength.mean)
        assert back.pathlength.minimum == t.pathlength.minimum
        assert back.pathlength.maximum == t.pathlength.maximum
        assert back.pathlength.variance == pytest.approx(t.pathlength.variance)

    def test_unsupported_version_rejected(self, tmp_path):
        t = Tally(n_layers=1)
        path = save_tally(tmp_path / "v.npz", t)
        # Corrupt the version field.
        import json

        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            arrays = {k: data[k] for k in data.files}
        header["format_version"] = 999
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_tally(path)


class TestProvenance:
    def test_roundtrip(self, tmp_path, fast_config):
        tally = Simulation(fast_config).run(200, seed=4)
        prov = {
            "model": "fast",
            "seed": 4,
            "n_photons": 200,
            "version": "1.0.0",
            "boundary_mode": "probabilistic",
        }
        path = save_tally(tmp_path / "t.npz", tally, provenance=prov)
        loaded = load_tally(path)
        assert loaded.provenance == prov

    def test_absent_provenance_loads_as_none(self, tmp_path, fast_config):
        tally = Simulation(fast_config).run(100, seed=0)
        loaded = load_tally(save_tally(tmp_path / "t.npz", tally))
        assert loaded.provenance is None

    def test_expected_fingerprint_match_and_mismatch(self, tmp_path, fast_config):
        tally = Simulation(fast_config).run(100, seed=0)
        path = save_tally(
            tmp_path / "t.npz", tally, provenance={"fingerprint": "ab12" * 16}
        )
        loaded = load_tally(path, expected_fingerprint="ab12" * 16)
        assert loaded.provenance["fingerprint"] == "ab12" * 16
        with pytest.raises(ValueError, match="different request"):
            load_tally(path, expected_fingerprint="cd34" * 16)

    def test_expected_fingerprint_rejects_unstamped_archive(
        self, tmp_path, fast_config
    ):
        tally = Simulation(fast_config).run(100, seed=0)
        path = save_tally(tmp_path / "t.npz", tally)  # no provenance
        with pytest.raises(ValueError, match="different request"):
            load_tally(path, expected_fingerprint="ab12" * 16)
        # Without the check, the archive still loads fine.
        assert load_tally(path).provenance is None


class TestFrontierPersistence:
    def _frontier(self, fast_config, n=3):
        from repro.core.reduce import TallyFrontier

        tallies = [run_batch_vectorized(fast_config, 100, task_rng(0, i)) for i in range(n)]
        return TallyFrontier([(0, 2, tallies[0].merge(tallies[1])), (2, 3, tallies[2])])

    def test_roundtrip_bitwise(self, tmp_path, fast_config):
        from repro.io import load_frontier

        tally = Simulation(fast_config).run(100, seed=0)
        frontier = self._frontier(fast_config)
        path = save_tally(tmp_path / "t.npz", tally, frontier=frontier)
        loaded = load_frontier(path)
        assert [(s, e) for s, e, _ in loaded] == [(0, 2), (2, 3)]
        for (s1, e1, t1), (s2, e2, t2) in zip(frontier, loaded):
            assert t1 == t2  # Tally.__eq__ is bitwise-strict

    def test_frontier_is_invisible_to_load_tally(self, tmp_path, fast_config):
        tally = Simulation(fast_config).run(100, seed=0)
        path = save_tally(
            tmp_path / "t.npz", tally, frontier=self._frontier(fast_config)
        )
        loaded = load_tally(path)
        assert loaded == tally

    def test_frontierless_archive_loads_none(self, tmp_path, fast_config):
        from repro.io import load_frontier

        tally = Simulation(fast_config).run(100, seed=0)
        assert load_frontier(save_tally(tmp_path / "t.npz", tally)) is None

    def test_frontier_read_is_self_verifying(self, tmp_path, fast_config):
        from repro.io import load_frontier

        tally = Simulation(fast_config).run(100, seed=0)
        path = save_tally(
            tmp_path / "t.npz",
            tally,
            provenance={"fingerprint": "ab12" * 16},
            frontier=self._frontier(fast_config),
        )
        assert load_frontier(path, expected_fingerprint="ab12" * 16) is not None
        with pytest.raises(ValueError, match="different request"):
            load_frontier(path, expected_fingerprint="cd34" * 16)


class TestArchiveSummary:
    def test_reports_provenance_and_span_layout(self, tmp_path, fast_config):
        from repro.core.reduce import TallyFrontier
        from repro.io import archive_summary

        tally = Simulation(fast_config).run(100, seed=0)
        extra = run_batch_vectorized(fast_config, 100, task_rng(0, 0))
        path = save_tally(
            tmp_path / "t.npz",
            tally,
            provenance={"n_photons": 100},
            frontier=TallyFrontier([(0, 1, extra)]),
        )
        summary = archive_summary(path)
        assert summary["provenance"] == {"n_photons": 100}
        assert summary["frontier_spans"] == [(0, 1)]
        assert summary["sections"] == ["frontier"]

    def test_plain_archive(self, tmp_path, fast_config):
        from repro.io import archive_summary

        tally = Simulation(fast_config).run(100, seed=0)
        summary = archive_summary(save_tally(tmp_path / "t.npz", tally))
        assert summary["provenance"] is None
        assert summary["frontier_spans"] == []
        assert summary["sections"] == []

    def test_paths_section_reported(self, tmp_path, fast_config):
        from repro.core import run_photons, task_rng
        from repro.io import archive_summary

        tally = run_photons(fast_config, 50, task_rng(0, 0), capture_paths=True)
        tally.paths.seal(0)
        summary = archive_summary(save_tally(tmp_path / "t.npz", tally))
        assert summary["sections"] == ["paths"]


class TestPathPersistence:
    """Path records ride along in the archive, restored only on request."""

    def _captured(self, fast_config):
        from repro.core import run_photons, task_rng

        tally = run_photons(fast_config, 60, task_rng(2, 0), capture_paths=True)
        tally.paths.seal(0)
        return tally

    def test_round_trip(self, tmp_path, fast_config):
        tally = self._captured(fast_config)
        path = save_tally(tmp_path / "t.npz", tally)
        back = load_tally(path, paths=True)
        assert back == tally
        assert back.paths == tally.paths
        assert back.paths.segment_keys == (0,)
        # The records stay out of a plain tally load: same archive, same
        # tally, no paths attached.
        assert load_tally(path).paths is None

    def test_plain_load_decompresses_no_optional_member(
        self, tmp_path, hand_built, monkeypatch
    ):
        from numpy.lib.npyio import NpzFile

        tally, frontier = hand_built
        path = save_tally(tmp_path / "t.npz", tally, frontier=frontier)
        read = []
        original = NpzFile.__getitem__

        def recording(self, key):
            read.append(key)
            return original(self, key)

        monkeypatch.setattr(NpzFile, "__getitem__", recording)
        load_tally(path)
        assert "absorbed_by_layer" in read
        assert not [key for key in read if key.startswith(("p_", "f0_", "f1_"))]

    def test_absent_records_load_as_none(self, tmp_path, fast_config):
        tally = Simulation(fast_config).run(50, seed=0)
        path = save_tally(tmp_path / "t.npz", tally)
        assert load_tally(path, paths=True).paths is None

    def test_fingerprint_self_verification(self, tmp_path, fast_config):
        tally = self._captured(fast_config)
        path = save_tally(
            tmp_path / "t.npz", tally, provenance={"fingerprint": "ab12" * 16}
        )
        loaded = load_tally(path, expected_fingerprint="ab12" * 16, paths=True)
        assert loaded.paths is not None
        with pytest.raises(ValueError, match="different request"):
            load_tally(path, expected_fingerprint="cd34" * 16, paths=True)
