"""Content-addressed store: round-trips, verification, LRU bounds."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core import Simulation
from repro.api import build_config
from repro.io import save_tally
from repro.observe import Telemetry
from repro.service import ResultStore, request_fingerprint


def _counter(telemetry: Telemetry, name: str) -> float:
    return telemetry.registry.counter(name).value


@pytest.fixture
def tally(make_request):
    return Simulation(build_config(make_request())).run(300, seed=2)


@pytest.fixture
def fingerprint(make_request):
    return request_fingerprint(make_request())


class TestRoundTrip:
    def test_put_get_bit_identical(self, tmp_path, tally, fingerprint):
        store = ResultStore(tmp_path / "store")
        store.put(fingerprint, tally)
        loaded = store.get(fingerprint)
        assert loaded == tally  # Tally.__eq__ is bitwise

    def test_get_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store", telemetry=Telemetry())
        assert store.get("0" * 64) is None
        assert _counter(store.telemetry, "service.store.misses") == 1

    def test_put_stamps_fingerprint_into_provenance(
        self, tmp_path, tally, fingerprint, make_request
    ):
        store = ResultStore(tmp_path / "store")
        store.put(fingerprint, tally, provenance=make_request().provenance())
        loaded = store.get(fingerprint)
        assert loaded.provenance["fingerprint"] == fingerprint
        assert loaded.provenance["model"] == "custom"
        assert loaded.provenance["n_photons"] == 400

    def test_index_survives_reopen(self, tmp_path, tally, fingerprint):
        root = tmp_path / "store"
        ResultStore(root).put(fingerprint, tally)
        reopened = ResultStore(root)
        assert fingerprint in reopened
        assert reopened.get(fingerprint) == tally

    def test_missing_files_pruned_on_open(self, tmp_path, tally, fingerprint):
        root = tmp_path / "store"
        store = ResultStore(root)
        path = store.put(fingerprint, tally)
        path.unlink()
        assert fingerprint not in ResultStore(root)

    def test_malformed_fingerprint_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for bad in ("", "../../etc/passwd", "a.b"):
            with pytest.raises(ValueError, match="malformed"):
                store.path(bad)


class TestVerification:
    """The store never serves an artifact it cannot prove belongs there."""

    def test_foreign_artifact_rejected_and_evicted(
        self, tmp_path, tally, fingerprint
    ):
        store = ResultStore(tmp_path / "store", telemetry=Telemetry())
        path = store.put(fingerprint, tally)
        # Overwrite with an archive claiming a different fingerprint —
        # e.g. hand-copied from another store.
        save_tally(path, tally, provenance={"fingerprint": "deadbeef"})
        assert store.get(fingerprint) is None
        assert not path.exists()
        assert _counter(store.telemetry, "service.store.foreign") == 1

    def test_unstamped_artifact_rejected(self, tmp_path, tally, fingerprint):
        store = ResultStore(tmp_path / "store")
        path = store.put(fingerprint, tally)
        save_tally(path, tally)  # no provenance at all
        assert store.get(fingerprint) is None


class TestUnreadableArtifact:
    """A damaged archive is evicted as a miss; it never breaks the store."""

    def _rewrite_header(self, path, **changes):
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        header = json.loads(members["header"].tobytes())
        header.update(changes)
        members["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **members)

    def test_truncated_archive_is_evicted_as_a_miss(
        self, tmp_path, tally, fingerprint
    ):
        store = ResultStore(tmp_path / "store", telemetry=Telemetry())
        path = store.put(fingerprint, tally)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.get(fingerprint) is None
        assert not path.exists()
        assert fingerprint not in store
        assert _counter(store.telemetry, "service.store.foreign") == 1
        assert _counter(store.telemetry, "service.store.misses") == 1

    def test_truncated_archive_without_index_gets_a_bare_entry(
        self, tmp_path, tally, fingerprint
    ):
        store = ResultStore(tmp_path / "store")
        path = store.put(fingerprint, tally)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        store.close()
        (store.root / "index.json").unlink()
        telemetry = Telemetry()
        rebuilt = ResultStore(store.root, telemetry=telemetry)  # must not raise
        assert fingerprint in rebuilt
        assert rebuilt.best_prefix("0" * 64, 10**6) is None
        assert rebuilt.get(fingerprint) is None
        assert _counter(telemetry, "service.store.foreign") == 1

    def test_header_with_list_records_is_evicted_as_a_miss(
        self, tmp_path, tally, fingerprint
    ):
        store = ResultStore(tmp_path / "store", telemetry=Telemetry())
        path = store.put(fingerprint, tally)
        self._rewrite_header(path, records=[])
        assert store.get(fingerprint) is None
        assert not path.exists()
        assert _counter(store.telemetry, "service.store.foreign") == 1
        assert _counter(store.telemetry, "service.store.misses") == 1


class TestLRUEviction:
    def _filled(self, tmp_path, tally, n=1, **kwargs):
        store = ResultStore(tmp_path / "store", **kwargs)
        fps = [f"{i:064x}" for i in range(n)]
        for fp in fps:
            store.put(fp, tally)
            time.sleep(0.01)  # distinct last_access stamps
        return store, fps

    def test_unbounded_store_keeps_everything(self, tmp_path, tally):
        store, fps = self._filled(tmp_path, tally, n=4, max_bytes=None)
        assert len(store) == 4

    def test_least_recently_used_is_evicted(self, tmp_path, tally):
        store, _ = self._filled(tmp_path, tally, n=1)
        size = store.total_bytes()
        store.clear()
        store.max_bytes = int(2.5 * size)

        a, b, c = "a" * 64, "b" * 64, "c" * 64
        store.put(a, tally)
        time.sleep(0.01)
        store.put(b, tally)
        time.sleep(0.01)
        assert store.get(a) is not None  # touch a: b is now the LRU entry
        time.sleep(0.01)
        store.put(c, tally)  # over budget -> evict b, not a
        assert set(store.fingerprints()) == {a, c}
        assert not store.path(b).exists()
        assert store.total_bytes() <= store.max_bytes

    def test_newest_entry_survives_even_alone_over_budget(self, tmp_path, tally):
        store, fps = self._filled(tmp_path, tally, n=1)
        store.max_bytes = 1  # absurdly small
        fp2 = "f" * 64
        store.put(fp2, tally)
        assert fp2 in store
        assert fps[0] not in store

    def test_index_is_valid_json_throughout(self, tmp_path, tally):
        store, _ = self._filled(tmp_path, tally, n=3)
        store.close()
        raw = json.loads((store.root / "index.json").read_text())
        assert raw["index_version"] == 4
        assert set(raw["entries"]) == set(store.fingerprints())


class TestIndexRebuild:
    """A corrupt or missing index is rebuilt from the artifacts on disk."""

    def _seed_store(self, tmp_path, tally):
        store = ResultStore(tmp_path / "store")
        fps = ["a" * 64, "b" * 64]
        for fp in fps:
            store.put(fp, tally)
        store.close()
        return store.root, fps

    def test_corrupt_index_rebuilt(self, tmp_path, tally):
        root, fps = self._seed_store(tmp_path, tally)
        (root / "index.json").write_text("{ not json")
        telemetry = Telemetry()
        store = ResultStore(root, telemetry=telemetry)
        assert set(store.fingerprints()) == set(fps)
        assert store.get(fps[0]) == tally  # artifacts still self-verify
        assert _counter(telemetry, "service.store.index_rebuilds") == 1

    def test_truncated_index_rebuilt(self, tmp_path, tally):
        root, fps = self._seed_store(tmp_path, tally)
        raw = (root / "index.json").read_bytes()
        (root / "index.json").write_bytes(raw[: len(raw) // 2])  # torn write
        store = ResultStore(root)
        assert set(store.fingerprints()) == set(fps)

    def test_missing_index_with_artifacts_rebuilt(self, tmp_path, tally):
        root, fps = self._seed_store(tmp_path, tally)
        (root / "index.json").unlink()
        store = ResultStore(root)
        assert set(store.fingerprints()) == set(fps)
        # The rebuilt index is persisted for the next open.
        assert json.loads((root / "index.json").read_text())["index_version"] == 4

    def test_wrong_version_index_rebuilt(self, tmp_path, tally):
        root, fps = self._seed_store(tmp_path, tally)
        (root / "index.json").write_text(
            json.dumps({"index_version": 999, "entries": "what"})
        )
        store = ResultStore(root)
        assert set(store.fingerprints()) == set(fps)

    def test_fresh_store_is_not_a_rebuild(self, tmp_path):
        telemetry = Telemetry()
        ResultStore(tmp_path / "fresh", telemetry=telemetry)
        assert _counter(telemetry, "service.store.index_rebuilds") == 0

    def test_rebuild_ignores_non_artifact_files(self, tmp_path, tally):
        root, fps = self._seed_store(tmp_path, tally)
        (root / "index.json").write_text("{")
        (root / "notes.txt").write_text("not an artifact")
        (root / "weird.name.npz").write_bytes(b"x")  # dotted stem: skipped
        store = ResultStore(root)
        assert set(store.fingerprints()) == set(fps)


class TestPrefixIndex:
    """Split addressing: best_prefix queries, supersession, frontier reads."""

    @staticmethod
    def _frontier(tally, k):
        from repro.core.reduce import TallyFrontier

        return TallyFrontier([(0, k, tally)])

    @staticmethod
    def _keys(make_request, n_photons):
        from repro.service import physics_fingerprint

        request = make_request(n_photons=n_photons)
        return request_fingerprint(request), physics_fingerprint(request)

    def test_best_prefix_returns_largest_smaller_budget(
        self, tmp_path, tally, make_request
    ):
        store = ResultStore(tmp_path / "store")
        fp200, physics = self._keys(make_request, 200)
        fp600, _ = self._keys(make_request, 600)
        store.put(fp200, tally, physics=physics, n_photons=200,
                  frontier=self._frontier(tally, 1))
        store.put(fp600, tally, physics=physics, n_photons=600,
                  frontier=self._frontier(tally, 3))
        assert store.best_prefix(physics, 800) == (fp600, 600, 3)
        assert store.best_prefix(physics, 600) is None  # exact is get()'s job
        assert store.best_prefix(physics, 200) is None
        assert store.best_prefix("f" * 64, 800) is None  # foreign physics

    def test_frontierless_entries_are_not_extension_bases(
        self, tmp_path, tally, make_request
    ):
        store = ResultStore(tmp_path / "store")
        fp, physics = self._keys(make_request, 200)
        store.put(fp, tally, physics=physics, n_photons=200)  # no frontier
        assert store.best_prefix(physics, 800) is None

    def test_get_frontier_roundtrip(self, tmp_path, tally, make_request):
        store = ResultStore(tmp_path / "store")
        fp, physics = self._keys(make_request, 400)
        store.put(fp, tally, physics=physics, n_photons=400,
                  frontier=self._frontier(tally, 2))
        frontier = store.get_frontier(fp)
        assert frontier is not None and frontier.prefix_tasks == 2
        assert frontier.spans[0][2] == tally  # bitwise
        assert store.get_frontier("0" * 64) is None

    def test_put_supersedes_smaller_budget(self, tmp_path, tally, make_request):
        telemetry = Telemetry()
        store = ResultStore(tmp_path / "store", telemetry=telemetry)
        fp200, physics = self._keys(make_request, 200)
        fp400, _ = self._keys(make_request, 400)
        store.put(fp200, tally, physics=physics, n_photons=200,
                  frontier=self._frontier(tally, 1))
        store.put(fp400, tally, physics=physics, n_photons=400,
                  frontier=self._frontier(tally, 2))
        assert fp200 not in store
        assert fp400 in store
        assert _counter(telemetry, "service.store.superseded") == 1

    def test_richer_smaller_frontier_survives_supersession(
        self, tmp_path, tally, make_request
    ):
        # A smaller-budget entry whose frontier covers MORE tasks than the
        # new entry's still answers extension queries the new one cannot.
        store = ResultStore(tmp_path / "store")
        fp200, physics = self._keys(make_request, 200)
        fp400, _ = self._keys(make_request, 400)
        store.put(fp200, tally, physics=physics, n_photons=200,
                  frontier=self._frontier(tally, 1))
        store.put(fp400, tally, physics=physics, n_photons=400)  # frontierless
        assert fp200 in store
        assert store.best_prefix(physics, 800) == (fp200, 200, 1)

    def test_rebuild_recovers_prefix_metadata(self, tmp_path, tally, make_request):
        root = tmp_path / "store"
        fp, physics = self._keys(make_request, 400)
        store = ResultStore(root)
        store.put(
            fp, tally, provenance={"n_photons": 400},
            physics=physics, n_photons=400, frontier=self._frontier(tally, 2),
        )
        store.close()
        (root / "index.json").unlink()
        reopened = ResultStore(root)
        assert reopened.best_prefix(physics, 800) == (fp, 400, 2)
        frontier = reopened.get_frontier(fp)
        assert frontier is not None and frontier.prefix_tasks == 2


class TestEvictionFrontierInterplay:
    """LRU eviction x pending extensions: stale plans degrade, never corrupt."""

    def test_evicted_base_is_a_clean_frontier_miss(
        self, tmp_path, tally, make_request
    ):
        from repro.core.reduce import TallyFrontier
        from repro.service import physics_fingerprint

        store = ResultStore(tmp_path / "store")
        request = make_request(n_photons=200)
        fp = request_fingerprint(request)
        physics = physics_fingerprint(request)
        store.put(fp, tally, physics=physics, n_photons=200,
                  frontier=TallyFrontier([(0, 1, tally)]))
        hit = store.best_prefix(physics, 800)
        assert hit is not None
        # The base vanishes between planning and the frontier read (LRU
        # pressure, another process, a supersession race) ...
        store.clear()
        # ... and the read degrades to a miss instead of serving bytes of a
        # deleted artifact; the caller falls back to a cold run.
        assert store.get_frontier(hit[0]) is None
        assert store.best_prefix(physics, 800) is None

    def test_lru_pressure_evicts_base_without_corrupting_index(
        self, tmp_path, tally, make_request
    ):
        from repro.core.reduce import TallyFrontier
        from repro.service import physics_fingerprint
        import json as _json

        request = make_request(n_photons=200)
        physics = physics_fingerprint(request)
        base_fp = request_fingerprint(request)
        size = len(
            ResultStore(tmp_path / "probe").put(
                base_fp, tally, physics=physics, n_photons=200,
                frontier=TallyFrontier([(0, 1, tally)]),
            ).read_bytes()
        )
        store = ResultStore(tmp_path / "store", max_bytes=int(size * 2.5))
        store.put(base_fp, tally, physics=physics, n_photons=200,
                  frontier=TallyFrontier([(0, 1, tally)]))
        # Unrelated entries push the base out of the LRU window.
        for i in range(3):
            store.put(f"{i:064x}", tally)
        assert base_fp not in store
        assert store.get_frontier(base_fp) is None
        store.close()
        index = _json.loads((tmp_path / "store" / "index.json").read_text())
        assert base_fp not in index["entries"]
        # Re-putting the base re-registers it for extension queries.
        store.put(base_fp, tally, physics=physics, n_photons=200,
                  frontier=TallyFrontier([(0, 1, tally)]))
        assert store.best_prefix(physics, 800) == (base_fp, 200, 1)


class TestCrashRecovery:
    """A store reopened without ``close()`` — a killed process — reconciles
    its last snapshot against the artifacts on disk."""

    def test_put_after_last_snapshot_is_adopted(self, tmp_path, make_request):
        from repro.core.reduce import TallyFrontier
        from repro.service import physics_fingerprint
        from repro.service.fingerprint import (
            derivation_basis,
            perturbable_coefficients,
        )

        request = make_request()
        fp, physics = request_fingerprint(request), physics_fingerprint(request)
        basis = derivation_basis(request)
        coefficients = perturbable_coefficients(request)
        captured = Simulation(build_config(request)).run(
            300, seed=2, capture_paths=True
        )
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put("a" * 64, captured)
        store.close()
        store.put(
            fp, captured, provenance={"n_photons": 400}, physics=physics,
            n_photons=400, frontier=TallyFrontier([(0, 2, captured)]),
            basis=basis, coefficients=coefficients,
        )
        telemetry = Telemetry()
        reopened = ResultStore(root, telemetry=telemetry)  # no close(): a crash
        assert set(reopened.fingerprints()) == {"a" * 64, fp}
        assert reopened.best_prefix(physics, 800) == (fp, 400, 2)
        assert reopened.best_derivation(basis, 400) == (fp, coefficients, False)
        assert reopened.get(fp, paths=True).paths == captured.paths
        assert _counter(telemetry, "service.store.index_rebuilds") == 0

    def test_unlinked_artifact_entry_is_dropped(self, tmp_path, tally):
        store = ResultStore(tmp_path / "store")
        a, b = "a" * 64, "b" * 64
        store.put(a, tally)
        store.put(b, tally)
        store.close()
        store.path(a).unlink()
        reopened = ResultStore(store.root)
        assert reopened.fingerprints() == [b]
        # The reconciled snapshot is written back.
        raw = json.loads((store.root / "index.json").read_text())
        assert set(raw["entries"]) == {b}

    def test_artifact_overwritten_in_place_is_resummarised(
        self, tmp_path, tally, make_request
    ):
        from repro.core.reduce import TallyFrontier
        from repro.service import physics_fingerprint

        request = make_request()
        fp, physics = request_fingerprint(request), physics_fingerprint(request)
        store = ResultStore(tmp_path / "store")
        path = store.put(fp, tally, provenance={"n_photons": 400}, physics=physics,
                         n_photons=400, frontier=TallyFrontier([(0, 2, tally)]))
        store.close()
        # Another writer replaces the archive with a frontierless one.
        save_tally(path, tally, provenance={
            "fingerprint": fp, "physics_fingerprint": physics, "n_photons": 400,
        })
        reopened = ResultStore(store.root)
        assert fp in reopened
        assert reopened.best_prefix(physics, 800) is None
        assert reopened.get(fp) == tally

    def test_version_3_index_keeps_recency(self, tmp_path, tally):
        telemetry = Telemetry()
        store = ResultStore(tmp_path / "store")
        for fp in ("a" * 64, "b" * 64):
            store.put(fp, tally)
            time.sleep(0.01)
        store.get("a" * 64)
        store.close()
        index = store.root / "index.json"
        raw = json.loads(index.read_text())
        for entry in raw["entries"].values():
            del entry["mtime_ns"]
        index.write_text(json.dumps({**raw, "index_version": 3}))

        reopened = ResultStore(store.root, telemetry=telemetry)
        assert _counter(telemetry, "service.store.index_rebuilds") == 0
        migrated = json.loads(index.read_text())
        assert migrated["index_version"] == 4
        for fp, entry in raw["entries"].items():
            assert migrated["entries"][fp]["last_access"] == entry["last_access"]
            assert migrated["entries"][fp]["mtime_ns"] == (
                reopened.path(fp).stat().st_mtime_ns
            )

    def test_lru_order_survives_close_and_reopen(self, tmp_path, tally):
        a, b, c = "a" * 64, "b" * 64, "c" * 64
        store = ResultStore(tmp_path / "store")
        store.put(a, tally)
        time.sleep(0.01)
        store.put(b, tally)
        time.sleep(0.01)
        assert store.get(a) is not None  # b is now least recently used
        store.close()
        # Artifact mtimes alone would make ``a`` the oldest.
        reopened = ResultStore(store.root, max_bytes=int(2.5 * store.total_bytes() / 2))
        reopened.put(c, tally)
        assert set(reopened.fingerprints()) == {a, c}


class TestSnapshotFailure:
    """A failed index snapshot is logged and counted, never raised."""

    def test_enospc_on_close_loses_nothing(self, tmp_path, tally, monkeypatch):
        import errno
        from pathlib import Path

        from repro.service import JobManager

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        store = ResultStore(tmp_path / "store")
        manager = JobManager(store, max_workers=1, journal=tmp_path / "journal")
        fps = ["a" * 64, "b" * 64]
        for fp in fps:
            store.put(fp, tally)
        monkeypatch.setattr(Path, "write_text", full_disk)
        manager.close()  # must not raise
        monkeypatch.undo()
        assert manager.journal._file.closed
        assert _counter(manager.telemetry, "service.store.snapshot_failures") == 1
        assert not (store.root / "index.json").exists()
        assert not (store.root / "index.json.tmp").exists()
        assert set(ResultStore(store.root).fingerprints()) == set(fps)
