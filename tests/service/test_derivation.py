"""Service-side derivation graph: perturbed requests served by reweighting.

A request that differs from a cached run only in perturbable coefficients
(μa, μs) is answered by reweighting the cached parent's path records —
cache value ``"derived"`` — instead of re-simulating.  These tests cover
the resolution order (exact → prefix → derivation → miss), the store's
derivation addressing, chaining behind an in-flight parent, journal
provenance, and every fail-closed path back to a cold run.
"""

from __future__ import annotations

import errno
import json
import time

import pytest

from repro.api import RunRequest
from repro.perturb import PerturbationDelta, derive_tally
from repro.core import SimulationConfig
from repro.service import JobManager, ResultStore
from repro.service.fingerprint import derivation_basis, perturbable_coefficients
from repro.sources import PencilBeam
from repro.tissue import LayerStack, OpticalProperties


def _counter(manager: JobManager, name: str) -> float:
    return manager.telemetry.registry.counter(name).value


def _config(mu_a=1.0, mu_s=10.0) -> SimulationConfig:
    props = OpticalProperties(mu_a=mu_a, mu_s=mu_s, g=0.8, n=1.4)
    return SimulationConfig(
        stack=LayerStack.homogeneous(props, name="fast"), source=PencilBeam()
    )


def _request(mu_a=1.0, mu_s=10.0, **overrides) -> RunRequest:
    kwargs = dict(
        config=_config(mu_a, mu_s), n_photons=400, seed=7, task_size=200
    )
    kwargs.update(overrides)
    return RunRequest(**kwargs)


class TestDerivedServing:
    def test_perturbed_request_is_derived_from_cached_parent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            parent = manager.submit(_request())
            parent.result(timeout=120)
            assert parent.cache == "miss"
            job = manager.submit(_request(mu_a=1.05))
            tally = job.result(timeout=120)

        assert job.cache == "derived"
        assert not job.cache_hit  # exact-hit flag stays exact-only
        assert job.base_fingerprint == parent.fingerprint
        assert job.perturbation["d_mu_a"] == pytest.approx([0.05])
        assert job.perturbation["exact"] is True
        assert _counter(manager, "service.derivation.hits") == 1
        assert _counter(manager, "service.derivation.photons_saved") == 400

        # Bit-identical to deriving by hand from the stored parent (the
        # delta is built exactly the way the service builds it).
        stored = store.get(parent.fingerprint, paths=True)
        delta = PerturbationDelta.between(
            perturbable_coefficients(_request()),
            perturbable_coefficients(_request(mu_a=1.05)),
        )
        assert tally == derive_tally(stored, delta)

    def test_repeat_of_derived_request_is_an_exact_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(_request()).result(timeout=120)
            first = manager.submit(_request(mu_a=1.05))
            first.result(timeout=120)
            repeat = manager.submit(_request(mu_a=1.05))
            repeat.result(timeout=120)
        assert first.cache == "derived"
        assert repeat.cache == "exact"
        assert repeat.cache_hit

    def test_second_perturbation_parents_off_simulation_born_entry(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            parent = manager.submit(_request())
            parent.result(timeout=120)
            manager.submit(_request(mu_a=1.05)).result(timeout=120)
            second = manager.submit(_request(mu_a=1.1))
            second.result(timeout=120)
        # The derived entry is cached and itself derivable, but the
        # simulation-born parent ranks first so the first-order scattering
        # error can never compound across generations.
        assert second.cache == "derived"
        assert second.base_fingerprint == parent.fingerprint

    def test_scattering_perturbation_is_flagged_first_order(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(_request()).result(timeout=120)
            job = manager.submit(_request(mu_s=10.3))
            job.result(timeout=120)
        assert job.cache == "derived"
        assert job.perturbation["exact"] is False
        assert job.perturbation["alpha_s"] == pytest.approx([1.03])

    def test_as_dict_reports_perturbation_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(_request()).result(timeout=120)
            job = manager.submit(_request(mu_a=1.05))
            job.result(timeout=120)
            payload = job.as_dict()
        assert payload["cache"] == "derived"
        assert payload["base_fingerprint"] == job.base_fingerprint
        assert payload["perturbation"] == job.perturbation
        assert "delta_photons" not in payload

    def test_derived_entry_records_parent_in_stored_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            parent = manager.submit(_request())
            parent.result(timeout=120)
            job = manager.submit(_request(mu_a=1.05))
            job.result(timeout=120)
            stored = store.get(job.fingerprint)
        derived_from = stored.provenance["derived_from"]
        assert derived_from["parent_fingerprint"] == parent.fingerprint
        assert derived_from["perturbation"] == job.perturbation
        assert derived_from["parent_derived"] is False
        assert derived_from == {
            "parent_fingerprint": parent.fingerprint,
            "perturbation": job.perturbation,
            "parent_derived": False,
        }

    def test_parent_without_records_falls_through_to_cold_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1, capture_paths=False) as manager:
            manager.submit(_request()).result(timeout=120)
            job = manager.submit(_request(mu_a=1.05))
            job.result(timeout=120)
        assert job.cache == "miss"
        assert _counter(manager, "service.derivation.hits") == 0

    def test_different_budget_never_derives(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(_request()).result(timeout=120)
            job = manager.submit(_request(mu_a=1.05, n_photons=600))
            job.result(timeout=120)
        # A derivation reweights the parent's detected ensemble: it can
        # never conjure photons, so a different budget must run cold.
        assert job.cache == "miss"


class TestDerivedStoreFailure:
    def test_failed_put_fails_the_derived_flight(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(_request()).result(timeout=120)

            def full_disk(*args, **kwargs):
                raise OSError(errno.ENOSPC, "No space left on device")

            store.put = full_disk
            job = manager.submit(_request(mu_a=1.05))
            assert job.wait(120)
        # Nothing is acknowledged done without a fetchable result.
        assert job.state == "failed"
        assert "No space left on device" in job.error
        assert store.get(job.fingerprint) is None
        assert _counter(manager, "service.jobs.failed") == 1


class TestDerivationChaining:
    def test_perturbed_submissions_chain_behind_inflight_parent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=2) as manager:
            parent = manager.submit(_request(n_photons=1200))
            a = manager.submit(_request(n_photons=1200, mu_a=1.05))
            b = manager.submit(_request(n_photons=1200, mu_a=1.1))
            parent.result(timeout=120)
            a.result(timeout=120)
            b.result(timeout=120)
        assert parent.cache == "miss"
        assert a.cache == "derived" and b.cache == "derived"
        assert a.base_fingerprint == parent.fingerprint
        assert b.base_fingerprint == parent.fingerprint
        assert _counter(manager, "service.chained") == 2
        assert _counter(manager, "service.derivation.hits") == 2

    def test_journal_started_record_carries_derivation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(
            store, max_workers=1, journal=tmp_path / "journal"
        ) as manager:
            parent = manager.submit(_request())
            parent.result(timeout=120)
            job = manager.submit(_request(mu_a=1.05))
            job.result(timeout=120)
            extended = manager.submit(_request(n_photons=800))
            extended.result(timeout=120)
            exact = manager.submit(_request(mu_a=1.05))
            exact.result(timeout=120)
            journal_path = manager.journal.path

        records = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
            if line
        ]
        started = [
            r
            for r in records
            if r["event"] == "started" and r["job_id"] == job.id
        ]
        assert len(started) == 1
        assert started[0]["cache"] == "derived"
        assert started[0]["base_fingerprint"] == job.base_fingerprint
        assert started[0]["perturbation"] == job.perturbation
        # The started record of each tier, field for field (ts aside); an
        # exact hit is terminal at submission and journals nothing.
        by_job = {}
        for record in records:
            if record["event"] == "started":
                record.pop("ts")
                by_job[record.pop("job_id")] = record
        assert by_job == {
            parent.id: {"v": 1, "event": "started"},
            job.id: {
                "v": 1,
                "event": "started",
                "cache": "derived",
                "base_fingerprint": parent.fingerprint,
                "perturbation": job.perturbation,
            },
            extended.id: {
                "v": 1,
                "event": "started",
                "cache": "prefix",
                "base_fingerprint": parent.fingerprint,
                "base_n_photons": 400,
                "delta_photons": 400,
            },
        }
        assert exact.cache == "exact"


class TestDerivationStore:
    def _seed(self, tmp_path):
        """A store holding one simulation-born captured parent."""
        store = ResultStore(tmp_path / "store")
        request = _request()
        with JobManager(store, max_workers=1) as manager:
            job = manager.submit(request)
            job.result(timeout=120)
        return store, request, job.fingerprint

    def test_best_derivation_requires_basis_budget_and_paths(self, tmp_path):
        store, request, fp = self._seed(tmp_path)
        basis = derivation_basis(request)
        assert store.best_derivation(basis, 400) == (
            fp,
            perturbable_coefficients(request),
            False,
        )
        assert store.best_derivation(basis, 800) is None  # other budget
        assert store.best_derivation("0" * 64, 400) is None  # other basis
        assert store.best_derivation(basis, 400, exclude=fp) is None

    def test_index_rebuild_recovers_derivation_metadata(self, tmp_path):
        store, request, fp = self._seed(tmp_path)
        basis = derivation_basis(request)
        (store.root / "index.json").unlink()

        rebuilt = ResultStore(store.root)
        hit = rebuilt.best_derivation(basis, 400)
        assert hit == (fp, perturbable_coefficients(request), False)
        assert rebuilt.get(fp, paths=True).paths == store.get(fp, paths=True).paths

    def test_prefix_extended_entry_is_not_flagged_derived(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(_request()).result(timeout=120)
            extended = manager.submit(_request(n_photons=800))
            extended.result(timeout=120)
        assert extended.cache == "prefix"
        (store.root / "index.json").unlink()
        rebuilt = ResultStore(store.root)
        # Prefix-extended entries also carry ``derived_from`` provenance but
        # are exact simulation results, never perturbation-derived.
        entry = rebuilt.fingerprints()
        assert extended.fingerprint in entry
        # It must not be offered as a reweighting parent: it carries no
        # path records (the primed frontier spans have none).
        basis = derivation_basis(_request(n_photons=800))
        assert rebuilt.best_derivation(basis, 800) is None

    def test_evicted_parent_is_no_longer_offered(self, tmp_path):
        store, request, fp = self._seed(tmp_path)
        basis = derivation_basis(request)
        assert store.best_derivation(basis, 400) is not None
        store.clear()
        assert store.best_derivation(basis, 400) is None
        assert store.get(fp, paths=True) is None
