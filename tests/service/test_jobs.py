"""Job manager: caching, coalescing, lifecycle, cancellation.

The coalescing tests are the heart of the subsystem's claim: N concurrent
identical submissions must cost exactly one simulation and deliver N
identical results.
"""

from __future__ import annotations

import errno
import threading
import time

import pytest

from repro.api import run
from repro.core.tally import Tally
from repro.distributed.checkpoint import CheckpointError
from repro.observe import Telemetry
from repro.service import JobManager, JobState, ResultStore


def _counter(manager: JobManager, name: str) -> float:
    return manager.telemetry.registry.counter(name).value


class TestLifecycle:
    def test_submit_and_result_matches_direct_run(self, make_request):
        request = make_request()
        with JobManager() as manager:
            job = manager.submit(request)
            tally = job.result(timeout=60)
        assert tally == run(make_request()).tally  # bitwise Tally.__eq__
        assert job.state == JobState.DONE
        assert job.started is not None and job.finished is not None

    def test_job_lookup_and_as_dict(self, make_request):
        with JobManager() as manager:
            job = manager.submit(make_request())
            assert manager.job(job.id) is job
            assert manager.job("nope") is None
            job.wait(60)
            payload = job.as_dict()
        assert payload["state"] == JobState.DONE
        assert payload["fingerprint"] == job.fingerprint
        assert payload["error"] is None

    def test_failed_run_settles_the_job(self, make_request):
        def broken(request):
            raise RuntimeError("kernel exploded")

        with JobManager(runner=broken) as manager:
            job = manager.submit(make_request())
            assert job.wait(10)
            assert job.state == JobState.FAILED
            assert "kernel exploded" in job.error
            with pytest.raises(RuntimeError, match="kernel exploded"):
                job.result(timeout=1)
        assert _counter(manager, "service.jobs.failed") == 1

    def test_closed_manager_rejects_submissions(self, make_request):
        manager = JobManager()
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.submit(make_request())


class TestCaching:
    def test_second_submission_is_a_cache_hit(self, tmp_path, make_request):
        store = ResultStore(tmp_path / "store")
        calls = []

        def counting(request):
            calls.append(request)
            return run(request).tally

        with JobManager(store, runner=counting) as manager:
            first = manager.submit(make_request()).result(timeout=60)
            second_job = manager.submit(make_request())
            second = second_job.result(timeout=10)
        assert len(calls) == 1  # the repeat never reached the runner
        assert second_job.cache_hit
        assert second_job.state == JobState.DONE
        assert first == second
        assert _counter(manager, "service.cache.hits") == 1
        assert _counter(manager, "service.cache.misses") == 1

    def test_cache_survives_manager_restart(self, tmp_path, make_request):
        root = tmp_path / "store"
        with JobManager(ResultStore(root)) as manager:
            manager.submit(make_request()).result(timeout=60)
        with JobManager(ResultStore(root)) as manager:
            job = manager.submit(make_request())
            assert job.cache_hit
            job.result(timeout=10)


class TestCoalescing:
    def test_concurrent_identical_submissions_run_once(self, make_request):
        n_threads = 8
        calls = []
        release = threading.Event()

        def gated(request):
            calls.append(request)
            release.wait(30)
            return run(request).tally

        jobs = []
        jobs_lock = threading.Lock()

        with JobManager(runner=gated, max_workers=4) as manager:

            def submit():
                job = manager.submit(make_request())
                with jobs_lock:
                    jobs.append(job)

            threads = [threading.Thread(target=submit) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            release.set()

            results = [job.result(timeout=60) for job in jobs]

        assert len(calls) == 1  # N submissions -> 1 simulation
        assert all(r == results[0] for r in results)  # N identical results
        assert sum(job.coalesced for job in jobs) == n_threads - 1
        assert _counter(manager, "service.coalesced") == n_threads - 1

    def test_different_requests_do_not_coalesce(self, make_request):
        with JobManager(max_workers=2) as manager:
            a = manager.submit(make_request(seed=1))
            b = manager.submit(make_request(seed=2))
            ta, tb = a.result(timeout=60), b.result(timeout=60)
        assert not b.coalesced
        assert ta != tb

    def test_queue_depth_returns_to_zero(self, make_request):
        with JobManager() as manager:
            manager.submit(make_request()).result(timeout=60)
            depth = manager.telemetry.registry.gauge("service.queue.depth").value
        assert depth == 0


class TestCancellation:
    def test_cancel_queued_job(self, make_request):
        release = threading.Event()

        def gated(request):
            release.wait(30)
            return run(request).tally

        with JobManager(runner=gated, max_workers=1) as manager:
            blocker = manager.submit(make_request(seed=1))
            queued = manager.submit(make_request(seed=2))  # pool is busy
            assert manager.cancel(queued.id)
            assert queued.state == JobState.CANCELLED
            release.set()
            blocker.result(timeout=60)
            assert not manager.cancel(blocker.id)  # already done

    def test_cancelled_rider_does_not_disturb_the_flight(self, make_request):
        started = threading.Event()
        release = threading.Event()

        def gated(request):
            started.set()
            release.wait(30)
            return run(request).tally

        with JobManager(runner=gated) as manager:
            first = manager.submit(make_request())
            assert started.wait(10)
            rider = manager.submit(make_request())
            assert rider.coalesced
            assert manager.cancel(rider.id)
            release.set()
            tally = first.result(timeout=60)
        assert tally is not None
        assert rider.state == JobState.CANCELLED

    def test_stale_entry_of_cancelled_flight_spares_its_successor(self, make_request):
        # The cancelled flight's queue entry is retired after a new flight
        # for the same request opened: the new one must stay registered,
        # so a third submission still coalesces onto it.
        unblock = threading.Event()
        running = threading.Event()
        finish = threading.Event()

        def gated(request):
            if request.seed == 1:
                unblock.wait(30)
            else:
                running.set()
                finish.wait(30)
            return run(request).tally

        with JobManager(runner=gated, max_workers=1) as manager:
            blocker = manager.submit(make_request(seed=1))
            first = manager.submit(make_request(seed=2))
            assert manager.cancel(first.id)
            second = manager.submit(make_request(seed=2))
            unblock.set()
            assert running.wait(30)
            third = manager.submit(make_request(seed=2))
            assert third.coalesced
            assert manager.queue_depth() == 2
            finish.set()
            assert second.result(timeout=60) == third.result(timeout=60)
            blocker.result(timeout=60)
        assert first.state == JobState.CANCELLED

    def test_cancel_unknown_job(self, make_request):
        with JobManager() as manager:
            assert not manager.cancel("nope")


class TestTelemetryAttachment:
    def test_kernel_metrics_land_in_service_registry(self, make_request):
        with JobManager() as manager:
            manager.submit(make_request()).result(timeout=60)
        # The facade threads the service telemetry through to the kernels.
        assert _counter(manager, "photons.traced") > 0

    def test_caller_owned_telemetry_is_kept(self, make_request):
        own = Telemetry.in_memory()
        with JobManager() as manager:
            manager.submit(make_request(telemetry=own)).result(timeout=60)
        kinds = {e["event"] for e in own.sink.events}
        assert "span_start" in kinds


class TestPrefixExtension:
    """Budget-extending cache: smaller cached run + delta = larger run."""

    def test_larger_budget_extends_cached_smaller_run(self, tmp_path, make_request):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            small = manager.submit(make_request(n_photons=400))
            small.result(timeout=60)
            assert small.cache == "miss"
            large = manager.submit(make_request(n_photons=800))
            extended = large.result(timeout=60)
        assert large.cache == "prefix"
        assert large.base_fingerprint == small.fingerprint
        assert large.delta_photons == 400
        assert not large.cache_hit  # exact-hit flag stays exact-only
        assert _counter(manager, "service.prefix.hits") == 1
        # The acceptance criterion: bit-identical to a from-scratch run.
        with JobManager(max_workers=1) as cold_manager:
            cold = cold_manager.submit(make_request(n_photons=800)).result(timeout=60)
        assert extended == cold  # bitwise Tally.__eq__

    def test_extension_result_is_stored_and_extendable_again(
        self, tmp_path, make_request
    ):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(make_request(n_photons=400)).result(timeout=60)
            manager.submit(make_request(n_photons=800)).result(timeout=60)
            third = manager.submit(make_request(n_photons=1200))
            third.result(timeout=60)
        assert third.cache == "prefix"
        assert third.delta_photons == 400  # only the new tasks, not 1200

    def test_as_dict_reports_cache_provenance(self, tmp_path, make_request):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(make_request(n_photons=400)).result(timeout=60)
            job = manager.submit(make_request(n_photons=800))
            job.result(timeout=60)
            payload = job.as_dict()
            exact = manager.submit(make_request(n_photons=800))
            exact_payload = exact.as_dict()
        assert payload["cache"] == "prefix"
        assert payload["base_fingerprint"] == job.base_fingerprint
        assert payload["delta_photons"] == 400
        assert exact_payload["cache"] == "exact"
        assert exact_payload["cache_hit"] is True
        assert "base_fingerprint" not in exact_payload
        common = {
            "id", "fingerprint", "state", "priority", "cache_hit", "cache",
            "coalesced", "recovered", "error", "created", "started", "finished",
        }
        assert set(exact_payload) == common
        assert set(payload) == common | {"base_fingerprint", "delta_photons"}
        assert payload["cache_hit"] is False

    def test_derivation_stamped_into_stored_provenance(self, tmp_path, make_request):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            base = manager.submit(make_request(n_photons=400))
            base.result(timeout=60)
            job = manager.submit(make_request(n_photons=800))
            job.result(timeout=60)
            stored = store.get(job.fingerprint)
        derived = stored.provenance["derived_from"]
        assert derived["base_fingerprint"] == base.fingerprint
        assert derived["base_n_photons"] == 400
        assert derived["delta_photons"] == 400
        assert derived == {
            "base_fingerprint": base.fingerprint,
            "base_n_photons": 400,
            "delta_photons": 400,
        }

    def test_different_physics_never_extends(self, tmp_path, make_request):
        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1) as manager:
            manager.submit(make_request(n_photons=400)).result(timeout=60)
            other = manager.submit(make_request(n_photons=800, seed=99))
            other.result(timeout=60)
        assert other.cache == "miss"
        assert other.base_fingerprint is None

    def test_bare_tally_runner_disables_extension_but_still_works(
        self, tmp_path, make_request
    ):
        # Legacy custom runners return a Tally, not a RunReport: no frontier
        # is captured, so nothing is extendable — but everything still runs.
        def bare(request):
            return run(request).tally

        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1, runner=bare) as manager:
            manager.submit(make_request(n_photons=400)).result(timeout=60)
            large = manager.submit(make_request(n_photons=800))
            large.result(timeout=60)
        assert large.cache == "miss"
        assert store.best_prefix("0" * 64, 10**9) is None


class TestBudgetChaining:
    """Escalating concurrent budgets: one full run + deltas, no races."""

    def test_queued_larger_budget_chains_to_inflight_smaller(
        self, tmp_path, make_request
    ):
        release = threading.Event()

        def gated(request):
            # Hold the small flight until the large one has been queued, so
            # the chain forms however fast the small run would finish.
            release.wait(30)
            return run(request)

        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1, runner=gated) as manager:
            small = manager.submit(make_request(n_photons=400))
            large = manager.submit(make_request(n_photons=800))
            release.set()
            extended = large.result(timeout=120)
            small.result(timeout=10)
        assert _counter(manager, "service.chained") == 1
        assert large.cache == "prefix"
        assert large.delta_photons == 400
        with JobManager(max_workers=1) as cold_manager:
            cold = cold_manager.submit(make_request(n_photons=800)).result(timeout=60)
        assert extended == cold

    def test_cancelled_base_releases_chained_flight(self, tmp_path, make_request):
        release = threading.Event()

        def gated(request):
            release.wait(30)
            return run(request)

        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1, runner=gated) as manager:
            blocker = manager.submit(make_request(seed=5))  # occupies the slot
            small = manager.submit(make_request(n_photons=400))
            large = manager.submit(make_request(n_photons=800))
            assert _counter(manager, "service.chained") == 1
            assert manager.cancel(small.id)
            release.set()
            extended = large.result(timeout=120)
            blocker.result(timeout=60)
        # The chained flight was released and ran cold (no base was stored).
        assert large.cache == "miss"
        assert extended.n_launched == 800

    def test_chained_flight_failure_does_not_strand_waiters(
        self, tmp_path, make_request
    ):
        calls = []

        def failing_large(request):
            calls.append(request.n_photons)
            if request.n_photons >= 800:
                raise RuntimeError("delta exploded")
            return run(request)

        store = ResultStore(tmp_path / "store")
        with JobManager(store, max_workers=1, runner=failing_large) as manager:
            small = manager.submit(make_request(n_photons=400))
            large = manager.submit(make_request(n_photons=800))
            small.result(timeout=60)
            assert large.wait(60)
        assert large.state == JobState.FAILED
        assert "delta exploded" in large.error


def _canned(request) -> Tally:
    """A result for fake runners: no kernel runs, content is irrelevant."""
    return Tally(n_layers=1, n_launched=request.n_photons)


class TestRetriesAndTimeouts:
    """The run step's fault policies, driven by fake runners."""

    def test_transient_failures_are_retried(self, make_request):
        calls = []

        def flaky(request):
            calls.append(request)
            if len(calls) <= 2:
                raise RuntimeError("worker lost")
            return _canned(request)

        with JobManager(runner=flaky, max_attempts=3) as manager:
            job = manager.submit(make_request())
            assert job.wait(10)
        assert job.state == JobState.DONE
        assert len(calls) == 3
        assert _counter(manager, "service.jobs.retried") == 2
        assert _counter(manager, "service.jobs.failed") == 0

    def test_timeout_fails_without_retry(self, make_request):
        release = threading.Event()
        calls = []

        def hung(request):
            calls.append(request)
            release.wait(30)
            return _canned(request)

        try:
            with JobManager(runner=hung, max_attempts=3, job_timeout=0.2) as manager:
                job = manager.submit(make_request())
                assert job.wait(10)
                assert job.state == JobState.FAILED
                assert job.error.startswith("JobTimeout")
        finally:
            release.set()  # let the abandoned attempt finish
        assert len(calls) == 1
        assert _counter(manager, "service.jobs.timeout") == 1
        assert _counter(manager, "service.jobs.retried") == 0

    def test_stale_checkpoint_is_wiped_once_and_the_flight_restarts(
        self, tmp_path, make_request
    ):
        seen = []

        def stale_once(request):
            directory = request.checkpoint.directory
            seen.append((directory / "stale").exists())
            if len(seen) == 1:
                directory.mkdir(parents=True, exist_ok=True)
                (directory / "stale").write_text("another decomposition")
                raise CheckpointError("checkpoint belongs to another run")
            return _canned(request)

        with JobManager(runner=stale_once, journal=tmp_path / "journal") as manager:
            job = manager.submit(make_request())
            assert job.wait(10)
        assert job.state == JobState.DONE
        assert seen == [False, False]  # the restart found the directory wiped
        assert _counter(manager, "service.journal.stale_checkpoints") == 1

    def test_checkpoint_error_twice_fails_the_job(self, tmp_path, make_request):
        calls = []

        def always_stale(request):
            calls.append(request)
            raise CheckpointError("checkpoint belongs to another run")

        with JobManager(
            runner=always_stale, journal=tmp_path / "journal", max_attempts=3
        ) as manager:
            job = manager.submit(make_request())
            assert job.wait(10)
        assert job.state == JobState.FAILED
        assert "stale checkpoint" in job.error
        assert len(calls) == 2
        assert _counter(manager, "service.journal.stale_checkpoints") == 1


def _full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestStoreFailure:
    """A result that cannot be stored is not acknowledged done."""

    def test_failed_put_fails_the_flight_without_rerunning(
        self, tmp_path, make_request
    ):
        calls = []

        def counting(request):
            calls.append(request)
            return _canned(request)

        store = ResultStore(tmp_path / "store")
        store.put = _full_disk
        with JobManager(store, runner=counting, max_attempts=3) as manager:
            job = manager.submit(make_request())
            assert job.wait(10)
        assert job.state == JobState.FAILED
        assert "No space left on device" in job.error
        assert len(calls) == 1  # the run succeeded; only the put failed
        assert _counter(manager, "service.jobs.retried") == 0
        assert _counter(manager, "service.jobs.failed") == 1
