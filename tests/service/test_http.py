"""HTTP front end: the full serve → poll → fetch → cache-hit lifecycle.

``test_lifecycle_and_cache_hit`` is the subsystem's acceptance test: a
cached ``GET /v2/results/<fingerprint>`` must be bit-identical to a fresh
``api.run`` of the same request, served without re-simulating (cache-hit
counter increments, zero new kernel spans).
"""

from __future__ import annotations

import http.client
import io
import json
import os
import time
import urllib.error
import urllib.request

import numpy as np

import pytest

from repro.api import RunRequest, run
from repro.io import load_tally
from repro.observe import Telemetry
from repro.service import (
    JobManager,
    request_to_json,
    JobState,
    ResultStore,
    ServiceServer,
    request_from_json,
    request_fingerprint,
)

REQUEST_BODY = {"model": "white_matter", "n_photons": 400, "seed": 7, "task_size": 200}


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _get_bytes(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read()


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _poll_done(url: str, job_id: str, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload = _get(f"{url}/v2/runs/{job_id}")
        if payload["state"] in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
            return payload
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} did not settle")


@pytest.fixture
def server(tmp_path):
    telemetry = Telemetry.in_memory()
    store = ResultStore(tmp_path / "store", telemetry=telemetry)
    manager = JobManager(store, max_workers=2, telemetry=telemetry)
    with ServiceServer(manager) as srv:
        yield srv


def _kernel_spans(server) -> int:
    events = server.manager.telemetry.sink.events
    return sum(
        1
        for e in events
        if e["event"] == "span_start" and e.get("name") == "kernel.batch"
    )


def _cheap_tally():
    """A real tally from the fast test medium (~0.2 s, not white matter)."""
    from .conftest import fast_service_config

    return run(RunRequest(config=fast_service_config(), n_photons=50)).tally


def _counter_value(metrics: dict, name: str) -> float:
    for row in metrics["counters"]:
        if row["name"] == name:
            return row["value"]
    return 0.0


class TestLifecycle:
    def test_lifecycle_and_cache_hit(self, server):
        url = server.url

        # --- submit (cold) --------------------------------------------------
        status, job = _post(f"{url}/v2/runs", REQUEST_BODY)
        assert status == 202
        assert job["state"] in (JobState.QUEUED, JobState.RUNNING)

        # --- poll to completion --------------------------------------------
        done = _poll_done(url, job["id"])
        assert done["state"] == JobState.DONE
        assert done["error"] is None

        # --- fetch the archive and compare against a direct api.run --------
        data = _get_bytes(f"{url}/v2/results/{done['fingerprint']}")
        archive = server.manager.store.root / "fetched.npz"
        archive.write_bytes(data)
        served = load_tally(archive)
        archive.unlink()
        direct = run(RunRequest(**REQUEST_BODY)).tally
        assert served == direct  # Tally.__eq__: np.array_equal on every array
        assert served.provenance["fingerprint"] == done["fingerprint"]
        assert done["fingerprint"] == request_fingerprint(RunRequest(**REQUEST_BODY))

        # --- resubmit: answered from the store, no re-simulation -----------
        _, metrics_before = _get(f"{url}/v2/metrics")
        hits_before = _counter_value(metrics_before, "service.cache.hits")
        spans_before = _kernel_spans(server)

        status, repeat = _post(f"{url}/v2/runs", REQUEST_BODY)
        assert status == 200  # completed at submission time
        assert repeat["state"] == JobState.DONE
        assert repeat["cache_hit"] is True

        _, metrics_after = _get(f"{url}/v2/metrics")
        assert (
            _counter_value(metrics_after, "service.cache.hits") == hits_before + 1
        )
        assert _kernel_spans(server) == spans_before  # zero new kernel spans

        cached = load_tally(
            server.manager.store.path(repeat["fingerprint"]),
            expected_fingerprint=repeat["fingerprint"],
        )
        assert cached == direct

    def test_metrics_endpoint_shape(self, server):
        status, metrics = _get(f"{server.url}/v2/metrics")
        assert status == 200
        assert set(metrics) == {"counters", "gauges", "histograms"}

    def test_healthz(self, server):
        assert _get(f"{server.url}/v2/healthz") == (
            200, {"ok": True, "draining": False}
        )

    def test_keepalive_responses_do_not_stall(self, server):
        # Header and body leave in separate writes; with Nagle's algorithm
        # on, the client's delayed ACK holds each body back ~40 ms.
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/v2/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.3


class TestErrors:
    def _status_of(self, call):
        with pytest.raises(urllib.error.HTTPError) as err:
            call()
        return err.value.code, json.loads(err.value.read())

    def test_unknown_job_404(self, server):
        code, payload = self._status_of(lambda: _get(f"{server.url}/v2/runs/nope"))
        assert code == 404
        assert payload["error"]["code"] == "not_found"
        assert "unknown job" in payload["error"]["message"]

    def test_missing_result_404(self, server):
        code, _ = self._status_of(
            lambda: _get(f"{server.url}/v2/results/{'0' * 64}")
        )
        assert code == 404

    def test_malformed_fingerprint_400(self, server):
        code, _ = self._status_of(
            lambda: _get(f"{server.url}/v2/results/..%2Fescape")
        )
        assert code == 400

    def test_unknown_field_400(self, server):
        code, payload = self._status_of(
            lambda: _post(f"{server.url}/v2/runs", {"model": "white_matter", "fotons": 5})
        )
        assert code == 400
        assert payload["error"]["code"] == "bad_request"
        assert "fotons" in payload["error"]["message"]

    @pytest.mark.parametrize("field, value", [
        ("detector_spacing", "a"), ("n_photons", 1.5), ("n_photons", True),
        ("kernel", "nope"), ("backend", "gpu"), ("task_size", 0),
        ("n_photons", -5),
    ])
    def test_malformed_value_400(self, server, field, value):
        code, payload = self._status_of(
            lambda: _post(f"{server.url}/v2/runs", {"model": "white_matter", field: value})
        )
        assert code == 400
        assert payload["error"]["code"] == "bad_request"
        assert field in payload["error"]["message"]
        assert server.manager.jobs() == []  # nothing queued or journaled

    @pytest.mark.parametrize("field, value", [
        ("workers", 10**6), ("n_photons", 10**400),
    ])
    def test_unbounded_value_400(self, tmp_path, field, value):
        from repro.service import AdmissionController

        def never(request):
            raise AssertionError("an out-of-bounds request must not run")

        manager = JobManager(ResultStore(tmp_path / "store"), runner=never)
        with ServiceServer(manager, admission=AdmissionController()) as server:
            code, payload = self._status_of(
                lambda: _post(f"{server.url}/v2/runs", {"model": "white_matter", field: value})
            )
            assert manager.jobs() == []  # nothing queued or journaled
        assert code == 400
        assert payload["error"]["code"] == "bad_request"
        assert field in payload["error"]["message"]

    def test_deeply_nested_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v2/runs", data=b"[" * 100_000 + b"]" * 100_000,
            method="POST", headers={"Content-Type": "application/json"},
        )
        code, payload = self._status_of(lambda: urllib.request.urlopen(request, timeout=30))
        assert code == 400
        assert payload["error"]["code"] == "bad_request"

    def test_invalid_model_400(self, server):
        code, _ = self._status_of(
            lambda: _post(f"{server.url}/v2/runs", {"model": "gray_matter"})
        )
        assert code == 400

    def test_non_object_body_400(self, server):
        code, _ = self._status_of(lambda: _post(f"{server.url}/v2/runs", ["nope"]))
        assert code == 400

    def test_unknown_endpoint_404(self, server):
        code, _ = self._status_of(lambda: _get(f"{server.url}/v2/everything"))
        assert code == 404


class TestRequestFromJson:
    def test_round_trip_fields(self):
        request = request_from_json(dict(REQUEST_BODY, gate=[5.0, 50.0], workers=2))
        assert request.model == "white_matter"
        assert request.gate == (5.0, 50.0)
        assert request.workers == 2

    def test_workers_above_cpu_count_rejected(self):
        cores = os.cpu_count() or 1
        assert request_from_json(dict(REQUEST_BODY, workers=cores)).workers == cores
        for bad in (cores + 1, 10**6):
            with pytest.raises(ValueError, match="workers"):
                request_from_json(dict(REQUEST_BODY, workers=bad))
        # Library callers size their own pools.
        assert RunRequest(model="white_matter", workers=10**6).workers == 10**6

    def test_budget_beyond_float_range_rejected(self):
        # Admission prices a request in float photons: a budget no float
        # can hold is refused at the decoder, not inside admission.
        with pytest.raises(ValueError, match="n_photons"):
            request_from_json(dict(REQUEST_BODY, n_photons=10**400))
        assert request_from_json(dict(REQUEST_BODY, n_photons=10**300)).n_photons == 10**300

    def test_model_required(self):
        with pytest.raises(ValueError, match="model"):
            request_from_json({"n_photons": 100})

    def test_forbidden_fields_rejected(self):
        for field in ("mode", "checkpoint", "telemetry", "on_server_start"):
            with pytest.raises(ValueError, match="unknown request field"):
                request_from_json({"model": "white_matter", field: "x"})

    def test_bad_gate_rejected(self):
        with pytest.raises(ValueError, match="gate"):
            request_from_json({"model": "white_matter", "gate": [1.0]})

    def test_task_range_round_trips(self):
        # Journal replay depends on this: a partial-range request must
        # re-materialise with the identical range (same fingerprint).
        request = request_from_json(dict(REQUEST_BODY, task_range=[1, 2]))
        assert request.task_range == (1, 2)
        wire = request_to_json(request)
        assert wire["task_range"] == [1, 2]
        assert request_from_json(wire) == request

    def test_bad_task_range_rejected(self):
        for bad in ([1], [0.5, 2], "0:2", [1, 2, 3]):
            with pytest.raises(ValueError, match="task_range"):
                request_from_json(dict(REQUEST_BODY, task_range=bad))

    def test_frontier_requests_are_unexpressible(self):
        from dataclasses import replace

        from repro.core.reduce import TallyFrontier

        request = request_from_json(dict(REQUEST_BODY))
        assert request_to_json(replace(request, frontier=TallyFrontier([]))) is None
        assert request_to_json(replace(request, capture_frontier=True)) is None


class TestBackpressure:
    """Admission control speaks HTTP: 429/503 with Retry-After, never a hang."""

    def _refused(self, call):
        with pytest.raises(urllib.error.HTTPError) as err:
            call()
        return err.value.code, err.value.headers, json.loads(err.value.read())

    def test_over_budget_429_without_retry_after(self, tmp_path):
        from repro.service import AdmissionController

        manager = JobManager(ResultStore(tmp_path / "store"))
        admission = AdmissionController(max_photons_per_request=100)
        with ServiceServer(manager, admission=admission) as server:
            code, headers, payload = self._refused(
                lambda: _post(f"{server.url}/v2/runs", REQUEST_BODY)
            )
        assert code == 429
        assert payload["error"]["code"] == "over_budget"
        assert "admission refused" in payload["error"]["message"]
        assert payload["error"]["retry_after"] is None
        assert headers.get("Retry-After") is None  # retrying cannot succeed

    def test_rate_limited_429_with_retry_after(self, tmp_path):
        from repro.service import AdmissionController

        manager = JobManager(ResultStore(tmp_path / "store"))
        admission = AdmissionController(
            rate_photons_per_s=100, burst_photons=400
        )
        with ServiceServer(manager, admission=admission) as server:
            first = _post(f"{server.url}/v2/runs", REQUEST_BODY)  # drains burst
            assert first[0] == 202
            code, headers, payload = self._refused(
                lambda: _post(f"{server.url}/v2/runs", dict(REQUEST_BODY, seed=8))
            )
        assert code == 429
        assert payload["error"]["code"] == "rate"
        assert float(headers["Retry-After"]) >= 1

    def test_saturated_queue_503(self, tmp_path):
        import threading

        from repro.service import AdmissionController

        release = threading.Event()
        canned = _cheap_tally()

        def blocking_runner(request):
            release.wait(30)
            return canned

        manager = JobManager(
            ResultStore(tmp_path / "store"), max_workers=1, runner=blocking_runner
        )
        admission = AdmissionController(max_queue=1)
        try:
            with ServiceServer(manager, admission=admission) as server:
                assert _post(f"{server.url}/v2/runs", REQUEST_BODY)[0] == 202
                code, headers, payload = self._refused(
                    lambda: _post(f"{server.url}/v2/runs", dict(REQUEST_BODY, seed=8))
                )
                assert code == 503
                assert payload["error"]["code"] == "saturated"
                assert headers["Retry-After"] is not None
                release.set()
        finally:
            release.set()

    def test_inflight_quota_is_per_client_header(self, tmp_path):
        import threading

        from repro.service import AdmissionController

        release = threading.Event()
        canned = _cheap_tally()

        def blocking_runner(request):
            release.wait(30)
            return canned

        manager = JobManager(
            ResultStore(tmp_path / "store"), max_workers=1, runner=blocking_runner
        )
        admission = AdmissionController(max_inflight_per_client=1)

        def post_as(url, body, client):
            req = urllib.request.Request(
                url, data=json.dumps(body).encode(), method="POST",
                headers={"Content-Type": "application/json", "X-Client": client},
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())

        try:
            with ServiceServer(manager, admission=admission) as server:
                url = f"{server.url}/v2/runs"
                assert post_as(url, REQUEST_BODY, "alice")[0] == 202
                code, _, payload = self._refused(
                    lambda: post_as(url, dict(REQUEST_BODY, seed=8), "alice")
                )
                assert code == 429 and payload["error"]["code"] == "inflight"
                # A different identity is not throttled by alice's quota.
                assert post_as(url, dict(REQUEST_BODY, seed=9), "bob")[0] == 202
                release.set()
        finally:
            release.set()


class TestPriorities:
    def test_priority_header_lands_on_the_job(self, server):
        req = urllib.request.Request(
            f"{server.url}/v2/runs",
            data=json.dumps(REQUEST_BODY).encode(),
            method="POST",
            headers={"Content-Type": "application/json", "X-Priority": "high"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            payload = json.loads(resp.read())
        assert payload["priority"] == "high"
        _poll_done(server.url, payload["id"])

    def test_unknown_priority_400(self, server):
        req = urllib.request.Request(
            f"{server.url}/v2/runs",
            data=json.dumps(REQUEST_BODY).encode(),
            method="POST",
            headers={"Content-Type": "application/json", "X-Priority": "urgent"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert "urgent" in json.loads(err.value.read())["error"]["message"]


class TestGracefulShutdown:
    def test_draining_server_refuses_submissions(self, server):
        server.draining = True
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/v2/runs", REQUEST_BODY)
        assert err.value.code == 503
        assert err.value.headers["Retry-After"] == "30"
        assert _get(f"{server.url}/v2/healthz")[1]["draining"] is True

    def test_drain_of_idle_server_returns_true_and_closes(self, tmp_path):
        server = ServiceServer(JobManager(ResultStore(tmp_path / "store")))
        server.start()
        assert server.drain(timeout=5.0) is True
        # Fully closed: the port no longer answers.
        with pytest.raises(OSError):
            _get(f"{server.url}/v2/healthz")

    def test_close_is_idempotent_and_joins_workers(self, tmp_path):
        import threading

        manager = JobManager(ResultStore(tmp_path / "store"))
        server = ServiceServer(manager)
        server.start()
        server.close()
        server.close()  # second close: no-op, no error
        manager.close()  # manager close is idempotent too
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith(("repro-service", "repro-http"))
        ]


def _archive_parts(raw: bytes) -> tuple[dict, dict]:
    """Split an .npz archive into (header sans provenance, array bytes)."""
    with np.load(io.BytesIO(raw)) as z:
        arrays = {k: z[k].tobytes() for k in z.files if k != "header"}
        header = json.loads(bytes(z["header"]).decode("utf-8"))
    header.pop("provenance", None)
    return header, arrays


class TestApiV2:
    # Budgets kept small: white_matter photons are expensive, and this
    # class runs three simulations (base, delta, cold comparator).
    SMALL = dict(REQUEST_BODY, n_photons=100, task_size=50)
    LARGE = dict(REQUEST_BODY, n_photons=200, task_size=50)

    def test_v1_is_gone(self, server):
        """The retired /v1 prefix answers 410 with a pointer to /v2."""

        def status_of(call):
            with pytest.raises(urllib.error.HTTPError) as err:
                call()
            return err.value.code, json.loads(err.value.read())

        for call, replacement in [
            (lambda: _post(f"{server.url}/v1/runs", REQUEST_BODY), "/v2/runs"),
            (lambda: _get(f"{server.url}/v1/runs/abc"), "/v2/runs/abc"),
            (lambda: _get(f"{server.url}/v1/metrics"), "/v2/metrics"),
            (lambda: _get(f"{server.url}/v1/healthz"), "/v2/healthz"),
            (
                lambda: _get(f"{server.url}/v1/results/{'0' * 64}"),
                f"/v2/results/{'0' * 64}",
            ),
        ]:
            code, payload = status_of(call)
            assert code == 410
            assert payload["error"]["code"] == "gone"
            assert replacement in payload["error"]["message"]

    def test_v2_result_matches_job_view(self, server):
        status, job = _post(f"{server.url}/v2/runs", REQUEST_BODY)
        assert status == 202
        done = _poll_done(server.url, job["id"])
        assert done["cache"] == "miss"
        _, via_get = _get(f"{server.url}/v2/runs/{job['id']}")
        assert via_get == done
        data = _get_bytes(f"{server.url}/v2/results/{done['fingerprint']}")
        assert data  # archive served once the run settled

    def test_prefix_extension_is_byte_identical_to_cold_run(self, server, tmp_path):
        """The PR's acceptance test: a budget-extended archive must match a
        from-scratch full-budget archive byte for byte, provenance aside."""
        _, base = _post(f"{server.url}/v2/runs", self.SMALL)
        base_done = _poll_done(server.url, base["id"], timeout=120)
        assert base_done["cache"] == "miss"

        _, ext = _post(f"{server.url}/v2/runs", self.LARGE)
        ext_done = _poll_done(server.url, ext["id"], timeout=120)
        assert ext_done["state"] == JobState.DONE
        assert ext_done["cache"] == "prefix"
        assert ext_done["base_fingerprint"] == base_done["fingerprint"]
        assert ext_done["delta_photons"] == 100
        extended = _get_bytes(f"{server.url}/v2/results/{ext_done['fingerprint']}")

        cold_store = ResultStore(tmp_path / "cold-store")
        # capture_paths=False: an extension's archive is paths-less (the
        # primed frontier spans carry no records), so the comparator must
        # not add a paths section the extension can't have.
        with ServiceServer(
            JobManager(cold_store, max_workers=2, capture_paths=False)
        ) as cold_server:
            _, cold = _post(f"{cold_server.url}/v2/runs", self.LARGE)
            cold_done = _poll_done(cold_server.url, cold["id"], timeout=120)
            assert cold_done["cache"] == "miss"
            cold_bytes = _get_bytes(
                f"{cold_server.url}/v2/results/{cold_done['fingerprint']}"
            )

        assert ext_done["fingerprint"] == cold_done["fingerprint"]
        ext_header, ext_arrays = _archive_parts(extended)
        cold_header, cold_arrays = _archive_parts(cold_bytes)
        assert ext_header == cold_header  # tally + frontier layout
        assert ext_arrays == cold_arrays  # every array byte-identical

    def test_prefix_provenance_in_archive(self, server):
        _, base = _post(f"{server.url}/v2/runs", self.SMALL)
        base_done = _poll_done(server.url, base["id"], timeout=120)
        _, ext = _post(f"{server.url}/v2/runs", self.LARGE)
        ext_done = _poll_done(server.url, ext["id"], timeout=120)
        raw = _get_bytes(f"{server.url}/v2/results/{ext_done['fingerprint']}")
        with np.load(io.BytesIO(raw)) as z:
            header = json.loads(bytes(z["header"]).decode("utf-8"))
        derived = header["provenance"]["derived_from"]
        assert derived["base_fingerprint"] == base_done["fingerprint"]
        assert derived["delta_photons"] == 100

    def test_task_range_over_the_wire(self, server):
        _, job = _post(f"{server.url}/v2/runs", dict(REQUEST_BODY, task_range=[0, 1]))
        done = _poll_done(server.url, job["id"])
        assert done["state"] == JobState.DONE
        raw = _get_bytes(f"{server.url}/v2/results/{done['fingerprint']}")
        with np.load(io.BytesIO(raw)) as z:
            header = json.loads(bytes(z["header"]).decode("utf-8"))
        assert header["n_launched"] == 200  # one 200-photon task of the budget

    def test_bad_task_range_gets_enveloped_400(self, server):
        try:
            _post(f"{server.url}/v2/runs", dict(REQUEST_BODY, task_range="0:2"))
        except urllib.error.HTTPError as exc:
            payload = json.loads(exc.read())
            assert exc.code == 400
            assert payload["error"]["code"] == "bad_request"
            assert "task_range" in payload["error"]["message"]
        else:
            pytest.fail("expected 400")


def test_smoke_end_to_end(tmp_path):
    """The CI service smoke: cold run, poll, fetch, bit-identical, cache hit."""
    store = ResultStore(tmp_path / "store")
    with ServiceServer(JobManager(store, max_workers=2)) as server:
        status, job = _post(f"{server.url}/v2/runs", REQUEST_BODY)
        done = _poll_done(server.url, job["id"])
        assert done["state"] == JobState.DONE
        data = _get_bytes(f"{server.url}/v2/results/{done['fingerprint']}")
        path = tmp_path / "result.npz"
        path.write_bytes(data)
        assert load_tally(path) == run(RunRequest(**REQUEST_BODY)).tally
        status, repeat = _post(f"{server.url}/v2/runs", REQUEST_BODY)
        assert status == 200 and repeat["cache_hit"]
