"""Stdlib-only HTTP front end for the simulation service.

A :class:`ServiceServer` wraps a :class:`~repro.service.jobs.JobManager`
behind ``http.server.ThreadingHTTPServer`` — no framework, no third-party
dependency, in keeping with the repo's stdlib+numpy discipline.  The API:

``POST /v2/runs``
    Submit a run.  Body: a JSON object setting the fields of a
    :class:`~repro.api.RunRequest` that the request schema
    (:data:`repro.api.SCHEMA`) marks ``wire``; any other key, and any
    value of the wrong type or range, is a ``400 bad_request``.  Optional
    headers: ``X-Priority: high|normal|low`` (queue class) and
    ``X-Client`` (admission-control identity; defaults to the peer
    address).  Returns ``200`` with the job status when the result was
    already cached, ``202`` otherwise; ``429`` (rate/quota, with
    ``Retry-After``) or ``503`` (queue saturated or draining) under
    admission control.
``GET /v2/runs/<job_id>``
    Job status (state, fingerprint, cache/coalesce/recovered flags,
    timings, error).
``GET /v2/results/<fingerprint>``
    The stored tally as the raw ``.npz`` archive written by
    :func:`repro.io.save_tally` — load it with
    :func:`repro.io.load_tally`.  ``404`` until the run has completed.
``GET /v2/metrics``
    JSON snapshot of the service metrics registry (cache hits/misses,
    coalesced submissions, admission decisions, queue depth, journal
    fsync latency, job latency, kernel counters).

The v2 surface:

* **Uniform error envelope.**  Every error response carries
  ``{"error": {"code": <machine-readable>, "message": <human-readable>,
  "retry_after": <seconds|null>}}`` — admission rejections use the
  controller's reason as the code (``rate``, ``inflight``, ``saturated``,
  ``over_budget``) and still set the ``Retry-After`` header.
* **Cache provenance.**  Job payloads report how the cache served them via
  ``cache`` (``"exact"`` / ``"prefix"`` / ``"derived"`` / ``"miss"``);
  prefix extensions add ``base_fingerprint`` and ``delta_photons``,
  derivations add ``base_fingerprint`` and ``perturbation``.
* **Partial-range runs.**  Requests may carry ``task_range: [lo, hi)``
  (task indices) to simulate a slice of the budget; the partial tally is
  cached under its own fingerprint.

The retired ``/v1`` prefix (an alias of ``/v2`` for one release) now
answers ``410 Gone`` with the v2 error envelope naming the ``/v2``
replacement path — a machine-actionable pointer instead of a silent
``404``.

Responses are JSON except for the archive endpoint
(``application/octet-stream``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..api import SCHEMA, RunRequest
from .admission import AdmissionController
from .jobs import JobManager, JobState, PRIORITIES

__all__ = ["ServiceServer", "request_from_json", "request_to_json"]

#: RunRequest fields a remote caller may set (the schema's ``wire`` rows).
#: Everything else — mode, host/port, checkpointing, telemetry, callbacks —
#: is the server's business, not the wire's.
_WIRE = {name: meta for name, meta in SCHEMA.items() if meta["wire"]}
#: Fields whose non-default value the journal cannot replay, with defaults.
_UNJOURNALABLE = {n: m["default"] for n, m in SCHEMA.items() if m["unjournalable"]}
#: Upper bounds the wire adds to the schema's ranges: a client may not size
#: the server's process pool beyond its cores, nor ask for a budget that
#: admission cannot price in float photons.  Library callers are unbounded.
_WIRE_MAX = {"workers": os.cpu_count() or 1, "n_photons": sys.float_info.max}


def _from_wire(meta, value):
    """A JSON value as its field's type: arrays become tuples, and a float
    field takes a JSON integer as the equal float."""
    if isinstance(value, list):  # one level deep: a pair's two ends
        return tuple(v if isinstance(v, list) else _from_wire(meta, v) for v in value)
    if meta["kind"] is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    return value


def request_from_json(payload: object) -> RunRequest:
    """Build a :class:`RunRequest` from an untrusted JSON body.

    Only wire fields are accepted (unknown keys are a hard error so typos
    fail loudly instead of silently simulating the wrong thing), every
    value is type- and range-checked by ``RunRequest`` itself, and
    ``workers`` and ``n_photons`` are further capped by ``_WIRE_MAX``.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = sorted(set(payload) - set(_WIRE))
    if unknown:
        raise ValueError(f"unknown request field(s) {unknown}; allowed: {sorted(_WIRE)}")
    if "model" not in payload:
        raise ValueError("request must name a 'model'")
    for name, bound in _WIRE_MAX.items():
        value = payload.get(name)
        if type(value) is int and value > bound:
            raise ValueError(f"{name} above {bound:g} is refused by this server")
    return RunRequest(**{k: _from_wire(_WIRE[k], v) for k, v in payload.items()})


def request_to_json(request: RunRequest) -> dict | None:
    """The wire form of a request, or ``None`` when the wire can't carry it.

    The inverse of :func:`request_from_json`, used by the job journal: a
    journaled request must round-trip *exactly* (same fingerprint, same
    RNG consumption) or not at all.  A request with a non-default value in
    a field the schema marks ``unjournalable`` is journaled without a
    payload and never replayed, rather than silently re-simulated as
    something else.
    """
    if any(getattr(request, k) != v for k, v in _UNJOURNALABLE.items()):
        return None
    payload = {name: getattr(request, name) for name in sorted(_WIRE)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in payload.items()}


class _Handler(BaseHTTPRequestHandler):
    """One request; routing only — all state lives in the JobManager."""

    server_ref: "ServiceServer"  # injected by ServiceServer via a subclass attr
    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two writes; with Nagle's algorithm on, a
    #: kept-alive client's delayed ACK would hold each body back ~40 ms.
    disable_nagle_algorithm = True

    @property
    def manager(self) -> JobManager:
        return self.server_ref.manager

    # ----------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the service speaks through /v2/metrics, not stderr

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, data: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        """The v2 error envelope: one shape for every failure.

        ``retry_after`` (seconds) doubles as the ``Retry-After`` header,
        rounded up to at least 1 for header validity.
        """
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = (
                f"{retry_after:.0f}" if retry_after >= 1 else "1"
            )
        self._send_json(
            status,
            {"error": {"code": code, "message": message,
                       "retry_after": retry_after}},
            headers=headers,
        )

    # ------------------------------------------------------------------ routes
    #: Path prefixes served.  /v1 was an alias of /v2 for one release and
    #: is now retired: every /v1 path answers 410 Gone (see _retired).
    _API_VERSIONS = ("v2",)

    def _retired(self) -> bool:
        """Answer retired ``/v1`` paths with ``410 Gone``; True if handled.

        The envelope's message names the exact ``/v2`` replacement path so
        a stale client's error log is its own migration guide.
        """
        parts = [p for p in self.path.split("/") if p]
        if not parts or parts[0] != "v1":
            return False
        replacement = "/".join(["/v2", *parts[1:]])
        self._send_error(
            410,
            "gone",
            f"the /v1 API has been retired; use {replacement}",
        )
        return True

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self._retired():
            return
        if self.path.rstrip("/") != "/v2/runs":
            self._send_error(404, "not_found", f"no such endpoint {self.path!r}")
            return
        server = self.server_ref
        if server.draining:
            self._send_error(
                503, "draining", "draining: not admitting new runs",
                retry_after=30.0,
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            request = request_from_json(payload)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            self._send_error(400, "bad_request", str(exc))
            return
        priority = self.headers.get("X-Priority", "normal")
        if priority not in PRIORITIES:
            self._send_error(
                400, "bad_request",
                f"unknown priority {priority!r}; choose from {sorted(PRIORITIES)}",
            )
            return
        client = self.headers.get("X-Client") or self.client_address[0]
        admission = server.admission
        if admission is not None:
            decision = admission.admit(
                client, request, queue_depth=self.manager.queue_depth()
            )
            if not decision.admitted:
                self._send_error(
                    decision.status,
                    decision.reason or "rejected",
                    f"admission refused: {decision.reason}",
                    retry_after=decision.retry_after,
                )
                return
        try:
            job = self.manager.submit(request, priority=priority, client=client)
        except RuntimeError as exc:  # manager closed or draining
            self._send_error(503, "unavailable", str(exc), retry_after=30.0)
            return
        if admission is not None:
            admission.track(client, job)
        status = 200 if job.state == JobState.DONE else 202
        self._send_json(status, job.as_dict())

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self._retired():
            return
        parts = [p for p in self.path.split("/") if p]
        version = parts[0] if parts else None
        if version not in self._API_VERSIONS:
            self._send_error(404, "not_found", f"no such endpoint {self.path!r}")
        elif parts[1:] == ["metrics"]:
            self._send_json(200, self.manager.telemetry.snapshot())
        elif parts[1:] == ["healthz"]:
            self._send_json(
                200, {"ok": True, "draining": self.server_ref.draining}
            )
        elif len(parts) == 3 and parts[1] == "runs":
            job = self.manager.job(parts[2])
            if job is None:
                self._send_error(404, "not_found", f"unknown job {parts[2]!r}")
            else:
                self._send_json(200, job.as_dict())
        elif len(parts) == 3 and parts[1] == "results":
            self._get_result(parts[2])
        else:
            self._send_error(404, "not_found", f"no such endpoint {self.path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        if self._retired():
            return
        parts = [p for p in self.path.split("/") if p]
        if len(parts) == 3 and parts[0] in self._API_VERSIONS and parts[1] == "runs":
            if self.manager.cancel(parts[2]):
                self._send_json(200, self.manager.job(parts[2]).as_dict())
            else:
                self._send_error(
                    409, "not_cancellable", f"job {parts[2]!r} not cancellable"
                )
        else:
            self._send_error(404, "not_found", f"no such endpoint {self.path!r}")

    def _get_result(self, fingerprint: str) -> None:
        store = self.manager.store
        if store is None:
            self._send_error(404, "no_store", "server runs without a result store")
            return
        try:
            data = store.read_bytes(fingerprint)
        except ValueError as exc:  # malformed fingerprint
            self._send_error(400, "bad_request", str(exc))
            return
        if data is None:
            self._send_error(404, "not_found", f"no result for {fingerprint!r}")
            return
        self.manager.telemetry.count("service.results.served")
        self._send_bytes(data, "application/octet-stream")


#: Seconds between the serve loop's shutdown checks, so :meth:`close`
#: returns within this bound instead of the standard library's 0.5 s.
_POLL_INTERVAL = 0.05


class ServiceServer:
    """The HTTP face of a :class:`JobManager`.

    ``port=0`` binds a free port (read :attr:`port` after construction).
    :meth:`start` serves on a daemon thread; :meth:`serve_forever` serves on
    the calling thread (the CLI's foreground mode).  Closing the server
    also closes the manager unless it was caller-owned
    (``close(shutdown_manager=False)``).  :meth:`close` is idempotent and
    joins both the HTTP thread and the manager's worker threads, so a
    bounced server never leaks threads.  An optional
    :class:`~repro.service.admission.AdmissionController` guards
    ``POST /v2/runs``; :meth:`drain` is the graceful-shutdown path (stop
    admitting → let flights checkpoint/finish → close).
    """

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | None = None,
        drain_timeout: float = 30.0,
    ) -> None:
        if drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {drain_timeout}")
        self.manager = manager
        self.admission = admission
        self.drain_timeout = drain_timeout
        self.draining = False
        if admission is not None and admission.telemetry is None:
            admission.telemetry = manager.telemetry
        handler = type("BoundHandler", (_Handler,), {"server_ref": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._serving = False
        self._closed = False
        self._close_lock = threading.Lock()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(_POLL_INTERVAL,),
            name="repro-http", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        self._httpd.serve_forever(_POLL_INTERVAL)

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: refuse new runs, let running jobs settle, close.

        Returns ``True`` when every job settled within ``timeout``
        (default :attr:`drain_timeout`).  Jobs still running at the
        deadline keep their journal records and checkpoints, so a
        restarted server resumes them; either way the listener and the
        manager are closed (worker threads joined) before returning.
        """
        if timeout is None:
            timeout = self.drain_timeout
        self.draining = True  # handler answers 503 from here on
        drained = self.manager.drain(timeout)
        self.close()
        return drained

    def close(self, *, shutdown_manager: bool = True) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._serving:
            # shutdown() waits on the serve loop; calling it on a server
            # that never served would block forever.
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if shutdown_manager:
            self.manager.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
