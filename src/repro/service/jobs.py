"""Async job manager: dedup, coalesce, execute with bounded concurrency.

The paper's platform answers one question per campaign; a *serving* system
faces many callers asking overlapping questions concurrently.  The
:class:`JobManager` exploits determinism:

1. **Coalescing** — a submission identical to a flight already in progress
   rides on it: N concurrent identical submissions cost one run.
2. **Budget chaining** — a flight whose physics matches a smaller in-flight
   budget (or whose derivation basis matches an equal in-flight budget)
   waits for it, then extends or derives from its stored result.
3. **Execution** — work runs through :func:`repro.api.run` on a bounded
   thread pool, ``high`` before ``normal`` before ``low`` (FIFO within a
   class).

How a job was served is ``Job.cache``, in resolution order:

* ``"exact"`` — the store holds the request's fingerprint: no run.
* ``"prefix"`` — a stored smaller budget with the same physics primes its
  reduction frontier; only the missing tasks run, and the tally is
  bit-identical to a cold run (task RNG streams are keyed by
  ``(seed, task_index)``).
* ``"derived"`` — a stored run differing only in per-layer μa/μs (same
  :func:`~repro.service.fingerprint.derivation_basis` and budget) is
  reweighted through its path records (:mod:`repro.perturb`): zero photons.
  Simulation-born parents are preferred, so approximation error never
  compounds; a parent that cannot be reweighted falls through to a cold
  run.  Cold extendable runs capture path records (``capture_paths``) so
  their entries are eligible parents.
* ``"miss"`` — a cold run.

Every flight settles through one path.  ``_plan`` is the only code that
knows the tier: its :class:`_Plan` carries the request to run or the tally
that needs none, the job-facing provenance, the journal ``started`` fields
and the stored ``derived_from`` record.  ``_execute`` journals ``started``,
runs only when the plan holds no tally, stores the result with one ``put``
and settles every rider.  A failed run, reweight or put fails the flight in
every tier: nothing is acknowledged ``done`` without a fetchable result,
and a failed put never re-runs the simulation.  ``max_attempts`` retries a
run that raised (``_RETRY_BACKOFF`` seconds, doubled per attempt), and
``job_timeout`` fails a flight over its wall budget (the abandoned run
finishes on a daemon thread and is discarded).

Job lifecycle: ``queued → running → done | failed | cancelled``; a flight
whose every rider cancels before it starts is cancelled.  Transitions are
metered into :mod:`repro.observe`.

Crash safety (optional): given a :class:`~repro.service.journal.JobJournal`,
every transition is journaled durably *before* it is acknowledged, each
flight checkpoints under the journal's ``checkpoints/<fingerprint>/``, and a
restarted manager replays the journal — queued jobs re-enqueue, interrupted
ones resume bit-identically from their checkpoint.  Exact hits at
submission are terminal, so not journaled.  Requests the wire cannot
express are journaled without a payload and fail on replay rather than
re-simulate wrong.
"""

from __future__ import annotations

import heapq
import itertools
import shutil
import threading
import time
import uuid
from concurrent import futures
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..api import RunRequest
from ..core.tally import Tally
from ..distributed.checkpoint import CheckpointError, CheckpointManager
from ..observe import Telemetry
from ..perturb import PerturbationDelta, PerturbationError, derive_tally
from .fingerprint import (
    derivation_basis,
    perturbable_coefficients,
    physics_fingerprint,
    request_fingerprint,
)
from .journal import JobJournal, OpenJob
from .store import ResultStore

__all__ = ["Job", "JobManager", "JobState", "JobTimeout", "PRIORITIES"]

#: Priority classes, lower number dispatches first.
PRIORITIES = {"high": 0, "normal": 1, "low": 2}
_PRIORITY_NAMES = {v: k for k, v in PRIORITIES.items()}

#: Seconds before the first retry of a failed run; doubled per attempt and
#: capped at ``_RETRY_CAP``.
_RETRY_BACKOFF = 0.5
_RETRY_CAP = 30.0


class JobTimeout(RuntimeError):
    """A flight exceeded the manager's ``job_timeout`` wall budget."""


class JobState:
    """The five job states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


@dataclass
class Job:
    """One submission: identity, state and (eventually) a result."""

    id: str
    fingerprint: str
    request: RunRequest | None
    state: str = JobState.QUEUED
    priority: int = PRIORITIES["normal"]
    coalesced: bool = False
    recovered: bool = False
    #: How the cache served this job: ``"exact"`` (stored result returned
    #: as-is), ``"prefix"`` (a smaller-budget entry was extended by a delta
    #: run), ``"derived"`` (reweighted from a same-basis cached parent,
    #: zero photons simulated), or ``"miss"`` (simulated from scratch).
    cache: str = "miss"
    #: Fingerprint of the cached entry a prefix extension or derivation
    #: started from.
    base_fingerprint: str | None = None
    #: Photons actually simulated by the delta run of a prefix extension.
    delta_photons: int | None = None
    #: The perturbation delta of a ``"derived"`` job
    #: (:meth:`~repro.perturb.PerturbationDelta.as_dict` form).
    perturbation: dict | None = None
    error: str | None = None
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    tally: Tally | None = None
    _done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def cache_hit(self) -> bool:
        """Whether the stored result was returned as-is."""
        return self.cache == "exact"

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job settles; False on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> Tally:
        """The job's tally, blocking until it settles.

        Raises ``TimeoutError`` if the job does not settle in time and
        ``RuntimeError`` if it failed or was cancelled.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} did not settle in {timeout}s")
        if self.state != JobState.DONE:
            raise RuntimeError(f"job {self.id} {self.state}: {self.error or ''}")
        assert self.tally is not None
        return self.tally

    def as_dict(self) -> dict:
        """JSON-serialisable view (the HTTP status payload)."""
        out = {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "priority": _PRIORITY_NAMES.get(self.priority, str(self.priority)),
            "cache_hit": self.cache_hit,
            "cache": self.cache,
            "coalesced": self.coalesced,
            "recovered": self.recovered,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }
        if self.base_fingerprint is not None:
            out["base_fingerprint"] = self.base_fingerprint
            if self.perturbation is not None:
                out["perturbation"] = self.perturbation
            else:
                out["delta_photons"] = self.delta_photons
        return out

    # -- transitions (called by the manager) ----------------------------------
    def _complete(self, plan: "_Plan") -> None:
        """Done, with the plan's result and provenance."""
        self.tally, self.cache = plan.tally, plan.cache
        self.base_fingerprint = plan.base_fingerprint
        self.delta_photons, self.perturbation = plan.delta_photons, plan.perturbation
        self._finish(JobState.DONE)

    def _finish(self, state: str, error: str | None = None) -> None:
        self.state, self.error, self.finished = state, error, time.time()
        self._done.set()


@dataclass(eq=False)
class _Flight:
    """One in-flight simulation and the jobs riding on it."""

    fingerprint: str
    request: RunRequest
    priority: int = 1
    #: Physics fingerprint (budget-independent); ``None`` when the request
    #: is not eligible for prefix extension or chaining.
    physics: str | None = None
    #: Derivation basis (coefficient-independent); ``None`` when the
    #: request is not eligible for perturbation derivation.
    basis: str | None = None
    jobs: list[Job] = field(default_factory=list)
    #: Flights with the same physics and a larger budget — or the same
    #: derivation basis and an equal budget — parked until this flight
    #: settles (see ``JobManager._release_chained``).
    chained: list["_Flight"] = field(default_factory=list)
    started: bool = False
    started_at: float | None = None
    cancelled: bool = False


@dataclass
class _Plan:
    """How a flight is served: the one value that names its cache tier."""

    cache: str = "miss"  # "exact" | "prefix" | "derived" | "miss"
    #: The request to run; ``None`` when ``tally`` already answers.
    request: RunRequest | None = None
    tally: Tally | None = None
    #: Job-facing provenance, copied onto every rider: the prefix base or
    #: derivation parent, the photons a prefix delta run simulates, and a
    #: derivation's ``PerturbationDelta.as_dict()``.
    base_fingerprint: str | None = None
    delta_photons: int | None = None
    perturbation: dict | None = None
    #: Extra fields of each rider's journal ``started`` record.
    started: dict = field(default_factory=dict)
    #: The stored entry's ``derived_from`` provenance, and whether it was
    #: reweighted rather than simulated (the store's ``derived`` flag).
    derived_from: dict | None = None
    derived: bool = False


class JobManager:
    """Submit/track/cancel simulation jobs with caching and coalescing.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore` answering repeats from disk.
    max_workers:
        Simulations running concurrently.
    journal:
        A :class:`~repro.service.journal.JobJournal` (or its directory
        path) making job state durable; the constructor replays it, so
        jobs interrupted by a crash are re-enqueued/resumed immediately.
    max_attempts:
        Total attempts of a flight whose run raises, sleeping
        ``_RETRY_BACKOFF * 2**(attempt-1)`` seconds (cap ``_RETRY_CAP``) in
        between.  Only the run is retried: a failed ``put`` fails at once.
    job_timeout:
        Wall-clock budget per flight attempt; exceeding it fails the job
        with :class:`JobTimeout` (no retry — a timeout is not transient).
    capture_paths:
        Capture path records on cold extendable runs (the default), making
        their stored entries eligible perturbation parents.  ``False``
        disables capture and derivation chaining; an explicit
        ``RunRequest.capture_paths`` is honoured either way.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        *,
        max_workers: int = 2,
        telemetry: Telemetry | None = None,
        runner=None,
        journal: JobJournal | str | Path | None = None,
        max_attempts: int = 1,
        job_timeout: float | None = None,
        capture_paths: bool = True,
    ) -> None:
        if max_workers <= 0:
            raise ValueError(f"max_workers must be > 0, got {max_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0 or None, got {job_timeout}")
        self.store = store
        #: Always present: metrics accumulate even with a Null event sink,
        #: so ``/v1/metrics`` works out of the box.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if store is not None and store.telemetry is None:
            store.telemetry = self.telemetry
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self.journal = journal
        if journal is not None and journal.telemetry is None:
            journal.telemetry = self.telemetry
        self.max_attempts = max_attempts
        self.job_timeout = job_timeout
        self.capture_paths = capture_paths
        self._runner = runner if runner is not None else self._default_runner
        self._executor = futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._flights: dict[str, _Flight] = {}
        self._pending: list[tuple[int, int, _Flight]] = []  # priority heap
        self._seq = itertools.count()
        self._idle = threading.Condition(self._lock)  # notified per settled flight
        self._closed = False
        self._draining = False
        if self.journal is not None:
            self._recover()

    # -------------------------------------------------------------- lifecycle
    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running flights.

        Idempotent: the second and later calls return immediately.  With
        ``wait=True`` the worker threads are joined, so tests can never
        leak a ``repro-service`` thread into the next case.  Queued jobs
        are cancelled locally but — when a journal is attached — their
        ``submitted`` records remain, so a restarted manager replays them.
        The store's index is snapshotted last, after the journal closes.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=True)
        with self._lock:
            flights = list(self._flights.values())
            self._flights.clear()
            self._pending.clear()
            self._idle.notify_all()
        for flight in flights:
            if not flight.started:
                for job in flight.jobs:
                    job._finish(JobState.CANCELLED)
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.close()

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown, phase one: stop admitting, let flights finish.

        Returns ``True`` when every flight settled within ``timeout``.
        Flights still running when the timeout expires keep their journal
        ``started`` records and their checkpoint directories, so the next
        process resumes them from the latest checkpoint rather than from
        photon zero.  Call :meth:`close` afterwards either way.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._draining = True
            while self._flights or self._pending:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ submission
    def submit(self, request: RunRequest, *, priority: str | int = "normal",
               client: str | None = None) -> Job:
        """Register a run request; returns immediately with a :class:`Job`.

        The job may already be ``done`` (cache hit), attached to an
        in-flight identical request (``coalesced``), or queued for
        execution in priority order.  With a journal attached, the job is
        durable before this method returns.
        """
        rank = self._resolve_priority(priority)
        job = Job(uuid.uuid4().hex, request_fingerprint(request), request, priority=rank)
        with self._lock:
            if self._closed or self._draining:
                raise RuntimeError(
                    "JobManager is draining" if self._draining else "JobManager is closed"
                )
            self._jobs[job.id] = job
        self.telemetry.count("service.jobs.submitted")
        hit = self._admit(job, journal=True, client=client)
        self.telemetry.count("service.cache.hits" if hit else "service.cache.misses")
        return job

    def _admit(self, job: Job, *, journal: bool = False, client: str | None = None) -> bool:
        """Settle a registered job from the store (``True``), or enqueue it.

        An exact hit is terminal at once: nothing to recover, not journaled.
        Otherwise ``submitted`` is journaled (when ``journal``) first.
        """
        plan = self._exact(job.fingerprint)
        if plan is not None:
            self._settle([job], plan, journal=False)
            return True
        if journal:
            payload = self._request_payload(job.request)
            self._journal_record("submitted", job.id, fingerprint=job.fingerprint,
                                 request=payload, priority=job.priority, client=client)
        self._enqueue(job)
        return False

    def _enqueue(self, job: Job) -> None:
        """Attach ``job`` to an existing flight or open (and queue) a new one."""
        request = job.request
        extendable = self._extendable(request)
        physics = physics_fingerprint(request) if extendable else None
        basis = derivation_basis(request) if extendable else None
        with self._lock:
            flight = self._flights.get(job.fingerprint)
            if flight is not None:
                job.coalesced = True
                job.state = JobState.RUNNING if flight.started else JobState.QUEUED
                job.started = flight.started_at
                flight.jobs.append(job)
                self.telemetry.count("service.coalesced")
                self._update_queue_depth()
                return
            flight = _Flight(job.fingerprint, request, job.priority, physics, basis, [job])
            self._flights[job.fingerprint] = flight
            base = self._chain_base(flight)
            if base is not None:
                # Same physics, smaller budget already in flight: wait for
                # it instead of racing it cold — when it settles (and its
                # result is stored) this flight is released and extends it.
                base.chained.append(flight)
                self.telemetry.count("service.chained")
                self._update_queue_depth()
                return
            heapq.heappush(self._pending, (flight.priority, next(self._seq), flight))
            self._update_queue_depth()
        # One pool slot per pending flight; each slot runs the *highest
        # priority* flight pending at the moment it frees up.
        self._executor.submit(self._run_next)

    def _extendable(self, request: RunRequest) -> bool:
        """Can this request participate in prefix extension / chaining?"""
        return (
            self.store is not None
            and request.mode == "local"
            and request.task_range is None
            and request.frontier is None
        )

    def _chain_base(self, flight: _Flight) -> "_Flight | None":
        """The best in-flight base for ``flight`` to wait on (lock held).

        Prefers the largest strictly-smaller budget with the same physics
        (budget chain, the released flight prefix-extends it); otherwise,
        when cold runs capture path records, any equal-budget flight with
        the same derivation basis (derivation chain, the released flight
        reweights it).  ``None`` when nothing qualifies — the flight then
        runs independently.
        """
        if flight.physics is None:
            return None
        n = flight.request.n_photons
        others = [f for f in self._flights.values() if f is not flight and not f.cancelled]
        smaller = [
            f for f in others if f.physics == flight.physics and f.request.n_photons < n
        ]
        if smaller:
            return max(smaller, key=lambda f: f.request.n_photons)
        if not self.capture_paths:
            return None
        return next(
            (f for f in others if f.basis == flight.basis and f.request.n_photons == n), None
        )

    def _release_chained(self, flight: _Flight) -> None:
        """Queue the flights parked behind ``flight`` (call without lock)."""
        with self._lock:
            chained, flight.chained = flight.chained, []
            if self._closed:
                return  # close() cancels their riders via its flight sweep
            for waiter in chained:
                heapq.heappush(self._pending, (waiter.priority, next(self._seq), waiter))
        for _ in chained:
            try:
                self._executor.submit(self._run_next)
            except RuntimeError:  # raced close(): riders cancelled there
                return

    def _resolve_priority(self, priority: str | int) -> int:
        if isinstance(priority, int):
            return priority
        try:
            return PRIORITIES[priority]
        except KeyError:
            raise ValueError(
                f"unknown priority {priority!r}; choose from {sorted(PRIORITIES)}"
            ) from None

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def queue_depth(self) -> int:
        """Jobs not yet settled (queued + running, riders included)."""
        with self._lock:
            return sum(len(f.jobs) for f in self._flights.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel one job; True if it was still cancellable.

        A coalesced job detaches from its flight without disturbing the
        other riders.  When the last rider of a not-yet-started flight
        cancels, the flight itself is cancelled.
        """
        released: _Flight | None = None
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in JobState.TERMINAL:
                return False
            flight = self._flights.get(job.fingerprint)
            if flight is not None and job in flight.jobs:
                flight.jobs.remove(job)
                if not flight.jobs:
                    flight.cancelled = True
                    if not flight.started:
                        self._flights.pop(job.fingerprint, None)
                        self._idle.notify_all()
                        released = flight
            job._finish(JobState.CANCELLED)
            self._update_queue_depth()
        if released is not None:
            self._release_chained(released)
        self._journal_record("cancelled", job_id)
        self.telemetry.count("service.jobs.cancelled")
        return True

    # --------------------------------------------------------------- recovery
    def _recover(self) -> None:
        """Replay the journal: re-enqueue open jobs, resume interrupted ones."""
        open_jobs = self.journal.replay()
        if not open_jobs:
            self._journal_compact()
            return
        from .http import request_from_json  # lazy: http imports this module

        for entry in open_jobs:
            request, error = None, "not recoverable: request not journalable"
            if entry.request is not None:
                try:
                    request = request_from_json(entry.request)
                except ValueError as exc:
                    error = f"not recoverable: {exc}"
            if request is not None and request_fingerprint(request) != entry.fingerprint:
                # Canonicalization rules moved underneath the journal
                # (version bump): refuse rather than file the result under
                # a stale address.
                request, error = None, "not recoverable: fingerprint drift"
            job = Job(entry.job_id, entry.fingerprint, request, priority=entry.priority,
                      recovered=True, created=entry.submitted_ts or time.time())
            with self._lock:
                self._jobs[job.id] = job
            if request is None:
                job._finish(JobState.FAILED, error)
                self.telemetry.count("service.journal.unrecoverable")
                continue
            self._admit(job)  # a store hit: the crash lost only the acknowledgement
            self.telemetry.count("service.recovered")
        self._journal_compact()

    def _journal_record(self, event: str, job_id: str, **fields) -> None:
        if self.journal is not None:
            self.journal.record(event, job_id, **fields)

    def _journal_compact(self) -> None:
        """Rewrite the journal to the currently open jobs (atomic)."""
        if self.journal is None:
            return
        with self._lock:
            open_jobs = [
                OpenJob(job.id, job.fingerprint, self._request_payload(job.request),
                        job.priority, submitted_ts=job.created, was_running=flight.started)
                for flight in self._flights.values()
                for job in flight.jobs
            ]
        self.journal.compact(open_jobs)

    @staticmethod
    def _request_payload(request: RunRequest | None) -> dict | None:
        if request is None:
            return None
        from .http import request_to_json  # lazy: http imports this module

        return request_to_json(request)

    # ------------------------------------------------------------- execution
    @staticmethod
    def _default_runner(request: RunRequest):
        # The full RunReport, so the captured frontier reaches the store.
        from .. import api

        return api.run(request)

    def _run_next(self) -> None:
        """Pool entry point: execute the highest-priority pending flight.

        A flight cancelled while queued is retired unrun, and this slot
        serves the next pending flight, if any.
        """
        while True:
            with self._lock:
                if not self._pending:
                    return
                _, _, flight = heapq.heappop(self._pending)
            if self._execute(flight):
                return

    def _checkpointed(self, request: RunRequest, fingerprint: str) -> RunRequest:
        """Attach the flight's durable checkpoint directory (journal mode)."""
        if self.journal is None or request.checkpoint is not None:
            return request
        manager = CheckpointManager(self.journal.checkpoint_dir(fingerprint))
        return replace(request, checkpoint=manager, resume=manager.exists)

    def _run_once(self, request: RunRequest):
        """One runner attempt, bounded by ``job_timeout`` when set.

        Returns whatever the runner returns (a RunReport or a bare Tally).
        """
        if self.job_timeout is None:
            return self._runner(request)
        attempt: futures.Future = futures.Future()

        def target() -> None:
            try:
                attempt.set_result(self._runner(request))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                attempt.set_exception(exc)

        threading.Thread(target=target, name="repro-job", daemon=True).start()
        if not futures.wait([attempt], self.job_timeout).done:
            # The abandoned attempt finishes on its daemon thread and is
            # discarded; with a journal its checkpoints survive for resume.
            self.telemetry.count("service.jobs.timeout")
            raise JobTimeout(f"flight exceeded job_timeout={self.job_timeout}s")
        return attempt.result()

    def _run(self, flight: _Flight, request: RunRequest):
        """Run a flight's request with retries; returns ``(tally, frontier)``.

        The last failure propagates.  A ``CheckpointError`` means the
        durable checkpoint belongs to a different decomposition (e.g. an
        execution knob outside the fingerprint changed, or the extension
        base moved since the crash): it is wiped once and the flight
        restarts without spending an attempt.  A :class:`JobTimeout` is a
        wall-budget overrun, not a transient fault: it is never retried.
        """
        if request.telemetry is None:
            # Attach the service telemetry so kernel/dispatch spans and
            # photon counters land in the same registry as the service
            # metrics (a request carrying its own telemetry keeps it).
            request = replace(request, telemetry=self.telemetry)
        wiped_stale_checkpoint = False
        attempt = 1
        while True:
            try:
                out = self._run_once(self._checkpointed(request, flight.fingerprint))
            except CheckpointError:
                if self.journal is None or wiped_stale_checkpoint:
                    raise CheckpointError("stale checkpoint") from None
                wiped_stale_checkpoint = True
                self.telemetry.count("service.journal.stale_checkpoints")
                shutil.rmtree(
                    self.journal.checkpoint_dir(flight.fingerprint),
                    ignore_errors=True,
                )
                continue
            except Exception as exc:
                with self._lock:
                    aborting = self._closed or flight.cancelled
                if isinstance(exc, JobTimeout) or aborting or attempt >= self.max_attempts:
                    raise
                self.telemetry.count("service.jobs.retried")
                time.sleep(min(_RETRY_BACKOFF * 2 ** (attempt - 1), _RETRY_CAP))
                attempt += 1
                continue
            # Custom runners may return a bare Tally: such results carry
            # no frontier, so they just aren't budget-extendable.
            return getattr(out, "tally", out), getattr(out, "frontier", None)

    def _exact(self, fingerprint: str) -> _Plan | None:
        """An exact-hit plan when the store holds this address."""
        tally = self.store.get(fingerprint) if self.store is not None else None
        return None if tally is None else _Plan(cache="exact", tally=tally)

    def _plan(self, flight: _Flight) -> _Plan:
        """Decide how to serve a flight: exact → prefix → derived → miss.

        The only code that knows the cache tier.  It runs at execute time,
        not at submission, so a flight released from a chain sees the entry
        its base just stored (or one another process stored meanwhile).  A
        cold extendable run captures its frontier (and, per
        ``capture_paths``, path records) to seed later extensions and
        derivations.
        """
        if flight.physics is None:
            return _Plan(request=flight.request)
        plan = self._exact(flight.fingerprint)
        if plan is not None:
            self.telemetry.count("service.cache.hits")
            return plan
        plan = self._plan_prefix(flight) or self._plan_derivation(flight)
        if plan is not None:
            return plan
        cold = replace(flight.request, capture_frontier=True)
        if self.capture_paths and not cold.capture_paths:
            cold = replace(cold, capture_paths=True)
        return _Plan(request=cold)

    def _plan_prefix(self, flight: _Flight) -> _Plan | None:
        """A delta-run plan extending a smaller cached budget, or ``None``."""
        hit = self.store.best_prefix(flight.physics, flight.request.n_photons)
        if hit is None:
            return None
        fp, cached_photons, _frontier_tasks = hit
        frontier = self.store.get_frontier(fp)
        covered = frontier.prefix_tasks if frontier is not None else 0
        if covered <= 0:
            return None
        task_size = flight.request.resolved_task_size()
        delta = flight.request.n_photons - covered * task_size
        self.telemetry.count("service.prefix.hits")
        self.telemetry.count("service.prefix.delta_photons", delta)
        self.telemetry.count("service.prefix.photons_saved", covered * task_size)
        # The primed frontier spans carry no path records, so the merged
        # tally cannot either (all-or-nothing): skip the capture cost on the
        # delta tasks.
        request = replace(flight.request, frontier=frontier, capture_frontier=True,
                          capture_paths=False)
        derived_from = dict(base_fingerprint=fp, base_n_photons=cached_photons,
                            delta_photons=delta)
        return _Plan("prefix", request, base_fingerprint=fp, delta_photons=delta,
                     started={"cache": "prefix", **derived_from}, derived_from=derived_from)

    def _plan_derivation(self, flight: _Flight) -> _Plan | None:
        """A reweighting plan from a same-basis cached parent, or ``None``.

        Every failure mode — parent evicted between index lookup and load,
        records missing, foreign coefficients — returns ``None`` and the
        flight falls through to a cold run: auto-derivation is an
        optimisation, never a correctness gate.
        """
        if flight.basis is None:
            return None
        hit = self.store.best_derivation(
            flight.basis, flight.request.n_photons, exclude=flight.fingerprint
        )
        if hit is None:
            return None
        parent_fp, parent_coeffs, parent_derived = hit
        try:
            delta = PerturbationDelta.between(
                parent_coeffs, perturbable_coefficients(flight.request)
            )
        except (KeyError, TypeError, ValueError):
            return None  # degenerate/foreign coefficients: run cold
        parent = self.store.get(parent_fp, paths=True)
        if parent is None:
            return None
        try:
            tally = derive_tally(parent, delta, mu_s=parent_coeffs.get("mu_s"))
        except PerturbationError:
            return None
        self.telemetry.count("service.derivation.hits")
        self.telemetry.count("service.derivation.photons_saved", flight.request.n_photons)
        perturbation = delta.as_dict()
        return _Plan(
            "derived", tally=tally, base_fingerprint=parent_fp, perturbation=perturbation,
            started=dict(cache="derived", base_fingerprint=parent_fp,
                         perturbation=perturbation),
            derived_from=dict(parent_fingerprint=parent_fp, perturbation=perturbation,
                              parent_derived=parent_derived),
            derived=True,
        )

    def _execute(self, flight: _Flight) -> bool:
        """Serve one flight, the same way in every tier.

        Returns ``False`` when the flight was cancelled before it started.
        An exact hit is already stored and has nothing to recover, so it
        skips the ``started`` record and the put; any failure on the way
        fails the flight.
        """
        with self._lock:
            started = not flight.cancelled
            if started:
                flight.started = True
                flight.started_at = now = time.time()
                riders = list(flight.jobs)
                for job in riders:
                    job.state = JobState.RUNNING
                    job.started = now
        if not started:
            self._retire(flight)
            return False
        t0 = time.perf_counter()
        plan = self._plan(flight)
        exact = plan.cache == "exact"  # already stored, nothing to recover
        error: str | None = None
        try:
            if not exact:
                for job in riders:
                    self._journal_record("started", job.id, **plan.started)
            frontier = None
            if plan.tally is None:
                plan.tally, frontier = self._run(flight, plan.request)
            if not exact and self.store is not None:
                provenance = flight.request.provenance()
                if plan.derived_from is not None:
                    provenance["derived_from"] = plan.derived_from
                extendable = flight.physics is not None  # so is flight.basis
                self.store.put(
                    flight.fingerprint, plan.tally, provenance, frontier=frontier,
                    physics=flight.physics, basis=flight.basis, derived=plan.derived,
                    n_photons=flight.request.n_photons if extendable else None,
                    coefficients=(
                        perturbable_coefficients(flight.request) if extendable else None
                    ),
                )
        except Exception as exc:  # noqa: BLE001 - failures settle the job
            error = f"{type(exc).__name__}: {exc}"
        if error is None and plan.tally is None:
            error = "no result"
        self._retire(flight, plan, error)
        if error is None and self.journal is not None:
            # The run is durable in the store; its checkpoints are spent.
            shutil.rmtree(
                self.journal.checkpoint_dir(flight.fingerprint), ignore_errors=True
            )
        if self.journal is not None and self.journal.size() > self.journal.max_bytes:
            self._journal_compact()
        self.telemetry.observe("service.job.seconds", time.perf_counter() - t0)
        if error is not None:
            self.telemetry.count("service.jobs.failed")
        return True

    def _retire(self, flight: _Flight, plan: _Plan | None = None, error=None) -> None:
        """Forget a flight, settle its riders from ``plan``, release its chain.

        A flight cancelled before it started has no riders and no plan.
        """
        with self._lock:
            if self._flights.get(flight.fingerprint) is flight:
                del self._flights[flight.fingerprint]
            riders = list(flight.jobs)
            self._update_queue_depth()
            self._idle.notify_all()
        if plan is not None:
            self._settle(riders, plan, error)
        self._release_chained(flight)

    def _settle(self, riders: list[Job], plan: _Plan, error=None, *, journal=True) -> None:
        """Settle every unsettled rider, the same way in every tier.

        The terminal event is journaled *before* the waiter is released: an
        acknowledgement a client can observe must already be durable.  The
        finally keeps a journal I/O failure from stranding the waiter.
        """
        for job in riders:
            if job.state in JobState.TERMINAL:
                continue
            try:
                if journal:
                    self._journal_record("done" if error is None else "failed", job.id)
            finally:
                if error is None:
                    job._complete(plan)
                else:
                    job._finish(JobState.FAILED, error)

    def _update_queue_depth(self) -> None:
        # Callers hold self._lock; gauge = jobs not yet settled.
        depth = sum(len(f.jobs) for f in self._flights.values())
        self.telemetry.registry.gauge("service.queue.depth").set(depth)
