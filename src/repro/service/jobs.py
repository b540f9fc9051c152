"""Async job manager: dedup, coalesce, execute with bounded concurrency.

The paper's platform answers one question per campaign; a *serving* system
faces many callers asking overlapping questions concurrently.  The
:class:`JobManager` is the piece that exploits determinism at submission
time:

1. **Cache check** — the request's fingerprint is looked up in the
   :class:`~repro.service.store.ResultStore`; a hit completes the job
   immediately, no simulation.
2. **Coalescing** — if an identical request is already *in flight*, the new
   submission attaches to the running flight instead of starting a second
   simulation: N concurrent identical submissions cost exactly one run, and
   every attached job receives the same result.
3. **Prefix extension** — a cache-cold request whose *physics* (everything
   but ``n_photons``) matches a stored smaller-budget entry does not start
   from photon zero: the flight primes the cached archive's reduction
   frontier into its reducer and simulates only the missing tasks.  The
   extended tally is bit-identical to a from-scratch run (task RNG streams
   are keyed by ``(seed, task_index)``), so it is stored and served exactly
   as a cold result would be.  Jobs report how they were served via
   ``Job.cache`` (``"exact"`` / ``"prefix"`` / ``"derived"`` / ``"miss"``).
4. **Derivation** — a request that differs from a cached entry *only in
   the perturbable optical coefficients* (per-layer μa/μs; same
   :func:`~repro.service.fingerprint.derivation_basis`, same budget) is
   answered by **reweighting** the cached parent's path records
   (:mod:`repro.perturb`) — zero photons simulated.  The derived tally is
   stored under the request's own fingerprint (``derived_from`` +
   perturbation delta in its provenance, ``derived=True`` in the index) so
   repeats are exact hits and it can itself seed further derivations —
   though simulation-born parents are always preferred, so scattering
   approximation error never compounds.  Any load/reweight failure falls
   through to a cold run: auto-derivation is an optimisation, never a
   correctness gate (the fail-closed path is
   :func:`repro.perturb.derive_from_archive`).  Cold extendable runs
   capture path records by default (``capture_paths=True`` on the
   manager) so their stored entries are eligible parents.
5. **Budget chaining** — a queued flight whose physics matches a smaller
   in-flight budget waits for that flight instead of racing it cold: when
   the base settles, the chained flight is released and (on success) finds
   the freshly stored entry as its extension base, so concurrent
   escalating budgets cost one full run plus deltas.  Flights whose
   *derivation basis* matches an in-flight equal-budget run chain the
   same way: the parent simulates once, the waiters each derive.
6. **Execution** — remaining work runs through the :func:`repro.api.run`
   facade on a bounded thread pool (each run may itself fan out over its
   own process/thread backend), in priority order (``high`` before
   ``normal`` before ``low``; FIFO within a class).

Job lifecycle: ``queued → running → done | failed | cancelled``.  A queued
job can be cancelled; cancelling every job of a flight cancels the flight
(if it has not started).  All state transitions are metered into
:mod:`repro.observe` — cache hits/misses, coalesced submissions, a
queue-depth gauge and a job-latency histogram.

Crash safety (optional)
-----------------------
Given a :class:`~repro.service.journal.JobJournal`, every transition is
journaled durably *before* it is acknowledged, each flight checkpoints its
tasks under the journal's ``checkpoints/<fingerprint>/`` directory (via
:mod:`repro.distributed.checkpoint`), and a restarted manager **replays**
the journal: queued jobs are re-enqueued, and jobs that were running when
the process died resume from their latest checkpoint — the recovered tally
is bit-identical to an uninterrupted run, because checkpoint resume is.
Cache hits are not journaled (they are terminal at submission; there is
nothing to recover).  Requests the wire cannot express (explicit
``config``, custom ``records``, ``sub_batch``, non-local mode) are
journaled without a request payload and marked failed on replay rather
than silently re-simulated wrong.

Resilience knobs: ``max_attempts``/``retry_backoff`` retry a flight whose
run raised (transient worker failures), and ``job_timeout`` fails a flight
that exceeds its wall budget (the abandoned run finishes on a daemon
thread and is discarded).
"""

from __future__ import annotations

import heapq
import itertools
import shutil
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
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
    cache_hit: bool = False
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

    # -- transitions (called by the manager, under its lock) -----------------
    def _complete(self, tally: Tally, *, cache_hit: bool = False) -> None:
        self.tally = tally
        self.cache_hit = cache_hit
        if cache_hit:
            self.cache = "exact"
        self.state = JobState.DONE
        self.finished = time.time()
        self._done.set()

    def _fail(self, error: str) -> None:
        self.error = error
        self.state = JobState.FAILED
        self.finished = time.time()
        self._done.set()

    def _cancel(self) -> None:
        self.state = JobState.CANCELLED
        self.finished = time.time()
        self._done.set()


class _Flight:
    """One in-flight simulation and the jobs riding on it."""

    def __init__(
        self,
        fingerprint: str,
        request: RunRequest,
        priority: int = 1,
        physics: str | None = None,
        basis: str | None = None,
    ) -> None:
        self.fingerprint = fingerprint
        self.request = request
        self.priority = priority
        #: Physics fingerprint (budget-independent); ``None`` when the
        #: request is not eligible for prefix extension or chaining.
        self.physics = physics
        #: Derivation basis (coefficient-independent); ``None`` when the
        #: request is not eligible for perturbation derivation.
        self.basis = basis
        self.jobs: list[Job] = []
        #: Flights with the same physics and a larger budget — or the same
        #: derivation basis and an equal budget — parked until this flight
        #: settles (see ``JobManager._release_chained``).
        self.chained: list["_Flight"] = []
        self.started = False
        self.started_at: float | None = None
        self.cancelled = False


@dataclass
class _Plan:
    """How ``_execute`` should serve a flight (decided at execute time)."""

    run_request: RunRequest
    #: Non-None: the flight settles without running (exact or derived).
    tally: Tally | None = None
    cache: str = "miss"  # "exact" | "prefix" | "derived" | "miss"
    #: Prefix-extension base or derivation parent.
    base_fingerprint: str | None = None
    base_n_photons: int | None = None
    delta_photons: int | None = None
    #: ``PerturbationDelta.as_dict()`` of a derived plan.
    perturbation: dict | None = None
    #: Whether the derivation parent was itself derived (provenance detail).
    parent_derived: bool = False


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
    max_attempts / retry_backoff:
        A flight whose run raises is retried up to ``max_attempts`` total
        attempts, sleeping ``retry_backoff * 2**(attempt-1)`` seconds (cap
        30 s) in between — transient worker failures don't fail jobs.
    job_timeout:
        Wall-clock budget per flight attempt; exceeding it fails the job
        with :class:`JobTimeout` (no retry — a timeout is not transient).
    capture_paths:
        Capture per-detected-photon path records on cold extendable runs
        (the default), making their stored entries eligible perturbation
        parents.  ``False`` disables capture — and with it derivation
        chaining — for memory/storage-constrained deployments; explicit
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
        retry_backoff: float = 0.5,
        job_timeout: float | None = None,
        capture_paths: bool = True,
    ) -> None:
        if max_workers <= 0:
            raise ValueError(f"max_workers must be > 0, got {max_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
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
        self.retry_backoff = retry_backoff
        self.job_timeout = job_timeout
        self.capture_paths = capture_paths
        self._runner = runner if runner is not None else self._default_runner
        self._executor = ThreadPoolExecutor(
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
                    job._cancel()
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
    def submit(
        self,
        request: RunRequest,
        *,
        priority: str | int = "normal",
        client: str | None = None,
    ) -> Job:
        """Register a run request; returns immediately with a :class:`Job`.

        The job may already be ``done`` (cache hit), attached to an
        in-flight identical request (``coalesced``), or queued for
        execution in priority order.  With a journal attached, the job is
        durable before this method returns.
        """
        rank = self._resolve_priority(priority)
        fingerprint = request_fingerprint(request)
        job = Job(
            id=uuid.uuid4().hex,
            fingerprint=fingerprint,
            request=request,
            priority=rank,
        )
        with self._lock:
            if self._closed or self._draining:
                raise RuntimeError(
                    "JobManager is draining" if self._draining else "JobManager is closed"
                )
            self._jobs[job.id] = job
        self.telemetry.count("service.jobs.submitted")

        if self.store is not None:
            tally = self.store.get(fingerprint)
            if tally is not None:
                # Terminal at submission: nothing to recover, not journaled.
                job._complete(tally, cache_hit=True)
                self.telemetry.count("service.cache.hits")
                return job
        self.telemetry.count("service.cache.misses")

        self._journal_record(
            "submitted",
            job.id,
            fingerprint=fingerprint,
            request=self._request_payload(request),
            priority=rank,
            client=client,
        )
        self._enqueue(job, request)
        return job

    def _enqueue(self, job: Job, request: RunRequest) -> None:
        """Attach ``job`` to an existing flight or open (and queue) a new one."""
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
            flight = _Flight(
                job.fingerprint,
                request,
                priority=job.priority,
                physics=physics,
                basis=basis,
            )
            flight.jobs.append(job)
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
        best = None
        peer = None
        for other in self._flights.values():
            if other is flight or other.cancelled:
                continue
            if (
                other.physics == flight.physics
                and other.request.n_photons < flight.request.n_photons
            ):
                if best is None or other.request.n_photons > best.request.n_photons:
                    best = other
            elif (
                peer is None
                and self.capture_paths
                and flight.basis is not None
                and other.basis == flight.basis
                and other.request.n_photons == flight.request.n_photons
            ):
                peer = other
        return best if best is not None else peer

    def _release_chained(self, flight: _Flight) -> None:
        """Queue the flights parked behind ``flight`` (call without lock)."""
        with self._lock:
            chained, flight.chained = flight.chained, []
            if self._closed:
                return  # close() cancels their riders via its flight sweep
            for waiter in chained:
                heapq.heappush(
                    self._pending, (waiter.priority, next(self._seq), waiter)
                )
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
            job._cancel()
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
            request = None
            error = None
            if entry.request is None:
                error = "not recoverable: request not journalable"
            else:
                try:
                    request = request_from_json(entry.request)
                except ValueError as exc:
                    error = f"not recoverable: {exc}"
            if request is not None and request_fingerprint(request) != entry.fingerprint:
                # Canonicalization rules moved underneath the journal
                # (version bump): refuse rather than file the result under
                # a stale address.
                request, error = None, "not recoverable: fingerprint drift"
            job = Job(
                id=entry.job_id,
                fingerprint=entry.fingerprint,
                request=request,
                priority=entry.priority,
                recovered=True,
                created=entry.submitted_ts or time.time(),
            )
            with self._lock:
                self._jobs[job.id] = job
            if request is None:
                job._fail(error)
                self.telemetry.count("service.journal.unrecoverable")
                continue
            if self.store is not None:
                tally = self.store.get(entry.fingerprint)
                if tally is not None:
                    # The crash lost the acknowledgement, not the result.
                    job._complete(tally, cache_hit=True)
                    self.telemetry.count("service.recovered")
                    continue
            self._enqueue(job, request)
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
                OpenJob(
                    job_id=job.id,
                    fingerprint=job.fingerprint,
                    request=self._request_payload(job.request),
                    priority=job.priority,
                    submitted_ts=job.created,
                    was_running=flight.started,
                )
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
        # Returns the full RunReport so the captured frontier travels with
        # the tally into the store.  Custom runners may still return a bare
        # Tally; _execute accepts either (such results just aren't
        # budget-extendable).
        from .. import api

        return api.run(request)

    def _run_next(self) -> None:
        """Pool entry point: execute the highest-priority pending flight."""
        while True:
            with self._lock:
                if not self._pending:
                    return
                _, _, flight = heapq.heappop(self._pending)
            if flight.cancelled:
                with self._lock:
                    self._flights.pop(flight.fingerprint, None)
                    self._update_queue_depth()
                    self._idle.notify_all()
                self._release_chained(flight)
                continue  # this slot serves the next pending flight, if any
            self._execute(flight)
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
        box: dict = {}
        done = threading.Event()

        def target() -> None:
            try:
                box["result"] = self._runner(request)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(target=target, name="repro-job", daemon=True)
        thread.start()
        if not done.wait(self.job_timeout):
            # The abandoned attempt finishes on its daemon thread and is
            # discarded; with a journal its checkpoints survive for resume.
            self.telemetry.count("service.jobs.timeout")
            raise JobTimeout(f"flight exceeded job_timeout={self.job_timeout}s")
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _plan(self, flight: _Flight) -> _Plan:
        """Decide how to serve a flight *at execute time*.

        Planning is deferred to execution (not submission) so a flight
        released from a budget or derivation chain sees the entry its base
        just stored.  Resolution order: **exact → prefix → derivation →
        miss**:

        * ``cache="exact"``: the store answered the exact address
          meanwhile (e.g. another process shares the directory) — settle
          without running.
        * ``cache="prefix"``: ``run_request`` carries the cached frontier
          and simulates only the delta tasks.
        * ``cache="derived"``: ``tally`` was reweighted from a same-basis
          cached parent — settle without running.
        * ``cache="miss"``: a cold run; extendable requests still get
          ``capture_frontier=True`` (and, per the manager's
          ``capture_paths`` knob, path capture) so the stored entry can
          seed future extensions and derivations.
        """
        if flight.physics is None:
            return _Plan(run_request=flight.request)
        exact = self.store.get(flight.fingerprint)
        if exact is not None:
            return _Plan(run_request=flight.request, tally=exact, cache="exact")
        hit = self.store.best_prefix(flight.physics, flight.request.n_photons)
        if hit is not None:
            fp, cached_photons, _frontier_tasks = hit
            frontier = self.store.get_frontier(fp)
            covered = frontier.prefix_tasks if frontier is not None else 0
            if covered > 0:
                task_size = flight.request.resolved_task_size()
                delta = flight.request.n_photons - covered * task_size
                run_request = replace(
                    flight.request,
                    frontier=frontier,
                    capture_frontier=True,
                    # The primed frontier spans carry no path records, so
                    # the merged tally cannot either (all-or-nothing):
                    # skip the capture cost on the delta tasks.
                    capture_paths=False,
                )
                self.telemetry.count("service.prefix.hits")
                self.telemetry.count("service.prefix.delta_photons", delta)
                self.telemetry.count(
                    "service.prefix.photons_saved", covered * task_size
                )
                return _Plan(
                    run_request=run_request,
                    cache="prefix",
                    base_fingerprint=fp,
                    base_n_photons=cached_photons,
                    delta_photons=delta,
                )
        derived = self._plan_derivation(flight)
        if derived is not None:
            return derived
        cold = replace(flight.request, capture_frontier=True)
        if self.capture_paths and not cold.capture_paths:
            cold = replace(cold, capture_paths=True)
        return _Plan(run_request=cold)

    def _plan_derivation(self, flight: _Flight) -> "_Plan | None":
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
        self.telemetry.count(
            "service.derivation.photons_saved", flight.request.n_photons
        )
        return _Plan(
            run_request=flight.request,
            tally=tally,
            cache="derived",
            base_fingerprint=parent_fp,
            perturbation=delta.as_dict(),
            parent_derived=parent_derived,
        )

    def _execute(self, flight: _Flight) -> None:
        with self._lock:
            cancelled = flight.cancelled
            if cancelled:
                self._flights.pop(flight.fingerprint, None)
                self._update_queue_depth()
                self._idle.notify_all()
            else:
                flight.started = True
                flight.started_at = now = time.time()
                job_ids = [job.id for job in flight.jobs]
                for job in flight.jobs:
                    job.state = JobState.RUNNING
                    job.started = now
        if cancelled:
            self._release_chained(flight)
            return
        t0 = time.perf_counter()
        plan = self._plan(flight)
        run_request, tally = plan.run_request, plan.tally
        error: str | None = None
        exact_hit = plan.cache == "exact"
        if exact_hit:
            # Exact hit at execute time: serve from the store, no run.
            self.telemetry.count("service.cache.hits")
        elif plan.cache == "derived":
            # Reweighted from a cached parent: no run.  The derived entry
            # is stored under this flight's own fingerprint so repeats are
            # exact hits; a store failure only costs the caching, never
            # the (already computed) result.
            for job_id in job_ids:
                self._journal_record(
                    "started",
                    job_id,
                    cache="derived",
                    base_fingerprint=plan.base_fingerprint,
                    perturbation=plan.perturbation,
                )
            if self.store is not None:
                provenance = flight.request.provenance()
                provenance["derived_from"] = {
                    "parent_fingerprint": plan.base_fingerprint,
                    "perturbation": plan.perturbation,
                    "parent_derived": plan.parent_derived,
                }
                try:
                    self.store.put(
                        flight.fingerprint,
                        tally,
                        provenance=provenance,
                        physics=flight.physics,
                        n_photons=flight.request.n_photons,
                        basis=flight.basis,
                        coefficients=perturbable_coefficients(flight.request),
                        derived=True,
                    )
                except Exception:  # noqa: BLE001 - caching is best-effort here
                    self.telemetry.count("service.derivation.store_failures")
        else:
            derivation: dict = {}
            if plan.base_fingerprint is not None:
                derivation = {
                    "cache": "prefix",
                    "base_fingerprint": plan.base_fingerprint,
                    "base_n_photons": plan.base_n_photons,
                    "delta_photons": plan.delta_photons,
                }
            for job_id in job_ids:
                self._journal_record("started", job_id, **derivation)
            wiped_stale_checkpoint = False
            attempt = 0
            while True:
                attempt += 1
                try:
                    request = self._checkpointed(run_request, flight.fingerprint)
                    if request.telemetry is None:
                        # Attach the service telemetry so kernel/dispatch
                        # spans and photon counters land in the same registry
                        # as the service metrics (a request carrying its own
                        # telemetry keeps it).
                        request = replace(request, telemetry=self.telemetry)
                    out = self._run_once(request)
                    tally = out.tally if hasattr(out, "tally") else out
                    frontier_out = getattr(out, "frontier", None)
                    error = None
                    if self.store is not None:
                        provenance = flight.request.provenance()
                        if plan.base_fingerprint is not None:
                            provenance["derived_from"] = {
                                "base_fingerprint": plan.base_fingerprint,
                                "base_n_photons": plan.base_n_photons,
                                "delta_photons": plan.delta_photons,
                            }
                        self.store.put(
                            flight.fingerprint,
                            tally,
                            provenance=provenance,
                            physics=flight.physics,
                            n_photons=(
                                flight.request.n_photons
                                if flight.physics is not None
                                else None
                            ),
                            frontier=frontier_out,
                            basis=flight.basis,
                            coefficients=(
                                perturbable_coefficients(flight.request)
                                if flight.basis is not None
                                else None
                            ),
                        )
                    break
                except CheckpointError:
                    # The durable checkpoint belongs to a different
                    # decomposition (e.g. an execution knob outside the
                    # fingerprint changed, or the extension base moved since
                    # the crash).  Wipe it once and restart the flight.
                    if self.journal is None or wiped_stale_checkpoint:
                        error = "CheckpointError: stale checkpoint"
                        break
                    wiped_stale_checkpoint = True
                    attempt -= 1
                    self.telemetry.count("service.journal.stale_checkpoints")
                    shutil.rmtree(
                        self.journal.checkpoint_dir(flight.fingerprint),
                        ignore_errors=True,
                    )
                except JobTimeout as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    break  # a wall-budget overrun is not transient: no retry
                except Exception as exc:  # noqa: BLE001 - failures settle the job
                    error = f"{type(exc).__name__}: {exc}"
                    with self._lock:
                        aborting = self._closed or flight.cancelled
                    if attempt >= self.max_attempts or aborting:
                        break
                    self.telemetry.count("service.jobs.retried")
                    time.sleep(min(self.retry_backoff * 2 ** (attempt - 1), 30.0))
        with self._lock:
            self._flights.pop(flight.fingerprint, None)
            riders = list(flight.jobs)
            self._update_queue_depth()
            self._idle.notify_all()
        for job in riders:
            if job.state in JobState.TERMINAL:
                continue
            # Journal the terminal event *before* releasing the waiter: an
            # acknowledgement a client can observe must already be durable.
            # The finally keeps a journal I/O failure from stranding waiters.
            if error is None and tally is not None:
                if plan.base_fingerprint is not None:
                    job.cache = plan.cache
                    job.base_fingerprint = plan.base_fingerprint
                    job.delta_photons = plan.delta_photons
                    job.perturbation = plan.perturbation
                try:
                    self._journal_record("done", job.id)
                finally:
                    job._complete(tally, cache_hit=exact_hit)
            else:
                try:
                    self._journal_record("failed", job.id)
                finally:
                    job._fail(error or "no result")
        self._release_chained(flight)
        if error is None and self.journal is not None:
            # The run is durable in the store; its checkpoints are spent.
            shutil.rmtree(
                self.journal.checkpoint_dir(flight.fingerprint), ignore_errors=True
            )
        if (
            self.journal is not None
            and self.journal.size() > self.journal.max_bytes
        ):
            self._journal_compact()
        self.telemetry.observe("service.job.seconds", time.perf_counter() - t0)
        if error is not None:
            self.telemetry.count("service.jobs.failed")

    def _update_queue_depth(self) -> None:
        # Callers hold self._lock; gauge = jobs not yet settled.
        depth = sum(len(f.jobs) for f in self._flights.values())
        self.telemetry.registry.gauge("service.queue.depth").set(depth)
