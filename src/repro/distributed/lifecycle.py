"""The task lifecycle: every scheduling rule of a distributed run, once.

The paper has one DataManager that "assigns simulations to client PCs and
processes the returned results".  :class:`TaskLifecycle` is that policy as
a plain state machine with no transport and no clock of its own: a driver
tells it what time it is and what happened, and asks what to do next.

    next_unit(now, worker)  -> an Attempt to hand out | a wake-up time | None
    on_result(attempt, result, now)
    on_failure(attempt, error, now)
    next_wakeup()           -> when next_unit could answer differently
    report(now)             -> the RunReport (or raises the run's failure)

It owns the canonical decomposition, the checkpoint (restore, record,
flush), the incremental pairwise reduction, merge-time validation,
duplicate discard, retry counting with exponential backoff,
deadline-driven speculation, worker health with blacklisting, the
scheduling telemetry and the :class:`RunReport`.  Two drivers exist and
differ only in how an attempt reaches a worker:
:meth:`repro.distributed.datamanager.DataManager.run` submits attempts to
an executor backend, :class:`repro.distributed.net.NetworkServer` hands
them to TCP clients.  The core is not thread-safe; a driver with several
threads calls it under one lock.

:class:`RunPlan` declares and validates, once, the constructor fields both
drivers accept.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path
from typing import Callable

from ..core.config import SimulationConfig
from ..core.reduce import PairwiseReducer, TallyFrontier, prefix_spans
from ..core.simulation import KernelName, split_photons
from ..core.tally import Tally
from .checkpoint import CheckpointManager, run_key
from .health import WorkerHealth, WorkerStats
from .protocol import (
    SpanSpec,
    TaskResult,
    TaskSpec,
    make_units,
    thaw_result,
    validate_result,
)

logger = logging.getLogger(__name__)

__all__ = ["Attempt", "RunPlan", "RunReport", "TaskFailedError", "TaskLifecycle"]


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget."""

    def __init__(self, task: TaskSpec, attempts: int, last_error: BaseException):
        super().__init__(
            f"task {task.task_index} failed after {attempts} attempts: {last_error!r}"
        )
        self.task = task
        self.attempts = attempts
        self.last_error = last_error


@dataclass
class RunReport:
    """Outcome of a distributed run.

    Attributes
    ----------
    tally:
        The merged physics result.
    task_results:
        Per-task results in task order.  When the run was executed with
        ``retain_task_tallies=False`` each entry keeps its metadata
        (worker, timing, photon count) but its ``tally`` is ``None`` —
        the weight data lives only in the merged ``tally`` above.
    wall_seconds:
        End-to-end time observed by the driver.
    retries:
        Total failed attempts that were retried.
    speculative_duplicates:
        Speculative attempts dispatched for straggling tasks (the losing
        copies are discarded at merge time).
    worker_health:
        Per-worker failure/latency/blacklist stats, keyed by worker id.
    metrics:
        Final metrics block (the :meth:`repro.observe.Telemetry.snapshot`
        of the run's registry) when the run was telemetered; ``None``
        otherwise.
    frontier:
        The run's re-injectable reduction frontier
        (:class:`~repro.core.reduce.TallyFrontier`) when the run was
        executed with ``capture_frontier=True``; ``None`` otherwise.  For a
        complete run this is the canonical prefix-span decomposition of the
        full-size tasks (the budget-extension base); for a partial
        ``task_range`` run it is the pending-node export (resumable into a
        same-decomposition reducer).
    """

    tally: Tally
    task_results: list[TaskResult]
    wall_seconds: float
    retries: int = 0
    speculative_duplicates: int = 0
    worker_health: dict[str, WorkerStats] = field(default_factory=dict)
    metrics: dict | None = None
    frontier: TallyFrontier | None = None

    @property
    def n_tasks(self) -> int:
        return len(self.task_results)

    @property
    def busy_seconds(self) -> float:
        """Total worker compute time across all tasks."""
        return sum(r.elapsed_seconds for r in self.task_results)

    def per_worker(self) -> dict[str, dict[str, float]]:
        """Utilisation and health summary keyed by worker id.

        Each row carries the utilisation counters (``tasks``,
        ``busy_seconds``, ``photons``) plus the health fields
        (``failures``, ``blacklisted``, ``mean_latency_seconds``).  Workers
        that only ever failed appear with zero completed tasks.
        """
        out: dict[str, dict[str, float]] = {}

        def row_for(worker_id: str) -> dict[str, float]:
            return out.setdefault(
                worker_id, {"tasks": 0.0, "busy_seconds": 0.0, "photons": 0.0}
            )

        for r in self.task_results:
            row = row_for(r.worker_id)
            row["tasks"] += 1.0
            row["busy_seconds"] += r.elapsed_seconds
            row["photons"] += float(r.photons)
        for worker_id, stats in self.worker_health.items():
            row = row_for(worker_id)
            row["failures"] = float(stats.failures)
            row["blacklisted"] = stats.blacklisted
            row["mean_latency_seconds"] = stats.mean_latency
        for row in out.values():
            row.setdefault("failures", 0.0)
            row.setdefault("blacklisted", False)
            row.setdefault(
                "mean_latency_seconds",
                row["busy_seconds"] / row["tasks"] if row["tasks"] else float("nan"),
            )
        return out


@dataclass
class RunPlan:
    """What to run and under which fault-tolerance policy — shared by every driver.

    Everything after ``(config, n_photons)`` is keyword-only: the field
    list grows PR over PR and a positional call site would silently
    re-bind when a field is inserted.

    Parameters
    ----------
    config:
        The experiment every task runs.
    n_photons:
        Total photon budget.
    seed:
        Experiment seed (combined with task indices for RNG streams).
    task_size:
        Photons per task — the self-scheduling chunk size.  Smaller tasks
        balance load better but pay more per-task overhead; the paper's
        97 %-efficiency point is a chunk-size trade-off, explored in
        ``benchmarks/bench_ablation_chunksize.py``.
    kernel:
        Kernel the clients run.
    max_retries:
        Additional attempts allowed per task after a failure.
    progress:
        Optional callback ``(done_units, total_units) -> None``.
    task_deadline:
        Seconds an attempt may run before a speculative duplicate is
        dispatched (``None`` disables speculation).  First result wins;
        the loser is discarded, so the merged tally is unaffected.
    max_speculative:
        Speculative duplicates allowed per task.
    retry_backoff:
        Base delay before re-dispatching a failed task; doubles with each
        failure of that task, capped at ``retry_backoff_cap``.  ``0``
        (the default) retries immediately.
    retry_backoff_cap:
        Upper bound on the exponential backoff delay.
    blacklist_after:
        Consecutive failures after which a worker is blacklisted
        (``None`` disables).  A driver that knows which worker is asking
        refuses it further work; an executor pool cannot refuse work to a
        thread, so there the flag is diagnostic.
    span_size:
        Tasks per dispatch unit for hierarchical worker-local reduction
        (``None``, the default, keeps per-task dispatch).  Tasks are
        grouped into tree-aligned spans (the size is rounded down to a
        power of two); the worker folds each span's tallies bottom-up into
        the canonical subtree partial and ships that single payload, so
        payload count and coordinator merge CPU drop by the span factor
        while the merged tally stays bit-identical to serial
        (``reduce.worker_folds`` counts the merges delegated).  Retries,
        speculation and checkpoints operate on whole spans.
    sub_batch:
        Vectorized-kernel sub-batch override shipped with every task
        (``None`` keeps the kernel default).  Execution-only: results are
        statistically equivalent across sub-batch sizes but not
        bit-identical, so the value participates in the checkpoint run key.
    capture_paths:
        Ship ``capture_paths=True`` with every task: workers record
        per-detected-photon path records (``Tally.paths``, the raw
        material for :mod:`repro.perturb` reweighting), sealed under the
        task index so the merged record set is bit-identical across
        drivers and schedules.  No other tally field changes.
    checkpoint:
        A :class:`~repro.distributed.checkpoint.CheckpointManager`, or a
        directory path for one.  Completed results are persisted as they
        merge and reloaded by the next run with the same run key, making a
        killed run resumable bit-identically.
    base_frontier:
        A :class:`~repro.core.reduce.TallyFrontier` from a previous run of
        the same physics and task size (smaller budget, or a disjoint
        ``task_range``).  Its span partials are primed into the reducer
        before any task is dispatched and the covered task indices are
        **not** re-simulated — the run executes only the missing tasks and
        the merged tally is bit-identical to a from-scratch run of the full
        decomposition (task RNG streams are keyed by ``(seed, task_index)``,
        and the frontier spans are canonical subtree folds).  The frontier's
        tallies are not mutated.  ``span_size`` is ignored (delta tasks are
        dispatched per-task: spans could straddle the coverage boundary).
    capture_frontier:
        Snapshot the run's reduction frontier and attach it to
        :attr:`RunReport.frontier`, making the result budget-extendable.
        Costs one deep tally copy per frontier span (≤ ⌈log₂ n⌉ + 1 spans).
    task_range:
        Run only tasks ``[start, stop)`` of the canonical decomposition.
        The tally is the deterministic partial fold of those tasks; the
        report's frontier (with ``capture_frontier=True``) can seed a later
        run that completes the remainder.  ``span_size`` is ignored.
    retain_task_tallies:
        Keep each task's tally on its :class:`TaskResult` (default, needed
        by :mod:`repro.analysis` and :mod:`repro.io.reports`).  Set
        ``False`` for large runs: tallies are released the moment they are
        folded into the incremental pairwise reduction, bounding live
        tallies at ~⌈log₂ n_tasks⌉ + tasks in flight instead of n_tasks,
        while ``task_results`` keeps all scheduling metadata.
    telemetry:
        Optional :class:`~repro.observe.Telemetry`.  When given, the run
        emits ``run_start`` / ``run_end`` events and ``task.attempt``
        spans, counts ``tasks.dispatched`` / ``tasks.completed`` /
        ``tasks.retried`` / ``tasks.speculative`` / ``photons.traced``,
        observes per-task latency and per-worker throughput, drives the
        progress reporter, and attaches the final metrics snapshot to
        :attr:`RunReport.metrics`.  The caller owns the telemetry
        lifecycle (call :meth:`repro.observe.Telemetry.finish` when the
        last run on it is over).
    """

    config: SimulationConfig
    n_photons: int
    _: KW_ONLY
    seed: int = 0
    task_size: int = 100_000
    kernel: KernelName = "vector"
    max_retries: int = 2
    progress: Callable[[int, int], None] | None = None
    task_deadline: float | None = None
    max_speculative: int = 1
    retry_backoff: float = 0.0
    retry_backoff_cap: float = 30.0
    blacklist_after: int | None = 3
    checkpoint: CheckpointManager | str | Path | None = None
    telemetry: object | None = None
    retain_task_tallies: bool = True
    span_size: int | None = None
    sub_batch: int | None = None
    capture_paths: bool = False
    base_frontier: TallyFrontier | None = None
    capture_frontier: bool = False
    task_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError(f"n_photons must be >= 0, got {self.n_photons}")
        if self.task_size <= 0:
            raise ValueError(f"task_size must be > 0, got {self.task_size}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError(
                f"task_deadline must be > 0 or None, got {self.task_deadline}"
            )
        if self.max_speculative < 0:
            raise ValueError(
                f"max_speculative must be >= 0, got {self.max_speculative}"
            )
        if self.retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {self.retry_backoff}")
        if self.span_size is not None and self.span_size < 1:
            raise ValueError(
                f"span_size must be >= 1 or None, got {self.span_size}"
            )
        if self.sub_batch is not None and self.sub_batch <= 0:
            raise ValueError(f"sub_batch must be > 0 or None, got {self.sub_batch}")
        n_tasks = self.n_tasks
        if self.task_range is not None:
            lo, hi = self.task_range
            if not 0 <= lo < hi <= n_tasks:
                raise ValueError(
                    f"task_range [{lo}, {hi}) out of range for the "
                    f"{n_tasks}-task decomposition of {self.n_photons} photons"
                )
        if self.base_frontier is not None:
            for start, stop, _tally in self.base_frontier:
                if not 0 <= start < stop <= n_tasks:
                    raise ValueError(
                        f"base_frontier span [{start}, {stop}) out of range "
                        f"for the {n_tasks}-task decomposition"
                    )

    @property
    def n_tasks(self) -> int:
        """Size of the canonical decomposition."""
        return len(split_photons(self.n_photons, self.task_size))

    def tasks(self) -> list[TaskSpec]:
        """The canonical task decomposition of this experiment."""
        return [
            TaskSpec(
                task_index=i, n_photons=count, seed=self.seed, kernel=self.kernel,
                sub_batch=self.sub_batch, capture_paths=self.capture_paths,
            )
            for i, count in enumerate(split_photons(self.n_photons, self.task_size))
        ]

    def units(self) -> list[TaskSpec] | list[SpanSpec]:
        """The dispatch units this run executes.

        Per-task, or tree-aligned spans of tasks.  Delta (``base_frontier``)
        and partial (``task_range``) runs dispatch per-task and skip what the
        base already covers: worker-fold spans could straddle the coverage
        or range boundary.
        """
        tasks = self.tasks()
        if self.base_frontier is None and self.task_range is None:
            return make_units(tasks, self.span_size)
        covered: set[int] = set()
        for start, stop, _tally in self.base_frontier or ():
            covered.update(range(start, stop))
        lo, hi = self.task_range if self.task_range is not None else (0, len(tasks))
        return [t for t in tasks[lo:hi] if t.task_index not in covered]

    def run_key(self) -> dict:
        """Identity of this run's decomposition (for checkpoint matching)."""
        return run_key(
            n_photons=self.n_photons,
            seed=self.seed,
            task_size=self.task_size,
            kernel=self.kernel,
            span_size=self.span_size,
            sub_batch=self.sub_batch,
            capture_paths=self.capture_paths,
            task_range=self.task_range,
            base_spans=(
                [(s, e) for s, e, _t in self.base_frontier]
                if self.base_frontier is not None
                else None
            ),
        )


@dataclass(frozen=True)
class Attempt:
    """One hand-out of a unit: what the driver delivers, and later reports on."""

    unit: TaskSpec | SpanSpec
    number: int
    #: Who took it, when the driver knows (blacklisting and health need it).
    worker: str | None = None
    #: Open ``task.attempt`` telemetry span, if the run is telemetered.
    span: tuple[int, float] | None = None


@dataclass
class _Track:
    """Scheduling record of one dispatch unit."""

    unit: TaskSpec | SpanSpec
    failures: int = 0
    duplicates: int = 0  # speculative attempts issued
    live: int = 0  # attempts in flight
    queued: int = 0  # attempts waiting in the queue
    dispatched_at: float = 0.0  # when the latest attempt went out


class TaskLifecycle:
    """State machine of one run: times and events in, decisions out.

    ``now`` is whatever monotonic clock the driver keeps; the core only
    compares and adds the values it is given, so a test drives it with a
    fake clock.  Constructing it restores the checkpoint and folds the
    restored results into the reducer, in index order.
    """

    def __init__(self, plan: RunPlan, now: float) -> None:
        self.plan = plan
        self.retries = 0
        self.speculative = 0
        #: Set once a unit exhausts its retry budget; :meth:`report` raises it.
        self.failure: TaskFailedError | None = None
        self._started = now
        self._tel = plan.telemetry
        self._health = WorkerHealth(blacklist_after=plan.blacklist_after)
        self._tracks = {u.task_index: _Track(u) for u in plan.units()}
        #: Units with at least one attempt in flight.
        self._running: dict[int, _Track] = {}
        self._ready: deque[tuple[_Track, int]] = deque()
        #: (not_before, track, attempt number): retries waiting out a backoff.
        self._delayed: list[tuple[float, _Track, int]] = []

        n_tasks = self._n_tasks = plan.n_tasks
        base = plan.base_frontier
        # ``complete`` — this run (base coverage + its own units) reduces the
        # whole decomposition, so result() applies and the prefix frontier
        # can be captured; otherwise the run yields a deterministic partial.
        # (Plain runs dispatch spans, so count per-task only on delta paths.)
        if base is None and plan.task_range is None:
            self._complete = True
        else:
            n_covered = base.n_covered if base is not None else 0
            self._complete = n_covered + len(self._tracks) == n_tasks
        # Incremental deterministic reduction: results are folded into a
        # canonical binary tree keyed by task index as they arrive, so the
        # merged tally is bit-identical to serial no matter the completion
        # order, there is no end-of-run merge stall, and (with
        # retain_task_tallies=False) at most ~log2(n_tasks) + in-flight
        # tallies are ever held in memory.
        self._reducer: PairwiseReducer | None = None
        if n_tasks:
            capture_spans = None
            if plan.capture_frontier and self._complete:
                k_full = plan.n_photons // plan.task_size
                if k_full:
                    capture_spans = prefix_spans(k_full)
            self._reducer = PairwiseReducer(
                n_tasks, telemetry=self._tel, capture_spans=capture_spans
            )
            if base is not None:
                self._reducer.prime(base)

        self._ckpt: CheckpointManager | None = None
        self._results: dict[int, TaskResult] = {}
        if plan.checkpoint is not None:
            self._ckpt = (
                plan.checkpoint
                if isinstance(plan.checkpoint, CheckpointManager)
                else CheckpointManager(plan.checkpoint)
            )
            restored = self._ckpt.load(plan.run_key())
            # Checkpointed results re-enter through the same reducer, keeping
            # a resumed run on the same tree as an uninterrupted one.
            for i in sorted(restored):
                if i in self._tracks:
                    self._results[i] = restored[i]
                    self._fold(i, restored[i])
            if self._results:
                logger.info(
                    "resumed %d completed units from checkpoint %s",
                    len(self._results), self._ckpt.directory,
                )
        for track in self._tracks.values():
            if track.unit.task_index not in self._results:
                self._enqueue(track, 1)
        if self._tel is not None:
            self._tel.emit(
                "run_start",
                n_tasks=n_tasks,
                n_units=len(self._tracks),
                n_photons=plan.n_photons,
                restored=len(self._results),
                kernel=plan.kernel,
            )

    # -- decisions -------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Every unit is merged, or the run has failed for good."""
        return self.failure is not None or len(self._results) == len(self._tracks)

    def next_unit(self, now: float, worker: str | None = None) -> Attempt | float | None:
        """What a free worker should do at time ``now``.

        Returns an :class:`Attempt` to execute; or the time before which
        nothing will be ready (``math.inf``: not until some attempt
        settles); or ``None`` when there is no more work for this worker —
        the run is finished, or ``worker`` is blacklisted.
        """
        if self.finished:
            return None
        if worker is not None and self._health.is_blacklisted(worker):
            logger.warning("worker %s is blacklisted; refusing work", worker)
            return None
        self._speculate(now)
        if self._delayed:
            self._ready.extend(entry[1:] for entry in self._delayed if entry[0] <= now)
            self._delayed = [entry for entry in self._delayed if entry[0] > now]
        while self._ready:
            track, number = self._ready.popleft()
            track.queued -= 1
            if track.unit.task_index not in self._results:
                return self._dispatch(track, number, now, worker)
        return self.next_wakeup()

    def next_wakeup(self) -> float:
        """Earliest time at which :meth:`next_unit` may have new work.

        The sooner of the next backoff release and the next deadline
        crossing; ``math.inf`` when only a settling attempt can change
        anything.
        """
        times = [entry[0] for entry in self._delayed]
        times.extend(due for _track, due in self._stragglers())
        return min(times, default=math.inf)

    def _stragglers(self):
        """``(track, deadline)`` of in-flight units that may still be duplicated."""
        deadline = self.plan.task_deadline
        if deadline is None:
            return
        for track in self._running.values():
            if track.queued == 0 and track.duplicates < self.plan.max_speculative:
                yield track, track.dispatched_at + deadline

    def _speculate(self, now: float) -> None:
        """Queue a duplicate of every attempt that has outlived its deadline."""
        for track, due in self._stragglers():
            if now < due:
                continue
            track.duplicates += 1
            self.speculative += 1
            if self._tel is not None:
                self._tel.count("tasks.speculative")
            logger.info(
                "task %d exceeded the %.2fs deadline; queueing speculative duplicate",
                track.unit.task_index, self.plan.task_deadline,
            )
            self._enqueue(track, track.failures + track.duplicates + 1)

    def _enqueue(self, track: _Track, number: int, not_before: float | None = None) -> None:
        track.queued += 1
        if not_before is None:
            self._ready.append((track, number))
        else:
            self._delayed.append((not_before, track, number))

    def _dispatch(
        self, track: _Track, number: int, now: float, worker: str | None
    ) -> Attempt:
        unit = track.unit
        track.live += 1
        track.dispatched_at = now
        self._running[unit.task_index] = track
        span = None
        if self._tel is not None:
            span = self._tel.span_begin(
                "task.attempt", task=unit.task_index, attempt=number,
                photons=unit.n_photons,
            )
            self._tel.count("tasks.dispatched")
            self._gauge_in_flight()
        return Attempt(unit, number, worker, span)

    def _gauge_in_flight(self) -> None:
        self._tel.gauge("tasks.in_flight", sum(t.live for t in self._running.values()))

    # -- events ----------------------------------------------------------------

    def _settle(self, attempt: Attempt) -> _Track:
        idx = attempt.unit.task_index
        track = self._tracks[idx]
        track.live -= 1
        if track.live == 0:
            del self._running[idx]
        if self._tel is not None:
            self._gauge_in_flight()
        return track

    def _end_span(self, attempt: Attempt, outcome: str, **fields) -> None:
        if self._tel is not None and attempt.span is not None:
            self._tel.span_finish("task.attempt", attempt.span, outcome=outcome, **fields)

    def on_result(self, attempt: Attempt, result: TaskResult, now: float) -> None:
        """An attempt came back with a result: discard, reject or merge it."""
        track = self._settle(attempt)
        idx = track.unit.task_index
        if idx in self._results:
            # Late outcome of a unit already merged via speculation: dropped
            # *before* reduction, so it can never be double-counted.
            logger.info("discarding duplicate outcome of task %d", idx)
            self._end_span(attempt, "duplicate")
            return
        worker = attempt.worker if attempt.worker is not None else result.worker_id
        try:
            # A result that crossed a byte transport arrives codec-encoded;
            # thaw it into zero-copy views before validation.
            thaw_result(result, telemetry=self._tel)
            validate_result(result, track.unit)
        except ValueError as error:
            # ResultValidationError, or a CodecError from a corrupt encoded
            # payload — either way the result is unusable, the worker is
            # charged with it and the unit is retried.
            logger.warning("task %d result from %s rejected: %s", idx, worker, error)
            self._health.record_failure(worker)
            self._fail(track, attempt, error, now)
            return
        self._results[idx] = result
        self._health.record_success(worker, result.elapsed_seconds)
        if self._ckpt is not None:
            self._ckpt.record(result)
        n_launched = result.tally.n_launched
        self._fold(idx, result)
        done, total = len(self._results), len(self._tracks)
        if self.plan.progress is not None:
            self.plan.progress(done, total)
        tel = self._tel
        if tel is not None:
            self._end_span(attempt, "merged", worker=worker)
            tel.count("tasks.completed")
            tel.count("photons.traced", n_launched)
            tel.count("worker.photons", n_launched, worker=worker)
            tel.count("worker.tasks", 1, worker=worker)
            tel.observe("task.seconds", result.elapsed_seconds)
            elapsed = now - self._started
            done_photons = tel.registry.counter("photons.traced").value
            tel.progress_update(
                done, total,
                photons_per_s=done_photons / elapsed if elapsed > 0 else 0.0,
            )

    def on_failure(self, attempt: Attempt, error: BaseException, now: float) -> None:
        """An attempt was lost (crash, hang, dropped connection): retry or give up."""
        track = self._settle(attempt)
        if attempt.worker is not None:
            self._health.record_failure(attempt.worker)
        if track.unit.task_index in self._results:
            self._end_span(attempt, "duplicate")
            return
        self._fail(track, attempt, error, now)

    def _fail(
        self, track: _Track, attempt: Attempt, error: BaseException, now: float
    ) -> None:
        self._end_span(attempt, "failed")
        idx = track.unit.task_index
        track.failures += 1
        if track.failures > self.plan.max_retries:
            if track.live > 0:
                # A speculative sibling is still running; let it decide.
                return
            self.failure = TaskFailedError(track.unit, track.failures, error)
            return
        self.retries += 1
        if self._tel is not None:
            self._tel.count("tasks.retried")
        delay = self._backoff(track.failures)
        logger.info(
            "task %d failed (%r); retrying in %.2fs (attempt %d)",
            idx, error, delay, attempt.number + 1,
        )
        self._enqueue(track, attempt.number + 1, now + delay if delay > 0 else None)

    def _backoff(self, n_failures: int) -> float:
        base = self.plan.retry_backoff
        if base <= 0:
            return 0.0
        return min(base * (2 ** (n_failures - 1)), self.plan.retry_backoff_cap)

    def _fold(self, idx: int, result: TaskResult) -> None:
        """Feed a merged unit's tally into the reduction tree."""
        retain = self.plan.retain_task_tallies
        # Release before feeding the reducer: with an owned leaf the
        # reducer merges siblings into it in place, which would corrupt
        # the per-unit photon count release_tally() snapshots.
        leaf = result.tally
        span = result.span
        if not retain:
            result.release_tally()
        # Codec-decoded tallies may be zero-copy views into a read-only
        # buffer; the reducer may only accumulate into writable arrays.
        owned = (not retain) and leaf.absorbed_by_layer.flags.writeable
        if span is not None:
            # A span result enters at its subtree node — the worker already
            # performed that subtree's merges, bit-identically.
            self._reducer.add_span(span[0], span[1], leaf, owned=owned)
            if self._tel is not None and span[1] - span[0] > 1:
                self._tel.count("reduce.worker_folds", span[1] - span[0] - 1)
        else:
            self._reducer.add(idx, leaf, owned=owned)

    # -- outcome ---------------------------------------------------------------

    def flush(self) -> None:
        """Force batched checkpoint manifest entries to disk."""
        if self._ckpt is not None:
            self._ckpt.flush()

    def report(self, now: float) -> RunReport:
        """The finished run's report; raises the failure of a failed run."""
        self.flush()
        if self.failure is not None:
            raise self.failure
        plan, reducer = self.plan, self._reducer
        # Every result was already folded in on arrival — no end-of-run
        # merge pass (and no "merge" span) remains.
        capture = plan.capture_frontier
        if reducer is None:
            tally = Tally(n_layers=len(plan.config.stack), records=plan.config.records)
            frontier = TallyFrontier([]) if capture else None
        elif self._complete:
            tally = reducer.result()
            frontier = reducer.captured_frontier() if capture else None
        else:
            tally = reducer.partial_result()
            frontier = reducer.export_pending() if capture else None
        wall = now - self._started
        metrics = None
        if self._tel is not None:
            self._tel.gauge(
                "run.photons_per_s", tally.n_launched / wall if wall > 0 else 0.0
            )
            self._tel.emit(
                "run_end", n_tasks=self._n_tasks, wall_seconds=wall,
                retries=self.retries, speculative=self.speculative,
            )
            metrics = self._tel.snapshot()
        return RunReport(
            tally=tally,
            task_results=[self._results[i] for i in self._tracks],
            wall_seconds=wall,
            retries=self.retries,
            speculative_duplicates=self.speculative,
            worker_health=self._health.snapshot(),
            metrics=metrics,
            frontier=frontier,
        )
