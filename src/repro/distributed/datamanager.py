"""The DataManager — server side of the distributed platform.

Mirrors the paper's architecture: the DataManager "assigns simulations to
client PCs and processes the returned results".  The assigning and the
processing — canonical decomposition, retries with backoff, merge-time
validation, deadline-driven speculation, checkpointing, the incremental
bit-identical reduction, worker health and the :class:`RunReport` — are the
:class:`~repro.distributed.lifecycle.TaskLifecycle` core, shared with the
TCP :class:`~repro.distributed.net.NetworkServer`.  What this class adds is
the transport: it keeps at most ``max_workers`` attempts in flight on an
executor backend and hands a new unit to whichever worker finishes first
(pull-based *self-scheduling*, the policy that yields the paper's
near-linear speedup on heterogeneous, non-dedicated machines).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import Callable

from .backends import Backend
from .lifecycle import Attempt, RunPlan, RunReport, TaskFailedError, TaskLifecycle
from .protocol import TaskResult
from .worker import execute_task, execute_unit, execute_unit_ipc

__all__ = ["DataManager", "RunReport", "TaskFailedError"]

#: How long to wait for in-flight attempts to settle when a run is aborted.
_DRAIN_TIMEOUT = 30.0


@dataclass(kw_only=True)
class DataManager(RunPlan):
    """Server-side orchestrator of one experiment on an executor backend.

    Takes every :class:`~repro.distributed.lifecycle.RunPlan` field, plus:

    task_runner:
        The client entry point; replaceable for fault injection.  Must be
        picklable for the multiprocessing backend.
    """

    task_runner: Callable[..., TaskResult] = execute_task

    def run(self, backend: Backend) -> RunReport:
        """Execute the experiment on ``backend`` and merge the results."""
        clock = time.perf_counter
        core = TaskLifecycle(self, clock())
        # Every attempt routes through the unit entry points: execute_unit
        # runs tasks or folds spans in place; execute_unit_ipc additionally
        # returns the tally in zero-copy codec form, stripping the pickle
        # reconstruction cost off a process pool's parent-side hot path.
        # Kernel batch spans can only be shared by in-process workers; the
        # stock runner grows a telemetry kwarg, custom runners are left
        # alone (execute_unit forwards telemetry only to execute_task).
        in_process = getattr(backend, "in_process", False)
        unit_entry = execute_unit if in_process else execute_unit_ipc
        runner_kwargs = {"runner": self.task_runner}
        if self.telemetry is not None and in_process and self.task_runner is execute_task:
            runner_kwargs["telemetry"] = self.telemetry

        in_flight: dict[Future, Attempt] = {}
        while not core.finished:
            # With every worker busy only a completion can change anything.
            wake = math.inf
            while len(in_flight) < backend.max_workers:
                step = core.next_unit(clock())
                if not isinstance(step, Attempt):
                    wake = step  # a time; the run cannot finish inside this loop
                    break
                fut = backend.submit(
                    unit_entry, self.config, step.unit, attempt=step.number,
                    **runner_kwargs,
                )
                in_flight[fut] = step
            if not in_flight:
                if wake == math.inf:
                    raise RuntimeError(
                        "scheduler stalled: tasks outstanding but nothing queued"
                    )
                # Everything is backoff-delayed; sleep to the earliest release.
                time.sleep(max(0.0, wake - clock()))
                continue
            # Wake early enough to notice deadline crossings and backoff releases.
            timeout = None if wake == math.inf else max(0.0, wake - clock())
            done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
            for fut in done:
                attempt = in_flight.pop(fut)
                error = fut.exception()
                if error is None:
                    core.on_result(attempt, fut.result(), clock())
                else:
                    core.on_failure(attempt, error, clock())

        # Cancel whatever has not started.  Hung or superseded attempts may
        # still be running; after a success they are harmless (their results
        # would be discarded) and the backend joins them at shutdown.  Before
        # a failure is raised they must settle first — ``Future.cancel()`` is
        # a no-op for a running attempt, and the raise would race with
        # workers still mutating backend state.
        for fut in in_flight:
            fut.cancel()
        if core.failure is not None:
            wait({f for f in in_flight if not f.cancelled()}, timeout=_DRAIN_TIMEOUT)
        return core.report(clock())
