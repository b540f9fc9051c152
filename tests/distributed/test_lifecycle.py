"""Sleep-free tests of the task-lifecycle core, driven by a fake clock.

Each scenario is a table of ``(time, event, argument, expected)`` rows fed
to one :class:`TaskLifecycle`: the events are what a transport would report
(a worker pulls, an attempt returns, an attempt is lost) and ``expected`` is
what the core must decide.  No thread, no socket, no sleep — the times are
just numbers.
"""

from __future__ import annotations

import math

import pytest

from repro.core.reduce import PairwiseReducer
from repro.distributed import (
    Attempt,
    CheckpointManager,
    DataManager,
    RunPlan,
    SerialBackend,
    TaskFailedError,
    TaskLifecycle,
    WorkerCrash,
    execute_unit,
)

INF = math.inf


def play(core: TaskLifecycle, table) -> None:
    """Feed ``table`` to ``core``, checking every decision.

    Events: ``pull`` (argument: worker name or None; expected: the
    ``(unit, attempt number)`` handed out, a wake-up time, or None for
    "no more work"), ``result`` / ``corrupt`` / ``lost`` (argument: the
    ``(unit, attempt number)`` that settles; expected: units merged so
    far, or the failure type once the run has failed).
    """
    handed: dict[tuple[int, int], Attempt] = {}
    merged: list[int] = []
    core.plan.progress = lambda done, total: merged.append(done)
    for row, (now, event, arg, expected) in enumerate(table):
        if event == "pull":
            step = core.next_unit(now, arg)
            if isinstance(step, Attempt):
                got = (step.unit.task_index, step.number)
                handed[got] = step
            else:
                got = step
        else:
            attempt = handed.pop(arg)
            if event == "lost":
                core.on_failure(attempt, WorkerCrash("gone"), now)
            else:
                result = execute_unit(core.plan.config, attempt.unit, attempt=attempt.number)
                if attempt.worker is not None:
                    result.worker_id = attempt.worker
                if event == "corrupt":
                    result.tally.diffuse_reflectance_weight = float("nan")
                core.on_result(attempt, result, now)
            got = type(core.failure) if core.failure is not None else len(merged)
        assert got == expected, f"row {row}: {event} {arg!r} at t={now}"


SCENARIOS = {
    "speculate-at-deadline-capped": (
        dict(n_photons=10, task_size=10, task_deadline=5.0, max_speculative=1),
        [
            (0.0, "pull", None, (0, 1)),
            (4.9, "pull", None, 5.0),  # nothing yet: come back at the deadline
            (5.0, "pull", None, (0, 2)),  # the speculative duplicate
            (99.0, "pull", None, INF),  # cap reached: only a result can help
            (100.0, "result", (0, 2), 1),
            (101.0, "result", (0, 1), 1),  # late duplicate: discarded, not merged
            (102.0, "pull", None, None),
        ],
    ),
    "duplicates-one-deadline-apart": (
        dict(n_photons=10, task_size=10, task_deadline=5.0, max_speculative=2),
        [
            (0.0, "pull", None, (0, 1)),
            (6.0, "pull", None, (0, 2)),
            (7.0, "pull", None, 11.0),  # the clock restarts at the last dispatch
            (11.0, "pull", None, (0, 3)),
            (50.0, "pull", None, INF),
        ],
    ),
    "backoff-doubles-to-cap": (
        dict(n_photons=10, task_size=10, max_retries=5,
             retry_backoff=0.25, retry_backoff_cap=0.75),
        [
            (0.0, "pull", None, (0, 1)),
            (1.0, "lost", (0, 1), 0),
            (1.0, "pull", None, 1.25),
            (1.25, "pull", None, (0, 2)),
            (2.0, "lost", (0, 2), 0),
            (2.0, "pull", None, 2.5),
            (2.5, "pull", None, (0, 3)),
            (3.0, "lost", (0, 3), 0),
            (3.0, "pull", None, 3.75),  # 1.0 capped to 0.75
            (3.75, "pull", None, (0, 4)),
            (4.0, "lost", (0, 4), 0),
            (4.0, "pull", None, 4.75),  # still capped
        ],
    ),
    "no-backoff-by-default": (
        dict(n_photons=10, task_size=10),
        [
            (0.0, "pull", None, (0, 1)),
            (1.0, "lost", (0, 1), 0),
            (1.0, "pull", None, (0, 2)),
        ],
    ),
    "exhaustion-deferred-sibling-wins": (
        dict(n_photons=10, task_size=10, max_retries=0, task_deadline=5.0),
        [
            (0.0, "pull", None, (0, 1)),
            (5.0, "pull", None, (0, 2)),
            (6.0, "lost", (0, 1), 0),  # budget spent, but the sibling may deliver
            (6.0, "pull", None, INF),  # and nothing is requeued meanwhile
            (7.0, "result", (0, 2), 1),
            (7.0, "pull", None, None),
        ],
    ),
    "exhaustion-deferred-sibling-loses": (
        dict(n_photons=10, task_size=10, max_retries=0, task_deadline=5.0),
        [
            (0.0, "pull", None, (0, 1)),
            (5.0, "pull", None, (0, 2)),
            (6.0, "lost", (0, 1), 0),
            (7.0, "lost", (0, 2), TaskFailedError),
            (7.0, "pull", None, None),
        ],
    ),
    "blacklisted-for-corrupt-result": (
        dict(n_photons=20, task_size=10, blacklist_after=1),
        [
            (0.0, "pull", "bad", (0, 1)),
            (1.0, "corrupt", (0, 1), 0),
            (1.0, "pull", "bad", None),  # refused although work remains
            (1.0, "pull", "good", (1, 1)),
            (1.0, "pull", "good", (0, 2)),  # the rejected unit's retry
            (2.0, "result", (1, 1), 1),
            (2.0, "result", (0, 2), 2),
            (2.0, "pull", "good", None),
        ],
    ),
    "blacklisted-for-lost-attempts": (
        dict(n_photons=20, task_size=10, blacklist_after=2),
        [
            (0.0, "pull", "flaky", (0, 1)),
            (1.0, "lost", (0, 1), 0),
            (1.0, "pull", "flaky", (1, 1)),  # one strike is not two
            (2.0, "lost", (1, 1), 0),
            (2.0, "pull", "flaky", None),
            (2.0, "pull", None, (0, 2)),  # an anonymous worker is never refused
        ],
    ),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario(fast_config, name):
    fields, table = SCENARIOS[name]
    play(TaskLifecycle(RunPlan(fast_config, seed=3, **fields), 0.0), table)


def serial_tally(config, **fields):
    return DataManager(config, seed=3, **fields).run(SerialBackend()).tally


def test_late_duplicate_never_reaches_the_reducer(fast_config):
    fields, table = SCENARIOS["speculate-at-deadline-capped"]
    core = TaskLifecycle(RunPlan(fast_config, seed=3, **fields), 0.0)
    play(core, table)
    report = core.report(103.0)
    assert report.wall_seconds == 103.0
    assert report.speculative_duplicates == 1
    assert report.tally == serial_tally(fast_config, n_photons=10, task_size=10)


def test_failed_run_reports_by_raising(fast_config):
    fields, table = SCENARIOS["exhaustion-deferred-sibling-loses"]
    core = TaskLifecycle(RunPlan(fast_config, seed=3, **fields), 0.0)
    play(core, table)
    assert core.finished
    with pytest.raises(TaskFailedError) as failure:
        core.report(8.0)
    assert failure.value.attempts == 2
    assert isinstance(failure.value.last_error, WorkerCrash)


def test_blacklist_shows_in_the_report(fast_config):
    fields, table = SCENARIOS["blacklisted-for-corrupt-result"]
    core = TaskLifecycle(RunPlan(fast_config, seed=3, **fields), 0.0)
    play(core, table)
    report = core.report(3.0)
    assert report.worker_health["bad"].blacklisted
    assert not report.worker_health["good"].blacklisted
    assert report.retries == 1
    assert [r.worker_id for r in report.task_results] == ["good", "good"]


def test_restored_units_reenter_the_reducer_in_index_order(
    fast_config, tmp_path, monkeypatch
):
    fields = dict(n_photons=40, task_size=10)
    plan = RunPlan(fast_config, seed=3, checkpoint=tmp_path / "ck", **fields)
    first = TaskLifecycle(plan, 0.0)
    # Merge units 3, 0 and 2 (in that order) and stop: a killed run.
    attempts = {}
    for _ in range(4):
        step = first.next_unit(0.0)
        attempts[step.unit.task_index] = step
    for idx in (3, 0, 2):
        first.on_result(attempts[idx], execute_unit(fast_config, attempts[idx].unit), 1.0)

    class ReversedCheckpoint(CheckpointManager):
        """Hands the restored set back in the worst order."""

        def load(self, key):
            restored = super().load(key)
            return dict(sorted(restored.items(), reverse=True))

    folded: list[int] = []
    real_add = PairwiseReducer.add

    def spying_add(self, idx, tally, **kwargs):
        folded.append(idx)
        return real_add(self, idx, tally, **kwargs)

    monkeypatch.setattr(PairwiseReducer, "add", spying_add)
    resumed = TaskLifecycle(
        RunPlan(fast_config, seed=3, checkpoint=ReversedCheckpoint(tmp_path / "ck"), **fields),
        0.0,
    )
    assert folded == [0, 2, 3]
    play(resumed, [
        (0.0, "pull", None, (1, 1)),  # only the missing unit is handed out
        (0.0, "pull", None, INF),
        (1.0, "result", (1, 1), 1),
        (1.0, "pull", None, None),
    ])
    assert folded == [0, 2, 3, 1]
    assert resumed.report(2.0).tally == serial_tally(fast_config, **fields)
