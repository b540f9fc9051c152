"""Fault-taxonomy tests: crash, slowdown, hang, corrupt result, flaky worker.

Each scenario must leave the merged physics bit-identical to a clean run
(strict ``Tally.__eq__``): recovery may cost retries and duplicates, never
correctness.
"""

from __future__ import annotations

import pytest

from repro.distributed import (
    DataManager,
    FaultInjector,
    SerialBackend,
    ThreadBackend,
)
from repro.distributed.faults import CORRUPT_KINDS


def clean_tally(fast_config, n_photons=300, seed=2, task_size=100):
    return DataManager(fast_config, n_photons, seed=seed, task_size=task_size).run(
        SerialBackend()
    ).tally


class TestCrash:
    def test_crash_recovered_bit_identical(self, fast_config):
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            task_runner=FaultInjector(fail_tasks_once=frozenset({1})),
        )
        report = manager.run(SerialBackend())
        assert report.retries == 1
        assert report.tally == clean_tally(fast_config)


class TestSlowdown:
    def test_straggler_speculatively_redispatched(self, fast_config):
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            task_deadline=0.15,
            task_runner=FaultInjector(slow_tasks_once={0: 1.0}),
        )
        with ThreadBackend(2) as backend:
            report = manager.run(backend)
        assert report.speculative_duplicates >= 1
        assert report.retries == 0  # a straggler is not a failure
        assert report.tally == clean_tally(fast_config)

    def test_speculation_disabled_without_deadline(self, fast_config):
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            task_runner=FaultInjector(slow_tasks_once={0: 0.3}),
        )
        with ThreadBackend(2) as backend:
            report = manager.run(backend)
        assert report.speculative_duplicates == 0
        assert report.tally == clean_tally(fast_config)


class TestHang:
    def test_duplicate_wins_late_result_discarded(self, fast_config):
        # The hang (1.5 s) far exceeds the deadline (0.15 s): the
        # speculative duplicate must be merged long before the hung attempt
        # wakes up, and the late result silently discarded.
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            task_deadline=0.15,
            task_runner=FaultInjector(
                hang_tasks_once=frozenset({0}), hang_seconds=1.5
            ),
        )
        with ThreadBackend(2) as backend:
            report = manager.run(backend)
        assert report.speculative_duplicates == 1
        assert report.tally == clean_tally(fast_config)


class TestCorruptResult:
    @pytest.mark.parametrize("kind", CORRUPT_KINDS)
    def test_rejected_and_retried(self, fast_config, kind):
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            task_runner=FaultInjector(
                corrupt_tasks_once=frozenset({1}), corrupt_kind=kind
            ),
        )
        report = manager.run(SerialBackend())
        assert report.retries == 1
        assert report.tally == clean_tally(fast_config)
        # The rejection was attributed to the offending worker.
        assert sum(s.failures for s in report.worker_health.values()) == 1

    def test_repeated_corruption_blacklists_worker(self, fast_config):
        # Three rejected results in a row from the (single) in-process
        # worker trip the blacklist flag.  In-process backends cannot
        # refuse work to a thread, so the run still completes — the flag
        # is diagnostic here and enforced by the NetworkServer.
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            blacklist_after=3,
            task_runner=FaultInjector(corrupt_tasks_once=frozenset({0, 1, 2})),
        )
        report = manager.run(SerialBackend())
        assert any(s.blacklisted for s in report.worker_health.values())
        assert report.tally == clean_tally(fast_config)


class TestBackoff:
    def test_backoff_run_still_bit_identical(self, fast_config):
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            retry_backoff=0.02,
            task_runner=FaultInjector(fail_tasks_once=frozenset({0, 2})),
        )
        report = manager.run(SerialBackend())
        assert report.retries == 2
        assert report.tally == clean_tally(fast_config)


class TestReportHealth:
    def test_per_worker_includes_health_fields(self, fast_config):
        manager = DataManager(
            fast_config, 300, seed=2, task_size=100,
            task_runner=FaultInjector(corrupt_tasks_once=frozenset({0})),
        )
        report = manager.run(SerialBackend())
        rows = report.per_worker()
        assert len(rows) == 1
        row = next(iter(rows.values()))
        assert row["tasks"] == 3.0
        assert row["failures"] == 1.0
        assert row["blacklisted"] is False
        assert row["mean_latency_seconds"] > 0

    def test_empty_run_report(self, fast_config):
        report = DataManager(fast_config, n_photons=0).run(SerialBackend())
        assert report.per_worker() == {}
        assert report.retries == 0
        assert report.speculative_duplicates == 0
        assert report.worker_health == {}
        assert report.tally.n_launched == 0
