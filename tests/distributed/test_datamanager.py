"""Tests for the DataManager, backends and fault handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Simulation, SimulationConfig
from repro.distributed import (
    DataManager,
    FaultInjector,
    NetworkServer,
    SerialBackend,
    TaskFailedError,
    ThreadBackend,
    WorkerCrash,
    execute_task,
)
from repro.distributed.protocol import TaskSpec
from repro.sources import PencilBeam


@pytest.fixture
def small_manager(fast_config):
    return DataManager(fast_config, n_photons=500, seed=3, task_size=100)


def tallies_equal(a, b) -> bool:
    keys = a.summary().keys()
    sa, sb = a.summary(), b.summary()
    return all(
        (np.isnan(sa[k]) and np.isnan(sb[k])) or sa[k] == sb[k] for k in keys
    )


class TestTaskDecomposition:
    def test_task_list(self, fast_config):
        manager = DataManager(fast_config, n_photons=250, task_size=100)
        tasks = manager.tasks()
        assert [t.n_photons for t in tasks] == [100, 100, 50]
        assert [t.task_index for t in tasks] == [0, 1, 2]

    def test_validation(self, fast_config):
        with pytest.raises(ValueError, match="n_photons"):
            DataManager(fast_config, n_photons=-1)
        with pytest.raises(ValueError, match="task_size"):
            DataManager(fast_config, n_photons=1, task_size=0)
        with pytest.raises(ValueError, match="max_retries"):
            DataManager(fast_config, n_photons=1, max_retries=-1)


class TestSerialRun:
    def test_merged_tally_complete(self, small_manager):
        report = small_manager.run(SerialBackend())
        assert report.tally.n_launched == 500
        assert report.n_tasks == 5
        assert report.tally.energy_balance == pytest.approx(1.0, abs=1e-9)

    def test_zero_photons(self, fast_config):
        manager = DataManager(fast_config, n_photons=0)
        report = manager.run(SerialBackend())
        assert report.tally.n_launched == 0
        assert report.n_tasks == 0

    def test_zero_photons_report_well_formed(self, fast_config):
        """A 0-photon run with telemetry still yields a complete report."""
        from repro.observe import Telemetry

        tel = Telemetry.in_memory()
        manager = DataManager(fast_config, n_photons=0, telemetry=tel)
        report = manager.run(SerialBackend())
        assert report.task_results == []
        assert report.retries == 0
        assert report.speculative_duplicates == 0
        assert report.per_worker() == {}
        assert report.wall_seconds >= 0.0
        assert report.metrics is not None
        assert report.tally.energy_balance != report.tally.energy_balance  # NaN

    def test_sub_task_size_run_is_single_task(self, fast_config):
        """n_photons < task_size collapses to one task, bitwise == serial."""
        manager = DataManager(fast_config, n_photons=30, seed=4, task_size=100)
        report = manager.run(SerialBackend())
        assert report.n_tasks == 1
        assert report.task_results[0].photons == 30
        serial = Simulation(fast_config).run(30, seed=4, task_size=100)
        assert report.tally == serial

    def test_matches_simulation_facade_exactly(self, fast_config):
        """Distributed == serial: the headline reproducibility guarantee."""
        manager = DataManager(fast_config, n_photons=400, seed=9, task_size=150)
        distributed = manager.run(SerialBackend()).tally
        serial = Simulation(fast_config).run(400, seed=9, task_size=150)
        assert tallies_equal(distributed, serial)

    def test_progress_callback(self, small_manager):
        seen = []
        small_manager.progress = lambda done, total: seen.append((done, total))
        small_manager.run(SerialBackend())
        assert seen == [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]


class TestThreadRun:
    def test_result_independent_of_worker_count(self, fast_config):
        manager = DataManager(fast_config, n_photons=300, seed=5, task_size=60)
        with ThreadBackend(1) as one, ThreadBackend(4) as four:
            t1 = manager.run(one).tally
            t4 = manager.run(four).tally
        assert tallies_equal(t1, t4)

    def test_worker_utilisation_reported(self, fast_config):
        manager = DataManager(fast_config, n_photons=200, seed=1, task_size=50)
        with ThreadBackend(2) as backend:
            report = manager.run(backend)
        per_worker = report.per_worker()
        assert sum(int(v["tasks"]) for v in per_worker.values()) == 4
        assert report.busy_seconds > 0


class TestFaultHandling:
    def test_transient_failures_retried(self, fast_config):
        manager = DataManager(
            fast_config,
            n_photons=300,
            seed=2,
            task_size=100,
            task_runner=FaultInjector(fail_tasks_once=frozenset({1})),
        )
        report = manager.run(SerialBackend())
        assert report.retries == 1
        assert report.tally.n_launched == 300

    def test_retried_result_identical_to_clean_run(self, fast_config):
        clean = DataManager(fast_config, n_photons=300, seed=2, task_size=100)
        faulty = DataManager(
            fast_config,
            n_photons=300,
            seed=2,
            task_size=100,
            task_runner=FaultInjector(fail_tasks_once=frozenset({0, 2})),
        )
        assert tallies_equal(
            clean.run(SerialBackend()).tally, faulty.run(SerialBackend()).tally
        )

    def test_permanent_failure_raises(self, fast_config):
        manager = DataManager(
            fast_config,
            n_photons=200,
            seed=0,
            task_size=100,
            max_retries=2,
            task_runner=FaultInjector(fail_tasks_always=frozenset({1})),
        )
        with pytest.raises(TaskFailedError) as exc_info:
            manager.run(SerialBackend())
        assert exc_info.value.task.task_index == 1
        assert exc_info.value.attempts == 3  # initial + 2 retries
        assert isinstance(exc_info.value.last_error, WorkerCrash)

    def test_stochastic_faults_eventually_complete(self, fast_config):
        manager = DataManager(
            fast_config,
            n_photons=400,
            seed=4,
            task_size=50,
            max_retries=10,
            task_runner=FaultInjector(fail_probability=0.3, seed=1),
        )
        report = manager.run(SerialBackend())
        assert report.tally.n_launched == 400
        assert report.retries > 0  # 8 tasks at 30% failure: ~1 - 0.7^8 = 94%


class TestFaultInjector:
    def test_validation(self):
        with pytest.raises(ValueError, match="fail_probability"):
            FaultInjector(fail_probability=1.0)

    def test_clean_injector_executes(self, fast_config):
        result = FaultInjector()(fast_config, TaskSpec(0, 50, 0))
        assert result.tally.n_launched == 50

    def test_once_fails_only_once(self, fast_config):
        injector = FaultInjector(fail_tasks_once=frozenset({0}))
        with pytest.raises(WorkerCrash):
            injector(fast_config, TaskSpec(0, 10, 0))
        result = injector(fast_config, TaskSpec(0, 10, 0), attempt=2)
        assert result.attempt == 2


class TestExecuteTask:
    def test_result_metadata(self, fast_config):
        result = execute_task(fast_config, TaskSpec(2, 100, 7))
        assert result.task_index == 2
        assert result.tally.n_launched == 100
        assert result.elapsed_seconds > 0
        assert "pid-" in result.worker_id

    def test_deterministic_per_task(self, fast_config):
        a = execute_task(fast_config, TaskSpec(1, 100, 3))
        b = execute_task(fast_config, TaskSpec(1, 100, 3))
        assert tallies_equal(a.tally, b.tally)


class TestPositionalDeprecation:
    """The positional tail, deprecated since PR 2, is gone: keywords only."""

    def test_keyword_construction_is_silent(self, fast_config):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            manager = DataManager(fast_config, 100, seed=7, task_size=50)
        assert (manager.seed, manager.task_size) == (7, 50)
        assert manager.run(SerialBackend()).tally.n_launched == 100

    @pytest.mark.parametrize("cls", [DataManager, NetworkServer])
    def test_positional_tail_is_a_type_error(self, fast_config, cls):
        with pytest.raises(TypeError, match="positional"):
            cls(fast_config, 100, 7, 50)
