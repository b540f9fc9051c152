"""Tests for the Simulation facade and the canonical task decomposition."""

from __future__ import annotations

from typing import get_args

import numpy as np
import pytest

from repro.core import KernelName, Simulation, run_photons, split_photons, task_rng
from repro.core.simulation import _KERNELS


class TestSplitPhotons:
    def test_exact_division(self):
        assert split_photons(300, 100) == [100, 100, 100]

    def test_remainder(self):
        assert split_photons(250, 100) == [100, 100, 50]

    def test_small_budget(self):
        assert split_photons(5, 100) == [5]

    def test_zero(self):
        assert split_photons(0, 100) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="n_photons"):
            split_photons(-1, 10)
        with pytest.raises(ValueError, match="task_size"):
            split_photons(10, 0)


class TestRunPhotons:
    def test_unknown_kernel(self, fast_config):
        with pytest.raises(ValueError, match="unknown kernel"):
            run_photons(fast_config, 10, task_rng(0, 0), "warp")

    def test_kernel_registry_contains_both(self):
        assert set(_KERNELS) == {"vector", "scalar"} == set(get_args(KernelName))

    def test_dispatch_equivalence(self, fast_config):
        direct = run_photons(fast_config, 100, task_rng(1, 0), "vector")
        from repro.core import run_batch_vectorized

        again = run_batch_vectorized(fast_config, 100, task_rng(1, 0))
        assert direct.summary() == again.summary()


class TestSimulationFacade:
    def test_basic_run(self, fast_config):
        tally = Simulation(fast_config).run(200, seed=1)
        assert tally.n_launched == 200
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)

    def test_zero_photons(self, fast_config):
        tally = Simulation(fast_config).run(0)
        assert tally.n_launched == 0
        assert np.isnan(tally.diffuse_reflectance)

    def test_reproducible(self, fast_config):
        a = Simulation(fast_config).run(150, seed=3)
        b = Simulation(fast_config).run(150, seed=3)
        assert a.summary() == b.summary()

    def test_seed_matters(self, fast_config):
        a = Simulation(fast_config).run(150, seed=3)
        b = Simulation(fast_config).run(150, seed=4)
        assert a.diffuse_reflectance != b.diffuse_reflectance

    def test_task_size_changes_streams_not_physics(self, fast_config):
        one = Simulation(fast_config).run(400, seed=5, task_size=400)
        split = Simulation(fast_config).run(400, seed=5, task_size=100)
        # Different stream decomposition -> different realisation ...
        assert one.diffuse_reflectance != split.diffuse_reflectance
        # ... same physics.
        assert one.diffuse_reflectance == pytest.approx(
            split.diffuse_reflectance, rel=0.3
        )

    def test_scalar_kernel_selectable(self, fast_config):
        tally = Simulation(fast_config).run(50, seed=1, kernel="scalar")
        assert tally.n_launched == 50


class TestKernelTelemetryForwarding:
    """Telemetry reaches the kernel."""

    def test_declaring_kernel_is_traced(self, fast_config):
        from repro.observe import Telemetry

        tel = Telemetry.in_memory()
        run_photons(fast_config, 50, task_rng(0, 0), "vector", telemetry=tel)
        assert any(e["event"] == "span_start" for e in tel.sink.events)
