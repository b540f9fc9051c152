"""Tests for voxel media traced by the vectorised kernel.

The key validation is cross-geometry: a voxelised layer stack must
reproduce the analytic layer stack's physics within Monte Carlo statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RecordConfig,
    RouletteConfig,
    Simulation,
    SimulationConfig,
    run_batch_vectorized,
    task_rng,
)
from repro.detect import DiscDetector, GridSpec, PathlengthGate
from repro.sources import PencilBeam
from repro.tissue import Layer, LayerStack, OpticalProperties
from repro.voxel import (
    VoxelConfig,
    from_layers,
    homogeneous_block,
    run_voxel,
    with_sphere,
)

FAST = OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.4)
ROULETTE = RouletteConfig(threshold=1e-3, boost=10)


def voxel_config(medium, **kw) -> VoxelConfig:
    defaults = dict(source=PencilBeam(), roulette=ROULETTE)
    defaults.update(kw)
    return VoxelConfig(medium=medium, **defaults)


class TestEnergyConservation:
    def test_homogeneous_block(self):
        block = homogeneous_block(FAST, (20, 20, 20), half_extent=10.0, depth=5.0)
        tally = run_voxel(voxel_config(block), 2_000, seed=1)
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)
        assert tally.transmittance >= 0.0

    def test_with_inclusion(self):
        block = homogeneous_block(FAST, (16, 16, 16), half_extent=8.0, depth=4.0)
        medium = with_sphere(
            block, (0.0, 0.0, 1.0), 1.0,
            OpticalProperties(mu_a=5.0, mu_s=2.0, g=0.5, n=1.4),
        )
        tally = run_voxel(voxel_config(medium), 2_000, seed=2)
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)
        # Both materials absorb.
        assert (tally.absorbed_fraction > 0).all()


class TestAgainstLayeredKernel:
    """A voxelised slab reproduces the analytic slab."""

    N = 20_000

    @pytest.fixture(scope="class")
    def pair(self):
        stack = LayerStack.homogeneous(FAST, 5.0)
        layered_config = SimulationConfig(
            stack=stack, source=PencilBeam(), roulette=ROULETTE
        )
        layered = run_batch_vectorized(layered_config, self.N, task_rng(10, 0))

        medium = from_layers(stack, (30, 30, 25), half_extent=15.0)
        voxel = run_voxel(voxel_config(medium), self.N, seed=11)
        return layered, voxel

    def test_reflectance(self, pair):
        layered, voxel = pair
        assert voxel.diffuse_reflectance == pytest.approx(
            layered.diffuse_reflectance, rel=0.08
        )

    def test_absorption(self, pair):
        layered, voxel = pair
        assert voxel.total_absorbed_fraction == pytest.approx(
            layered.total_absorbed_fraction, rel=0.02
        )

    def test_specular(self, pair):
        layered, voxel = pair
        assert voxel.specular_reflectance == pytest.approx(
            layered.specular_reflectance, rel=1e-9
        )

    def test_multilayer_absorption_split(self, three_layer_stack):
        """Per-layer absorption matches between representations."""
        layered_config = SimulationConfig(
            stack=three_layer_stack, source=PencilBeam(), roulette=ROULETTE
        )
        layered = run_batch_vectorized(layered_config, 20_000, task_rng(12, 0))

        medium = from_layers(three_layer_stack, (24, 24, 48),
                             half_extent=12.0, depth=12.0)
        voxel = run_voxel(voxel_config(medium), 20_000, seed=13)
        # Compare the dominant layers' absorbed fractions.
        for i in range(3):
            if layered.absorbed_fraction[i] > 0.01:
                assert voxel.absorbed_fraction[i] == pytest.approx(
                    layered.absorbed_fraction[i], rel=0.15
                )


class TestInclusionPhysics:
    def test_absorbing_sphere_casts_shadow(self):
        """An absorbing inclusion under the beam eats transmission."""
        base = homogeneous_block(
            OpticalProperties(mu_a=0.1, mu_s=2.0, g=0.5, n=1.0),
            (20, 20, 20), half_extent=10.0, depth=4.0,
        )
        absorber = OpticalProperties(mu_a=20.0, mu_s=2.0, g=0.5, n=1.0)
        on_axis = with_sphere(base, (0.0, 0.0, 1.0), 1.0, absorber)
        off_axis = with_sphere(base, (7.0, 7.0, 1.0), 1.0, absorber)

        t_clear = run_voxel(voxel_config(base), 5_000, seed=4).transmittance
        t_on = run_voxel(voxel_config(on_axis), 5_000, seed=4).transmittance
        t_off = run_voxel(voxel_config(off_axis), 5_000, seed=4).transmittance

        assert t_on < 0.7 * t_clear  # the shadow
        assert abs(t_off - t_clear) < 0.15 * t_clear  # off-beam barely matters

    def test_inclusion_absorption_localised(self):
        base = homogeneous_block(FAST, (16, 16, 16), half_extent=8.0, depth=4.0)
        medium = with_sphere(
            base, (0.0, 0.0, 0.5), 0.8,
            OpticalProperties(mu_a=10.0, mu_s=10.0, g=0.8, n=1.4),
        )
        tally = run_voxel(voxel_config(medium), 4_000, seed=5)
        # The tiny sphere sits right under the beam: it captures a
        # disproportionate share of the absorbed energy.
        volume_share = medium.material_volume_fractions()[1]
        absorbed_share = tally.absorbed_fraction[1] / tally.total_absorbed_fraction
        assert absorbed_share > 5 * volume_share


class TestDetectionAndRecording:
    def test_detector_and_gate(self):
        block = homogeneous_block(FAST, (20, 20, 10), half_extent=10.0, depth=5.0)
        config = voxel_config(
            block,
            detector=DiscDetector(0.0, 0.0, radius=2.0),
            gate=PathlengthGate(0.0, 10.0),
        )
        tally = run_voxel(config, 3_000, seed=6)
        assert 0 < tally.detected_count < 3_000
        assert tally.pathlength.maximum < 10.0

    def test_absorption_grid(self):
        block = homogeneous_block(FAST, (16, 16, 8), half_extent=8.0, depth=4.0)
        spec = GridSpec.cube(8, 8.0, 4.0)
        config = voxel_config(block, records=RecordConfig(absorption_grid=spec))
        tally = run_voxel(config, 2_000, seed=7)
        assert tally.absorption_grid.sum() == pytest.approx(
            tally.absorbed_by_layer.sum(), rel=0.05
        )

    def test_path_grid_detected_only(self):
        block = homogeneous_block(FAST, (16, 16, 8), half_extent=8.0, depth=4.0)
        spec = GridSpec.cube(8, 8.0, 4.0)
        config = voxel_config(
            block,
            detector=DiscDetector(1e6, 0.0, radius=0.1),
            records=RecordConfig(path_grid=spec),
        )
        tally = run_voxel(config, 500, seed=8)
        assert tally.detected_count == 0
        assert tally.path_grid.sum() == 0.0

    def test_penetration_histogram(self):
        block = homogeneous_block(FAST, (8, 8, 8), half_extent=4.0, depth=4.0)
        config = voxel_config(block, records=RecordConfig(penetration_bins=(10.0, 20)))
        n = 400
        tally = run_voxel(config, n, seed=9)
        assert tally.penetration_hist.total == pytest.approx(float(n))


class TestDistributedIntegration:
    def test_voxel_kernel_through_datamanager(self):
        """VoxelConfig rides the standard distributed machinery."""
        from repro.distributed import DataManager, SerialBackend

        block = homogeneous_block(FAST, (12, 12, 8), half_extent=6.0, depth=4.0)
        config = voxel_config(block)
        manager = DataManager(config, n_photons=600, seed=3, task_size=200)
        report = manager.run(SerialBackend())
        assert report.tally.n_launched == 600
        assert report.tally.energy_balance == pytest.approx(1.0, abs=1e-9)
        # Identical to the facade decomposition.
        direct = run_voxel(config, 600, seed=3, task_size=200)
        assert report.tally.summary() == direct.summary()

    def test_simulation_facade_default_kernel(self):
        block = homogeneous_block(FAST, (8, 8, 8), half_extent=4.0, depth=4.0)
        tally = Simulation(voxel_config(block)).run(50)
        assert tally.n_launched == 50
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)

    def test_scalar_kernel_rejects_voxel_config(self):
        block = homogeneous_block(FAST, (4, 4, 4), half_extent=2.0, depth=2.0)
        with pytest.raises(ValueError, match="'scalar'.*VoxelConfig"):
            Simulation(voxel_config(block)).run(5, kernel="scalar")


class TestKernelEdgeCases:
    def test_transparent_voxels_traversed(self):
        """A transparent gap between two absorbing slabs is crossed cleanly."""
        clear = OpticalProperties(mu_a=0.0, mu_s=0.0, g=0.0, n=1.0)
        dense = OpticalProperties(mu_a=2.0, mu_s=5.0, g=0.5, n=1.0)
        stack = LayerStack(
            [Layer("top", dense, 1.0), Layer("gap", clear, 1.0),
             Layer("bottom", dense, 1.0)]
        )
        medium = from_layers(stack, (10, 10, 30), half_extent=5.0)
        tally = run_voxel(voxel_config(medium), 2_000, seed=2)
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)
        # The gap absorbs nothing; both dense slabs absorb.
        assert tally.absorbed_fraction[1] == 0.0
        assert tally.absorbed_fraction[0] > 0.0
        assert tally.absorbed_fraction[2] > 0.0
