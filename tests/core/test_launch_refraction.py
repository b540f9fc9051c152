"""Tests for angle-dependent launch physics (specular + Snell at entry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SimulationConfig,
    Tally,
    fresnel_reflectance,
    run_batch_scalar,
    run_batch_vectorized,
    specular_reflectance,
    task_rng,
)
from repro.sources import PencilBeam
from repro.tissue import LayerStack, OpticalProperties
from repro.voxel import VoxelConfig, homogeneous_block

PROPS = OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.4)


def config_with_tilt(tilt: float) -> SimulationConfig:
    return SimulationConfig(
        stack=LayerStack.homogeneous(PROPS), source=PencilBeam(tilt=tilt)
    )


def voxel_grid(config: SimulationConfig, n: int, rng) -> Tally:
    """The vectorised kernel on the same medium, voxelised."""
    block = homogeneous_block(PROPS, (16, 16, 16), half_extent=8.0, depth=8.0)
    voxels = VoxelConfig(medium=block, source=config.source)
    return run_batch_vectorized(voxels, n, rng)


#: Both kernels on the layer stack, and the vectorised one on a voxel grid.
KERNELS = [run_batch_scalar, run_batch_vectorized, pytest.param(voxel_grid, id="voxel")]


class TestNormalIncidence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_classic_specular(self, kernel):
        tally = kernel(config_with_tilt(0.0), 200, task_rng(0, 0))
        expected = specular_reflectance(1.0, 1.4)
        assert tally.specular_reflectance == pytest.approx(expected, rel=1e-12)


class TestTiltedIncidence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_specular_grows_with_tilt(self, kernel):
        normal = kernel(config_with_tilt(0.0), 100, task_rng(1, 0))
        tilted = kernel(config_with_tilt(1.2), 100, task_rng(1, 0))
        assert tilted.specular_reflectance > normal.specular_reflectance

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_specular_equals_fresnel_at_angle(self, kernel):
        tilt = 0.8
        tally = kernel(config_with_tilt(tilt), 100, task_rng(2, 0))
        expected = float(fresnel_reflectance(np.cos(tilt), 1.0, 1.4))
        assert tally.specular_reflectance == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_energy_conserved_with_tilt(self, kernel):
        tally = kernel(config_with_tilt(1.0), 300, task_rng(3, 0))
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)


class TestSnellRefractionAtEntry:
    def test_refracted_direction_statistics(self):
        """A strongly tilted beam in a forward-scattering medium deposits
        its first-interaction energy displaced along +x by the *refracted*
        angle, not the incident one."""
        from repro.core import RecordConfig
        from repro.detect import GridSpec

        # Ballistic absorption along the entry ray; the grid is much finer
        # than the mean free path so voxel-centre binning cannot bias the
        # deposit centroid.
        props = OpticalProperties(mu_a=1.0, mu_s=0.0, g=0.0, n=1.5)
        tilt = 1.0  # 57 degrees in air
        spec = GridSpec.cube(120, 12.0, 12.0)
        config = SimulationConfig(
            stack=LayerStack.homogeneous(props, 12.0),
            source=PencilBeam(tilt=tilt),
            records=RecordConfig(absorption_grid=spec),
        )
        tally = run_batch_vectorized(config, 5_000, task_rng(5, 0))
        grid = tally.absorption_grid
        x = spec.axis_centres(0)
        z = spec.axis_centres(2)
        w = grid.sum(axis=1)  # (x, z)
        x_mean = (w.sum(axis=1) * x).sum() / w.sum()
        z_mean = (w.sum(axis=0) * z).sum() / w.sum()
        observed_tan = x_mean / z_mean
        # Snell: sin(t) = sin(tilt)/1.5.
        sin_t = np.sin(tilt) / 1.5
        expected_tan = sin_t / np.sqrt(1 - sin_t**2)
        incident_tan = np.tan(tilt)
        assert observed_tan == pytest.approx(expected_tan, rel=0.05)
        assert abs(observed_tan - incident_tan) > 0.3  # clearly not unrefracted
