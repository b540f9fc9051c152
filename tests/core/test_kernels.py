"""Tests of the transport kernels (scalar reference and vectorised).

Most cases are parametrised over both kernels: the physics contracts must
hold identically.  Budget, step-cap and capture contracts also run the
vectorised kernel on a voxel grid.  Cross-kernel statistical equivalence
has its own class.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RecordConfig,
    RouletteConfig,
    SimulationConfig,
    run_batch_scalar,
    run_batch_vectorized,
    specular_reflectance,
    task_rng,
)
from repro.detect import DiscDetector, GridSpec, PathlengthGate
from repro.sources import IsotropicPoint, PencilBeam
from repro.tissue import Layer, LayerStack, OpticalProperties
from repro.voxel import VoxelConfig, homogeneous_block, with_sphere

KERNELS = {
    "scalar": run_batch_scalar,
    "vector": run_batch_vectorized,
}


def run(kernel, config, n, seed=0):
    return KERNELS[kernel](config, n, task_rng(seed, 0))


@pytest.fixture(params=sorted(KERNELS))
def kernel(request):
    return request.param


@pytest.fixture(params=["scalar", "vector", "voxel"])
def kernel_and_config(request, fast_props, fast_stack):
    """A kernel and the fast medium it traces: the layer stack for both
    kernels, and for ``voxel`` the vectorised kernel on a two-material grid."""
    if request.param == "voxel":
        block = homogeneous_block(fast_props, (8, 8, 8), half_extent=4.0, depth=4.0)
        inclusion = OpticalProperties(mu_a=3.0, mu_s=5.0, g=0.5, n=1.4)
        medium = with_sphere(block, (0.0, 0.0, 1.0), 1.0, inclusion)
        return run_batch_vectorized, VoxelConfig(medium=medium, source=PencilBeam())
    config = SimulationConfig(stack=fast_stack, source=PencilBeam())
    return KERNELS[request.param], config


class TestEnergyConservation:
    def test_semi_infinite(self, kernel, fast_config):
        tally = run(kernel, fast_config, 500)
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)
        assert tally.transmittance == 0.0  # semi-infinite: nothing leaves below

    def test_finite_slab(self, kernel, fast_slab):
        config = SimulationConfig(stack=fast_slab, source=PencilBeam())
        tally = run(kernel, config, 500)
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)
        assert tally.transmittance > 0.0

    def test_multi_layer(self, kernel, three_layer_stack):
        config = SimulationConfig(stack=three_layer_stack, source=PencilBeam())
        tally = run(kernel, config, 500)
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)

    def test_classical_mode(self, kernel, fast_stack):
        config = SimulationConfig(
            stack=fast_stack, source=PencilBeam(), boundary_mode="classical"
        )
        tally = run(kernel, config, 500)
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)


class TestSpecular:
    def test_surface_launch_pays_specular(self, kernel, fast_config):
        tally = run(kernel, fast_config, 100)
        expected = specular_reflectance(1.0, 1.4)
        assert tally.specular_reflectance == pytest.approx(expected, rel=1e-12)

    def test_buried_source_no_specular(self, kernel, fast_stack):
        config = SimulationConfig(stack=fast_stack, source=IsotropicPoint(z0=1.0))
        tally = run(kernel, config, 100)
        assert tally.specular_weight == 0.0

    def test_matched_boundary_no_specular(self, kernel, matched_stack):
        config = SimulationConfig(stack=matched_stack, source=PencilBeam())
        tally = run(kernel, config, 100)
        assert tally.specular_weight == 0.0


class TestBeerLambert:
    """Ballistic (unscattered) transmission through an absorbing-only slab."""

    @pytest.mark.parametrize("mu_a,thickness", [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)])
    def test_absorbing_only_slab(self, kernel, mu_a, thickness):
        props = OpticalProperties(mu_a=mu_a, mu_s=0.0, g=0.0, n=1.0)
        stack = LayerStack.homogeneous(props, thickness)
        config = SimulationConfig(stack=stack, source=PencilBeam())
        n = 20_000 if kernel == "vector" else 2_000
        tally = run(kernel, config, n)
        # No scattering: photons fly straight; continuous absorption is
        # realised as discrete weighted interactions, so T = exp(-mu_a d)
        # in expectation.
        assert tally.transmittance == pytest.approx(
            np.exp(-mu_a * thickness), rel=0.05
        )
        assert tally.diffuse_reflectance == 0.0

    def test_transparent_slab_full_transmission(self, kernel):
        props = OpticalProperties(mu_a=0.0, mu_s=0.0, g=0.0, n=1.0)
        stack = LayerStack.homogeneous(props, 3.0)
        config = SimulationConfig(stack=stack, source=PencilBeam())
        tally = run(kernel, config, 100)
        assert tally.transmittance == pytest.approx(1.0)
        assert tally.total_absorbed_fraction == 0.0


class TestScatteringOnlyMedium:
    def test_no_absorption_all_weight_escapes(self, kernel):
        # mu_a = 0 in a slab: everything must eventually leave (R + T = 1).
        props = OpticalProperties(mu_a=0.0, mu_s=2.0, g=0.5, n=1.0)
        stack = LayerStack.homogeneous(props, 2.0)
        config = SimulationConfig(stack=stack, source=PencilBeam())
        n = 2_000 if kernel == "vector" else 300
        tally = run(kernel, config, n)
        assert tally.total_absorbed_fraction == 0.0
        total_out = tally.diffuse_reflectance + tally.transmittance
        assert total_out == pytest.approx(1.0, abs=1e-9)


class TestDetection:
    def test_detector_subsets_reflectance(self, kernel, fast_config):
        config = fast_config.with_(detector=DiscDetector(0.0, 0.0, radius=1.0))
        tally = run(kernel, config, 1_000)
        assert 0 < tally.detected_weight <= tally.diffuse_reflectance_weight
        assert 0 < tally.detected_count <= tally.n_launched

    def test_far_detector_detects_nothing(self, kernel, fast_config):
        config = fast_config.with_(detector=DiscDetector(1e6, 0.0, radius=0.1))
        tally = run(kernel, config, 200)
        assert tally.detected_count == 0

    def test_gate_reduces_detection(self, kernel, fast_config):
        open_tally = run(kernel, fast_config, 1_000)
        gated = fast_config.with_(gate=PathlengthGate(l_min=0.0, l_max=1.0))
        gated_tally = run(kernel, gated, 1_000)
        assert gated_tally.detected_count < open_tally.detected_count
        # Gating affects detection only, not the energy balance.
        assert gated_tally.diffuse_reflectance == pytest.approx(
            open_tally.diffuse_reflectance
        )

    def test_gated_pathlengths_inside_window(self, kernel, fast_config):
        gate = PathlengthGate(l_min=2.0, l_max=5.0)
        tally = run(kernel, fast_config.with_(gate=gate), 2_000)
        if tally.detected_count:
            assert tally.pathlength.minimum >= gate.l_min
            assert tally.pathlength.maximum < gate.l_max

    def test_pathlengths_are_optical(self, kernel, matched_stack):
        # In an n=1 medium the optical pathlength of any detected photon is
        # at least the geometric distance from source to exit (>= 0) and
        # the minimum over many photons approaches a couple of mean free
        # paths; just check positivity and finiteness here.
        config = SimulationConfig(stack=matched_stack, source=PencilBeam())
        tally = run(kernel, config, 500)
        assert tally.detected_count > 0
        assert tally.pathlength.minimum > 0
        assert np.isfinite(tally.pathlength.mean)


class TestPhotonBudget:
    def test_zero_photons(self, kernel_and_config):
        fn, config = kernel_and_config
        assert fn(config, 0, task_rng(0, 0)).n_launched == 0

    def test_negative_rejected(self, kernel_and_config):
        fn, config = kernel_and_config
        with pytest.raises(ValueError, match="n_photons"):
            fn(config, -1, task_rng(0, 0))


class TestMaxSteps:
    def test_cap_books_lost_weight(self, kernel_and_config):
        fn, config = kernel_and_config
        tally = fn(config.with_(max_steps=3), 300, task_rng(0, 0))
        assert tally.lost_weight > 0
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)


class TestCapturePaths:
    def test_capture_changes_no_other_field(self, kernel_and_config):
        fn, config = kernel_and_config
        captured = fn(config, 300, task_rng(4, 0), capture_paths=True)
        plain = fn(config, 300, task_rng(4, 0))
        assert plain.paths is None
        assert captured.paths.n_rows == captured.detected_count > 0
        # Capture draws no randomness: every tally field is bit-identical.
        assert captured == plain


class TestRunawayGuard:
    def test_transparent_semi_infinite_is_lost(self, kernel):
        props = OpticalProperties(mu_a=0.0, mu_s=0.0, g=0.0, n=1.0)
        stack = LayerStack.homogeneous(props)  # semi-infinite vacuum
        config = SimulationConfig(stack=stack, source=PencilBeam())
        tally = run(kernel, config, 50)
        assert tally.lost_weight == pytest.approx(50.0)


class TestRecordings:
    def test_absorption_grid_accounts_for_absorbed_weight(self, kernel, fast_stack):
        spec = GridSpec.cube(16, 20.0, 20.0)
        config = SimulationConfig(
            stack=fast_stack,
            source=PencilBeam(),
            records=RecordConfig(absorption_grid=spec),
        )
        n = 1_000 if kernel == "vector" else 200
        tally = run(kernel, config, n)
        in_grid = tally.absorption_grid.sum()
        total = tally.absorbed_by_layer.sum()
        # The grid is a 20 mm window; almost all absorption in the fast
        # medium happens within it.
        assert in_grid == pytest.approx(total, rel=0.05)
        assert in_grid <= total + 1e-9

    def test_path_grid_only_detected(self, kernel, fast_stack):
        spec = GridSpec.cube(16, 10.0, 10.0)
        config = SimulationConfig(
            stack=fast_stack,
            source=PencilBeam(),
            detector=DiscDetector(1e6, 0.0, radius=0.1),  # detects nothing
            records=RecordConfig(path_grid=spec),
        )
        tally = run(kernel, config, 200)
        assert tally.detected_count == 0
        assert tally.path_grid.sum() == 0.0

    def test_path_grid_populated_when_detected(self, kernel, fast_stack):
        spec = GridSpec.cube(16, 10.0, 10.0)
        config = SimulationConfig(
            stack=fast_stack,
            source=PencilBeam(),
            records=RecordConfig(path_grid=spec),
        )
        tally = run(kernel, config, 300)
        assert tally.detected_count > 0
        assert tally.path_grid.sum() > 0.0

    def test_penetration_histogram_counts_all_photons(self, kernel, fast_stack):
        config = SimulationConfig(
            stack=fast_stack,
            source=PencilBeam(),
            records=RecordConfig(penetration_bins=(50.0, 100)),
        )
        n = 400
        tally = run(kernel, config, n)
        assert tally.penetration_hist.total == pytest.approx(float(n))

    def test_reflectance_rho_histogram(self, kernel, fast_config):
        config = fast_config.with_(
            records=RecordConfig(reflectance_rho_bins=(50.0, 25))
        )
        tally = run(kernel, config, 500)
        # Escaping weight within the histogram radius is (almost) all of Rd.
        assert tally.reflectance_rho_hist.total == pytest.approx(
            tally.diffuse_reflectance_weight, rel=0.02
        )


class TestCrossKernelAgreement:
    """The two kernels must agree statistically on every headline quantity."""

    N_VECTOR = 20_000
    N_SCALAR = 2_000

    @pytest.fixture(scope="class")
    def pair(self, request):
        props = OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.4)
        stack = LayerStack.homogeneous(props)
        config = SimulationConfig(
            stack=stack,
            source=PencilBeam(),
            records=RecordConfig(penetration_bins=(30.0, 50)),
        )
        vector = run_batch_vectorized(config, self.N_VECTOR, task_rng(1, 0))
        scalar = run_batch_scalar(config, self.N_SCALAR, task_rng(2, 0))
        return vector, scalar

    def test_diffuse_reflectance(self, pair):
        # Rd ~ 0.073 with per-photon std ~ 0.15: the scalar estimate has
        # SE ~ 0.003, so a 12% relative tolerance is ~3 sigma.
        vector, scalar = pair
        assert vector.diffuse_reflectance == pytest.approx(
            scalar.diffuse_reflectance, rel=0.12
        )

    def test_absorbed_fraction(self, pair):
        # A ~ 0.9: relative fluctuations are tiny.
        vector, scalar = pair
        assert vector.total_absorbed_fraction == pytest.approx(
            scalar.total_absorbed_fraction, rel=0.02
        )

    def test_mean_pathlength(self, pair):
        vector, scalar = pair
        assert vector.pathlength.mean == pytest.approx(scalar.pathlength.mean, rel=0.1)

    def test_mean_penetration(self, pair):
        vector, scalar = pair
        v = vector.penetration_hist
        s = scalar.penetration_hist
        v_mean = (v.centres * v.counts).sum() / v.total
        s_mean = (s.centres * s.counts).sum() / s.total
        assert v_mean == pytest.approx(s_mean, rel=0.1)
