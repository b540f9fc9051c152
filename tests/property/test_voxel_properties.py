"""Property-based tests for the voxel subsystem."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RouletteConfig, run_batch_vectorized, task_rng
from repro.sources import PencilBeam
from repro.tissue import OpticalProperties
from repro.voxel import VoxelConfig, VoxelMedium


@st.composite
def random_media(draw):
    """Small random two-material media (always fast to simulate)."""
    shape = (
        draw(st.integers(2, 8)),
        draw(st.integers(2, 8)),
        draw(st.integers(2, 8)),
    )
    seed = draw(st.integers(0, 2**31))
    labels = np.random.default_rng(seed).integers(0, 2, size=shape).astype(np.uint8)
    mat_a = OpticalProperties(
        mu_a=draw(st.floats(0.2, 3.0)),
        mu_s=draw(st.floats(0.2, 8.0)),
        g=draw(st.floats(-0.5, 0.9)),
        n=1.4,
    )
    mat_b = OpticalProperties(
        mu_a=draw(st.floats(0.2, 3.0)),
        mu_s=draw(st.floats(0.2, 8.0)),
        g=draw(st.floats(-0.5, 0.9)),
        n=1.4,
    )
    return VoxelMedium(
        labels=labels,
        materials=(mat_a, mat_b),
        half_extent=draw(st.floats(1.0, 10.0)),
        depth=draw(st.floats(1.0, 6.0)),
    )


class TestVoxelInvariants:
    @given(medium=random_media(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_energy_conserved_on_random_media(self, medium, seed):
        config = VoxelConfig(
            medium=medium,
            source=PencilBeam(),
            roulette=RouletteConfig(threshold=1e-2, boost=10),
        )
        tally = run_batch_vectorized(config, 150, task_rng(seed, 0))
        assert tally.energy_balance == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= tally.diffuse_reflectance <= 1.0
        assert 0.0 <= tally.transmittance <= 1.0
        assert (tally.absorbed_fraction >= 0).all()

    @given(medium=random_media())
    @settings(max_examples=20, deadline=None)
    def test_volume_fractions_sum_to_one(self, medium):
        assert medium.material_volume_fractions().sum() == pytest.approx(1.0)

    @given(
        medium=random_media(),
        x=st.floats(-100.0, 100.0),
        y=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_label_lookup_never_fails_laterally(self, medium, x, y):
        z = medium.depth / 2.0
        label = medium.label_at(np.array([x]), np.array([y]), np.array([z]))
        assert 0 <= label[0] < medium.n_materials
