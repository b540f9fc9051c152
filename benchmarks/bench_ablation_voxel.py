"""Ablation — voxelised vs analytic layered representation.

The paper (§2): the Monte Carlo method "can be applied to an inhomogeneous
medium of complex geometry".  This bench runs the vectorised kernel on a
voxel grid and on the analytic layer stack it voxelises, checks the two
agree on the same physics, measures the voxelisation overhead, and
demonstrates a genuinely heterogeneous case (an absorbing inclusion) that
the layered representation cannot express.
"""

from __future__ import annotations

import time

import pytest
from conftest import scaled

from repro.core import (
    RouletteConfig,
    SimulationConfig,
    run_batch_vectorized,
    task_rng,
)
from repro.io import format_table
from repro.sources import PencilBeam
from repro.tissue import Layer, LayerStack, OpticalProperties
from repro.voxel import VoxelConfig, from_layers, run_voxel, with_sphere

ROULETTE = RouletteConfig(threshold=1e-3, boost=10)
STACK = LayerStack(
    [
        Layer("superficial", OpticalProperties(mu_a=0.5, mu_s=8.0, g=0.8, n=1.4), 2.0),
        Layer("deep", OpticalProperties(mu_a=1.0, mu_s=12.0, g=0.9, n=1.4), 4.0),
    ]
)


def run_pair():
    n = scaled(25_000)

    layered_config = SimulationConfig(
        stack=STACK, source=PencilBeam(), roulette=ROULETTE
    )
    t0 = time.perf_counter()
    layered = run_batch_vectorized(layered_config, n, task_rng(51, 0))
    t_layered = time.perf_counter() - t0

    medium = from_layers(STACK, (40, 40, 30), half_extent=20.0)
    voxel_config = VoxelConfig(medium=medium, source=PencilBeam(), roulette=ROULETTE)
    t0 = time.perf_counter()
    voxel = run_voxel(voxel_config, n, seed=52)
    t_voxel = time.perf_counter() - t0

    # The heterogeneous case: an absorbing sphere in the deep layer.
    inclusion = OpticalProperties(mu_a=10.0, mu_s=12.0, g=0.9, n=1.4)
    hetero = with_sphere(medium, (0.0, 0.0, 3.0), 1.2, inclusion)
    hetero_tally = run_voxel(
        VoxelConfig(medium=hetero, source=PencilBeam(), roulette=ROULETTE),
        n, seed=53,
    )
    return (layered, t_layered), (voxel, t_voxel), hetero_tally, n


def test_ablation_voxel_representation(benchmark, report):
    (layered, t_l), (voxel, t_v), hetero, n = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )

    report("\n=== Ablation: voxelised vs analytic layered representation ===")
    report(format_table(
        ["kernel", "photons/s", "R_d", "T_d", "A", "balance"],
        [
            ["layered (analytic)", n / t_l, layered.diffuse_reflectance,
             layered.transmittance, layered.total_absorbed_fraction,
             layered.energy_balance],
            ["voxel (40x40x30)", n / t_v, voxel.diffuse_reflectance,
             voxel.transmittance, voxel.total_absorbed_fraction,
             voxel.energy_balance],
        ],
        float_format="{:.4g}",
    ))
    report(f"\nvoxelisation cost: {t_v / t_l:.1f}x slower than analytic layers")

    report("\nwith an absorbing sphere (r=1.2 mm) in the deep layer:")
    report(format_table(
        ["material", "absorbed fraction"],
        [["superficial", hetero.absorbed_fraction[0]],
         ["deep", hetero.absorbed_fraction[1]],
         ["inclusion", hetero.absorbed_fraction[2]]],
        float_format="{:.4f}",
    ))

    # --- agreement on identical physics -----------------------------------------
    assert voxel.diffuse_reflectance == pytest.approx(
        layered.diffuse_reflectance, rel=0.06
    )
    assert voxel.total_absorbed_fraction == pytest.approx(
        layered.total_absorbed_fraction, rel=0.03
    )
    assert voxel.transmittance == pytest.approx(layered.transmittance, rel=0.25)
    assert voxel.energy_balance == pytest.approx(1.0, abs=1e-9)
    # --- the inclusion does real work --------------------------------------------
    volume_share = 4 / 3 * 3.14159 * 1.2**3 / (40.0 * 40.0 * 6.0)
    absorbed_share = hetero.absorbed_fraction[2] / hetero.total_absorbed_fraction
    assert absorbed_share > 10 * volume_share
