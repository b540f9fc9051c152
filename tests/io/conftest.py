"""Fixtures for the persistence and codec tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RecordConfig, Tally
from repro.core.reduce import TallyFrontier
from repro.detect import GridSpec
from repro.detect.records import PathRecords

#: Every optional recording switched on, on grids small enough to read.
HAND_RECORDS = RecordConfig(
    absorption_grid=GridSpec(shape=(2, 2, 3), lo=(-1.0, -1.0, 0.0), hi=(1.0, 1.0, 3.0)),
    path_grid=GridSpec(shape=(2, 1, 2), lo=(-1.0, -1.0, 0.0), hi=(1.0, 1.0, 2.0)),
    pathlength_bins=(0.0, 10.0, 4),
    reflectance_rho_bins=(5.0, 3),
    penetration_bins=(6.0, 2),
)


def _hand_tally(scale: float) -> Tally:
    """A 3-layer tally with every field set by hand — no kernel run."""
    t = Tally(
        n_layers=3,
        records=HAND_RECORDS,
        n_launched=int(8 * scale),
        specular_weight=0.25 * scale,
        diffuse_reflectance_weight=1.5 * scale,
        transmittance_weight=0.125 * scale,
        lost_weight=0.0,
        roulette_net_weight=-0.0625 * scale,
        detected_count=int(2 * scale),
        detected_weight=0.75 * scale,
    )
    t.absorbed_by_layer[:] = np.array([2.5, 1.25, 0.375]) * scale
    t.absorption_grid[:] = np.arange(12.0).reshape(2, 2, 3) * 0.125 * scale
    t.path_grid[:] = np.arange(4.0).reshape(2, 1, 2) * 0.5 * scale
    t.pathlength.add(np.array([1.5, 2.25]) * scale, np.array([0.5, 0.25]))
    t.penetration_depth.add(np.array([0.75, 1.0]) * scale, np.array([0.5, 0.25]))
    t.pathlength_hist.counts[:] = np.array([0.0, 0.5, 0.25, 0.0]) * scale
    t.reflectance_rho_hist.counts[:] = np.array([1.0, 0.375, 0.125]) * scale
    t.penetration_hist.counts[:] = np.array([3.0, 5.0]) * scale
    return t


def _hand_paths() -> PathRecords:
    """Sealed records for two task segments."""
    first = PathRecords(3)
    first.append(
        np.array([[0.5, 1.0, 0.0], [0.25, 0.75, 1.5]]),
        weight=np.array([0.5, 0.25]),
        opl=np.array([2.125, 3.5]),
        max_depth=np.array([1.0, 2.0]),
        detector=np.array([0, 1]),
    )
    first.seal(0)
    second = PathRecords(3)
    second.append(np.array([1.0, 0.5, 0.25]), weight=0.125, opl=2.5, max_depth=0.5)
    second.seal(1)
    return first.merge(second)


@pytest.fixture(scope="session")
def hand_built() -> tuple[Tally, TallyFrontier]:
    """A hand-built tally (both grids, three histograms, sealed path
    records) and a 2-span frontier of hand-built partials."""
    tally = _hand_tally(1.0)
    tally.paths = _hand_paths()
    frontier = TallyFrontier([(0, 2, _hand_tally(0.5)), (2, 3, _hand_tally(0.25))])
    return tally, frontier
