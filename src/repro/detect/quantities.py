"""Derived physical quantities from tallies.

Helpers that turn raw tally weights into the quantities the NIRS literature
(and the paper's discussion) works with: radially resolved diffuse
reflectance R(rho), mean time of flight and layer-wise absorption
summaries.  The differential pathlength factor is
:meth:`~repro.core.tally.Tally.differential_pathlength_factor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..tissue.layer import LayerStack
from ..tissue.optical import SPEED_OF_LIGHT_MM_PER_NS

if TYPE_CHECKING:  # imported lazily to avoid a core <-> detect import cycle
    from ..core.tally import Tally

__all__ = [
    "radial_reflectance",
    "mean_time_of_flight",
    "layer_absorption_report",
]


def radial_reflectance(tally: Tally) -> tuple[np.ndarray, np.ndarray]:
    """Radially resolved diffuse reflectance R(rho) in mm⁻².

    Requires the tally to have been recorded with ``reflectance_rho_bins``.

    Returns
    -------
    rho:
        Annulus-centre radii (mm).
    r_of_rho:
        Escaping weight per launched photon per unit area (mm⁻²) in each
        annulus — the quantity diffusion theory predicts.
    """
    hist = tally.reflectance_rho_hist
    if hist is None:
        raise ValueError("tally has no reflectance_rho histogram; enable it in RecordConfig")
    if tally.n_launched == 0:
        raise ValueError("tally is empty")
    edges = hist.edges
    areas = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    return hist.centres, hist.counts / (areas * tally.n_launched)


def mean_time_of_flight(tally: Tally) -> float:
    """Mean time of flight of detected photons in ns.

    The pathlength statistic stores *optical* pathlengths (n-weighted), so
    time of flight is pathlength / c_vacuum.
    """
    return tally.pathlength.mean / SPEED_OF_LIGHT_MM_PER_NS


def layer_absorption_report(tally: Tally, stack: LayerStack) -> list[dict[str, float | str]]:
    """Per-layer absorbed fractions as a list of dict rows (for tables)."""
    if len(stack) != tally.n_layers:
        raise ValueError("stack layer count does not match the tally")
    fractions = tally.absorbed_fraction
    return [
        {"layer": layer.name, "absorbed_fraction": float(fractions[i])}
        for i, layer in enumerate(stack)
    ]
