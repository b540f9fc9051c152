"""Voxelised heterogeneous tissue media.

A :class:`VoxelConfig` runs through the same ``Simulation``/``DataManager``
entry points as a layered one: its medium supplies the voxel-grid geometry
of the one vectorised transport loop (:mod:`repro.core.vkernel`), which the
default ``kernel="vector"`` runs.  The scalar reference kernel traces layer
stacks only.

>>> from repro.voxel import VoxelConfig, homogeneous_block, run_voxel
>>> # ... build a medium, then:
>>> # tally = run_voxel(config, n_photons=10_000, seed=0)
"""

from __future__ import annotations

from ..core.simulation import Simulation
from ..core.tally import Tally
from .builders import (
    from_layers,
    homogeneous_block,
    tilted_layers,
    with_cylinder,
    with_sphere,
)
from .config import VoxelConfig
from .medium import VoxelMedium

__all__ = [
    "VoxelConfig",
    "VoxelMedium",
    "from_layers",
    "homogeneous_block",
    "run_voxel",
    "tilted_layers",
    "with_cylinder",
    "with_sphere",
]


def run_voxel(
    config: VoxelConfig,
    n_photons: int,
    seed: int = 0,
    *,
    task_size: int | None = None,
) -> Tally:
    """Single-process voxel simulation: ``Simulation(config).run(...)``."""
    return Simulation(config).run(n_photons, seed, task_size=task_size)
