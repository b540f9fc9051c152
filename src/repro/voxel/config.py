"""Configuration for voxel-medium simulations.

``VoxelConfig`` mirrors :class:`repro.core.config.SimulationConfig` with a
:class:`~repro.voxel.medium.VoxelMedium` in place of the layer stack.  It
supplies the voxel-grid geometry to the vectorised kernel and exposes the
small config surface the distributed platform touches (``records`` and a
``stack``-like sized object), so voxel experiments run through the same
``Simulation``/``DataManager``/worker machinery as layered ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.config import RecordConfig
from ..core.roulette import RouletteConfig
from ..detect.detector import AcceptAll, Detector
from ..detect.gating import PathlengthGate, TimeGate
from ..sources.base import Source
from .medium import VoxelGeometry, VoxelMedium

__all__ = ["VoxelConfig"]


@dataclass(frozen=True)
class VoxelConfig:
    """Full description of one voxel-medium Monte Carlo experiment.

    The boundary treatment is probabilistic (MCML style); interior voxel
    faces are index-matched by construction of :class:`VoxelMedium`, so the
    classical/probabilistic distinction only ever concerned the external
    faces and the probabilistic rule is used there.
    """

    medium: VoxelMedium
    source: Source
    detector: Detector = field(default_factory=AcceptAll)
    gate: PathlengthGate | TimeGate | None = None
    roulette: RouletteConfig = field(default_factory=RouletteConfig)
    max_steps: int = 1_000_000
    records: RecordConfig = field(default_factory=RecordConfig)

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ValueError(f"max_steps must be > 0, got {self.max_steps}")

    @property
    def stack(self):
        """Material table, sized like a layer stack.

        The kernel and the distributed platform only ever ask
        ``len(config.stack)`` (to shape a tally); for a voxel medium the
        per-"layer" absorption slots are per-*material* slots.
        """
        return self.medium.materials

    def pathlength_gate(self) -> PathlengthGate | None:
        """The gate normalised to optical pathlength (TimeGate converted)."""
        if self.gate is None:
            return None
        if isinstance(self.gate, TimeGate):
            return self.gate.to_pathlength_gate()
        return self.gate

    def geometry(self) -> VoxelGeometry:
        """The voxel grid as the vectorised loop's transport geometry."""
        return VoxelGeometry(self.medium)

    def with_(self, **changes) -> "VoxelConfig":
        """Functional update (thin wrapper over ``dataclasses.replace``)."""
        return replace(self, **changes)
