"""Simulation configuration objects.

``SimulationConfig`` bundles everything a worker needs to run one photon
batch: tissue stack, source, detector, gate, boundary-physics mode, roulette
parameters and recording options.  It is immutable and picklable — the
``DataManager`` ships one copy to every worker, together with a per-task
photon count and RNG stream index (see :mod:`repro.distributed.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, Union

from ..detect.detector import AcceptAll, Detector
from ..detect.gating import PathlengthGate, TimeGate
from ..detect.records import GridSpec
from ..sources.base import Source
from ..tissue.layer import LayerStack
from .geometry import SlabGeometry
from .roulette import RouletteConfig

__all__ = ["RecordConfig", "SimulationConfig", "BoundaryMode"]

#: The two boundary treatments of the paper's feature list.
BoundaryMode = Literal["probabilistic", "classical"]

Gate = Union[PathlengthGate, TimeGate]


@dataclass(frozen=True)
class RecordConfig:
    """What to record beyond the scalar energy balance.

    Attributes
    ----------
    absorption_grid:
        Voxel grid for deposited (absorbed) weight of *all* photons — the
        Fig. 4 quantity.  ``None`` disables it.
    path_grid:
        Voxel grid accumulating the visited positions of *detected* photons
        only ("save path" in Fig. 1) — the Fig. 3 banana quantity.  ``None``
        disables it; enabling it costs per-step bookkeeping.
    pathlength_bins:
        ``(l_min, l_max, n_bins)`` for a histogram of detected optical
        pathlengths, or ``None``.
    reflectance_rho_bins:
        ``(rho_max, n_bins)`` for a radially resolved diffuse-reflectance
        histogram R(rho) over all escaping photons, or ``None``.  Used by
        the diffusion-theory validation.
    penetration_bins:
        ``(z_max, n_bins)`` for a histogram of every photon's lifetime
        maximum depth (one count per terminated photon), or ``None``.
        This is the Fig. 4 quantity: "most of the photons are reflected
        before they enter the CSF, however some do penetrate all the way
        into the white matter".
    """

    absorption_grid: GridSpec | None = None
    path_grid: GridSpec | None = None
    pathlength_bins: tuple[float, float, int] | None = None
    reflectance_rho_bins: tuple[float, int] | None = None
    penetration_bins: tuple[float, int] | None = None

    def __post_init__(self) -> None:
        if self.pathlength_bins is not None:
            lo, hi, n = self.pathlength_bins
            if not (0 <= lo < hi) or n <= 0:
                raise ValueError(f"invalid pathlength_bins {self.pathlength_bins}")
        if self.reflectance_rho_bins is not None:
            rho_max, n = self.reflectance_rho_bins
            if rho_max <= 0 or n <= 0:
                raise ValueError(f"invalid reflectance_rho_bins {self.reflectance_rho_bins}")
        if self.penetration_bins is not None:
            z_max, n = self.penetration_bins
            if z_max <= 0 or n <= 0:
                raise ValueError(f"invalid penetration_bins {self.penetration_bins}")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one Monte Carlo experiment.

    Attributes
    ----------
    stack:
        The layered tissue geometry.
    source:
        Photon source (delta / Gaussian / uniform / isotropic).
    detector:
        Surface detector; default accepts every escaping photon.
    gate:
        Optional time or pathlength gate applied at detection.
    boundary_mode:
        ``"probabilistic"`` (sample reflect-vs-transmit, MCML style) or
        ``"classical"`` (deterministic Fresnel weight splitting) — the
        paper's two options for refraction/internal reflection.
    roulette:
        Russian-roulette parameters (Fig. 1 "survive roulette").
    max_steps:
        Hard cap on interactions per photon; photons exceeding it are
        terminated and their remaining weight tallied as ``lost_weight``.
        The cap exists to bound worst-case task time on a worker.
    records:
        Optional grid/histogram recording.
    """

    stack: LayerStack
    source: Source
    detector: Detector = field(default_factory=AcceptAll)
    gate: Gate | None = None
    boundary_mode: BoundaryMode = "probabilistic"
    roulette: RouletteConfig = field(default_factory=RouletteConfig)
    max_steps: int = 100_000
    records: RecordConfig = field(default_factory=RecordConfig)

    def __post_init__(self) -> None:
        if self.boundary_mode not in ("probabilistic", "classical"):
            raise ValueError(
                f"boundary_mode must be 'probabilistic' or 'classical', got {self.boundary_mode!r}"
            )
        if self.max_steps <= 0:
            raise ValueError(f"max_steps must be > 0, got {self.max_steps}")

    def pathlength_gate(self) -> PathlengthGate | None:
        """The gate normalised to optical pathlength (TimeGate converted)."""
        if self.gate is None:
            return None
        if isinstance(self.gate, TimeGate):
            return self.gate.to_pathlength_gate()
        return self.gate

    def geometry(self) -> SlabGeometry:
        """The layer stack as the vectorised loop's transport geometry."""
        return SlabGeometry(self.stack, classical=self.boundary_mode == "classical")

    def with_(self, **changes) -> "SimulationConfig":
        """Functional update (thin wrapper over ``dataclasses.replace``)."""
        return replace(self, **changes)
