"""Voxelised heterogeneous tissue media.

The paper (§2): the Monte Carlo method "can be applied to an inhomogeneous
medium of complex geometry once a realistic model of the tissue sample has
been developed."  The plane-layer stacks of :mod:`repro.tissue` cover the
Table 1 experiments; this package adds the general case — a 3-D voxel grid
of material labels with a material table of optical properties, the
representation MCX/tMCimg-class codes use for anatomical head models.

Geometry conventions
--------------------
* The voxel box spans ``x, y in [-half_extent, +half_extent]`` and
  ``z in [0, depth]``; the illuminated surface is z = 0.
* The medium is *laterally unbounded*: outside the box in x/y the material
  of the nearest edge voxel continues, so photons never "fall off" the
  side of the model (matching the infinite-slab convention of
  :class:`repro.tissue.LayerStack`).
* Photons escape only through the top (z < 0) and bottom (z > depth)
  faces, with Fresnel reflection/refraction against the ambient index.
* All materials must share one refractive index: interior voxel faces are
  index-matched (true for every Table 1 tissue, all n = 1.4).  Mismatched
  interior indices would require per-face Fresnel events, which the
  layer-stack geometry already provides for stratified media.

:class:`VoxelGeometry` is the grid as a transport geometry
(:mod:`repro.core.geometry`): the one vectorised loop of
:mod:`repro.core.vkernel` traces voxel media through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fresnel import fresnel_reflectance
from ..tissue.optical import AMBIENT_REFRACTIVE_INDEX, OpticalProperties

__all__ = ["VoxelGeometry", "VoxelMedium"]

#: Fraction of a voxel edge used to nudge face-crossing photons into the
#: next voxel (avoids floor() landing them back on the face).
_NUDGE = 1e-9


@dataclass(frozen=True)
class VoxelMedium:
    """A rectilinear grid of material labels plus a material table.

    Attributes
    ----------
    labels:
        ``(nx, ny, nz)`` integer array of material indices.
    materials:
        Material table; ``labels`` values index into it.
    half_extent:
        Lateral half-size of the box in mm.
    depth:
        Box depth in mm (z spans [0, depth]).
    n_above, n_below:
        Ambient refractive indices outside the top/bottom faces.
    """

    labels: np.ndarray
    materials: tuple[OpticalProperties, ...]
    half_extent: float
    depth: float
    n_above: float = AMBIENT_REFRACTIVE_INDEX
    n_below: float = AMBIENT_REFRACTIVE_INDEX

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 3:
            raise ValueError(f"labels must be 3-D, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {labels.dtype}")
        materials = tuple(self.materials)
        if not materials:
            raise ValueError("need at least one material")
        if labels.min() < 0 or labels.max() >= len(materials):
            raise ValueError(
                f"labels must index materials [0, {len(materials)}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        if self.half_extent <= 0 or self.depth <= 0:
            raise ValueError("half_extent and depth must be > 0")
        n_values = {m.n for m in materials}
        if len(n_values) != 1:
            raise ValueError(
                "all materials must share one refractive index "
                f"(interior voxel faces are index-matched); got {sorted(n_values)}"
            )
        if self.n_above <= 0 or self.n_below <= 0:
            raise ValueError("ambient refractive indices must be > 0")
        object.__setattr__(self, "labels", np.ascontiguousarray(labels))
        object.__setattr__(self, "materials", materials)

    # -- derived -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.labels.shape  # type: ignore[return-value]

    @property
    def n_materials(self) -> int:
        return len(self.materials)

    @property
    def n_medium(self) -> float:
        """The (shared) refractive index of the medium."""
        return self.materials[0].n

    @property
    def lo(self) -> tuple[float, float, float]:
        return (-self.half_extent, -self.half_extent, 0.0)

    @property
    def hi(self) -> tuple[float, float, float]:
        return (self.half_extent, self.half_extent, self.depth)

    @property
    def voxel_size(self) -> tuple[float, float, float]:
        nx, ny, nz = self.shape
        return (
            2.0 * self.half_extent / nx,
            2.0 * self.half_extent / ny,
            self.depth / nz,
        )

    def coefficient_vectors(self) -> dict[str, np.ndarray]:
        """Per-material coefficient arrays for the kernel (gather tables)."""
        return {
            "mu_a": np.asarray([m.mu_a for m in self.materials]),
            "mu_s": np.asarray([m.mu_s for m in self.materials]),
            "mu_t": np.asarray([m.mu_t for m in self.materials]),
            "g": np.asarray([m.g for m in self.materials]),
            "n": np.asarray([m.n for m in self.materials]),
        }

    def label_at(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> np.ndarray:
        """Material labels at world points (lateral clamping, z must be in box)."""
        ix, iy, iz = self.voxel_indices(x, y, z)
        return self.labels[ix, iy, iz]

    def voxel_indices(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clamped voxel indices of world points.

        Lateral coordinates clamp to the edge voxels (the lateral-extension
        convention); depths clamp into [0, nz-1], callers are responsible
        for handling escape through the z faces before lookup.
        """
        nx, ny, nz = self.shape
        hx, hy, hz = self.voxel_size
        ix = ((np.asarray(x) + self.half_extent) / hx).astype(np.int64)
        iy = ((np.asarray(y) + self.half_extent) / hy).astype(np.int64)
        iz = (np.asarray(z) / hz).astype(np.int64)
        # minimum/maximum rather than np.clip (see GridSpec.world_to_index).
        ix = np.minimum(np.maximum(ix, 0), nx - 1)
        iy = np.minimum(np.maximum(iy, 0), ny - 1)
        iz = np.minimum(np.maximum(iz, 0), nz - 1)
        return ix, iy, iz

    def material_volume_fractions(self) -> np.ndarray:
        """Fraction of the box volume occupied by each material."""
        counts = np.bincount(self.labels.reshape(-1), minlength=self.n_materials)
        return counts / self.labels.size


class VoxelGeometry:
    """A voxel grid as a transport geometry: regions are materials.

    Boundaries are voxel faces.  Interior faces are index-matched, so a
    photon reaching one steps just past it and takes the next voxel's
    material, keeping the unspent part of its dimensionless step (the
    standard multi-region treatment).  The top and bottom faces apply
    probabilistic Fresnel reflection against the ambient indices and
    score what escapes.  Lateral faces outside the box bound the virtual
    edge voxels of the lateral-extension convention.
    """

    def __init__(self, medium: VoxelMedium) -> None:
        coeffs = medium.coefficient_vectors()
        self.mu_a = coeffs["mu_a"]
        self.mu_t = coeffs["mu_t"]
        self.g = coeffs["g"]
        self.n = coeffs["n"]
        self.n_above = medium.n_above
        self.n_below = medium.n_below
        self.n_entry = medium.n_medium
        self.medium = medium
        self.depth = medium.depth
        self.axes = tuple(zip(medium.lo, medium.voxel_size))
        self.nudge = _NUDGE * min(medium.voxel_size)

    def locate(self, pos: np.ndarray, surface_launch: np.ndarray) -> np.ndarray:
        # Surface launches start just inside the box so the lookup works.
        pos[surface_launch, 2] = self.nudge
        z = pos[:, 2]
        if np.any((z < 0.0) | (z >= self.depth)):
            raise ValueError("source launches photons outside the voxel box")
        return self.medium.label_at(pos[:, 0], pos[:, 1], z).astype(np.int64)

    def distance(self, st) -> np.ndarray:
        # Nearest voxel face along each axis, from the unclamped voxel
        # index, so photons outside the box laterally traverse virtual
        # edge voxels.
        d_face = np.full(st.size, np.inf)
        for p, u, (lo, h) in zip((st.x, st.y, st.z), (st.ux, st.uy, st.uz), self.axes):
            moving = u != 0.0
            pm, um = p[moving], u[moving]
            plane = lo + (np.floor((pm - lo) / h) + (um > 0.0)) * h
            d_face[moving] = np.minimum(d_face[moving], (plane - pm) / um)
        return d_face

    def cross(self, batch, bi: np.ndarray) -> None:
        st = batch.st
        nudge = self.nudge
        z = st.z[bi]
        uz = st.uz[bi]
        top = (np.abs(z) <= 2 * nudge) & (uz < 0.0)
        external = top | ((np.abs(z - self.depth) <= 2 * nudge) & (uz > 0.0))
        if np.any(external):
            ei = bi[external]
            top = top[external]
            n_out = np.where(top, self.n_above, self.n_below)
            r_f = fresnel_reflectance(np.abs(uz[external]), self.n_entry, n_out)
            reflect = batch.rng.random(ei.size) < r_f
            ri = ei[reflect]
            st.uz[ri] = -st.uz[ri]
            # Nudge back inside so the region lookup below is interior.
            st.z[ri] += np.where(top[reflect], nudge, -nudge)
            escape = ~reflect
            if np.any(escape):
                oi = ei[escape]
                batch.score_escapes(oi, top[escape], st.w[oi], terminal=True)
                st.alive[oi] = False
                st.w[oi] = 0.0
        inner = bi[~external]
        st.x[inner] += st.ux[inner] * nudge
        st.y[inner] += st.uy[inner] * nudge
        st.z[inner] += st.uz[inner] * nudge
        moved = bi[st.alive[bi]]
        st.layer[moved] = self.medium.label_at(st.x[moved], st.y[moved], st.z[moved])
