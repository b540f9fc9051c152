"""Builders for voxelised tissue models.

Constructors for the heterogeneous geometries a calibration study needs:
voxelised versions of the plane-layer models (for cross-validation against
the analytic layer-stack geometry), embedded spherical/cylindrical inclusions
(tumours, blood vessels), and tilted-layer wedges (sloping anatomy).
"""

from __future__ import annotations

import math

import numpy as np

from ..tissue.layer import LayerStack
from ..tissue.optical import OpticalProperties
from .medium import VoxelMedium

__all__ = [
    "from_layers",
    "homogeneous_block",
    "with_sphere",
    "with_cylinder",
    "tilted_layers",
]


def _centres(medium_shape: tuple[int, int, int], half_extent: float, depth: float):
    nx, ny, nz = medium_shape
    x = np.linspace(-half_extent, half_extent, nx, endpoint=False) + half_extent / nx
    y = np.linspace(-half_extent, half_extent, ny, endpoint=False) + half_extent / ny
    z = np.linspace(0.0, depth, nz, endpoint=False) + 0.5 * depth / nz
    return x, y, z


def homogeneous_block(
    props: OpticalProperties,
    shape: tuple[int, int, int],
    half_extent: float,
    depth: float,
) -> VoxelMedium:
    """A single-material voxel block."""
    return VoxelMedium(
        labels=np.zeros(shape, dtype=np.uint16),
        materials=(props,),
        half_extent=half_extent,
        depth=depth,
    )


def from_layers(
    stack: LayerStack,
    shape: tuple[int, int, int],
    half_extent: float,
    depth: float | None = None,
) -> VoxelMedium:
    """Voxelise a plane-layer stack.

    The deepest (possibly semi-infinite) layer fills every voxel below the
    last interior boundary.  ``depth`` defaults to the stack thickness for
    finite stacks and must be given for semi-infinite ones.

    The result lets the voxel-grid geometry be validated against the
    analytic layer-stack geometry on identical physics
    (``tests/voxel/test_voxel_kernel.py``).
    """
    if depth is None:
        if stack.is_semi_infinite:
            raise ValueError("depth is required to voxelise a semi-infinite stack")
        depth = stack.total_thickness
    nx, ny, nz = shape
    _x, _y, z = _centres(shape, half_extent, depth)
    # searchsorted over the interior boundaries gives each voxel's layer.
    boundaries = stack.boundaries
    layer_of_z = np.minimum(
        np.searchsorted(boundaries, z, side="right") - 1, len(stack) - 1
    ).astype(np.uint16)
    labels = np.broadcast_to(layer_of_z[None, None, :], shape).copy()
    return VoxelMedium(
        labels=labels,
        materials=tuple(l.properties for l in stack),
        half_extent=half_extent,
        depth=depth,
        n_above=stack.n_above,
        n_below=stack.n_below,
    )


def with_sphere(
    medium: VoxelMedium,
    centre: tuple[float, float, float],
    radius: float,
    props: OpticalProperties,
) -> VoxelMedium:
    """Return a copy of ``medium`` with a spherical inclusion.

    Voxels whose centres fall inside the sphere get a new material label
    for ``props`` (appended to the material table).  Models a localised
    absorber — e.g. a haematoma or tumour in an optical-imaging phantom.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    x, y, z = _centres(medium.shape, medium.half_extent, medium.depth)
    cx, cy, cz = centre
    dist2 = (
        (x[:, None, None] - cx) ** 2
        + (y[None, :, None] - cy) ** 2
        + (z[None, None, :] - cz) ** 2
    )
    inside = dist2 <= radius * radius
    if not inside.any():
        raise ValueError("sphere does not overlap any voxel centre")
    labels = medium.labels.copy()
    labels[inside] = medium.n_materials
    return VoxelMedium(
        labels=labels,
        materials=medium.materials + (props,),
        half_extent=medium.half_extent,
        depth=medium.depth,
        n_above=medium.n_above,
        n_below=medium.n_below,
    )


def with_cylinder(
    medium: VoxelMedium,
    y0: float,
    z0: float,
    radius: float,
    props: OpticalProperties,
) -> VoxelMedium:
    """Add an x-axis-aligned cylindrical inclusion (a blood vessel).

    The cylinder runs the full lateral extent along x at lateral position
    ``y0`` and depth ``z0``.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    _x, y, z = _centres(medium.shape, medium.half_extent, medium.depth)
    dist2 = (y[:, None] - y0) ** 2 + (z[None, :] - z0) ** 2
    inside = dist2 <= radius * radius  # (ny, nz)
    if not inside.any():
        raise ValueError("cylinder does not overlap any voxel centre")
    labels = medium.labels.copy()
    labels[:, inside] = medium.n_materials
    return VoxelMedium(
        labels=labels,
        materials=medium.materials + (props,),
        half_extent=medium.half_extent,
        depth=medium.depth,
        n_above=medium.n_above,
        n_below=medium.n_below,
    )


def tilted_layers(
    stack: LayerStack,
    shape: tuple[int, int, int],
    half_extent: float,
    depth: float,
    slope: float,
) -> VoxelMedium:
    """Voxelise a stack whose interfaces tilt along x.

    Each interface plane is ``z = boundary + slope * x`` — a wedge model of
    sloping anatomy (e.g. skull thickening away from the midline).  With
    ``slope = 0`` this reduces to :func:`from_layers`.
    """
    x, _y, z = _centres(shape, half_extent, depth)
    boundaries = stack.boundaries[1:-1]  # interior boundaries only
    # For each (x, z) pair count how many tilted interfaces lie above z.
    local_z = z[None, :] - slope * x[:, None]  # (nx, nz)
    layer_of = np.zeros_like(local_z, dtype=np.uint16)
    for b in boundaries:
        layer_of += (local_z >= b).astype(np.uint16)
    layer_of = np.minimum(layer_of, len(stack) - 1)
    labels = np.broadcast_to(layer_of[:, None, :], shape).copy()
    return VoxelMedium(
        labels=labels,
        materials=tuple(l.properties for l in stack),
        half_extent=half_extent,
        depth=depth,
        n_above=stack.n_above,
        n_below=stack.n_below,
    )
