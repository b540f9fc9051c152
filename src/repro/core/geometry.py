"""Transport geometries: what the vectorised loop delegates to the medium.

:func:`repro.core.vkernel.run_batch_vectorized` is one hop–drop–spin loop.
Launch, step draws, moves, pathlength capture, absorption, scattering,
roulette, escape scoring and path events are written once there; the shape
of the medium enters only through a :class:`Geometry`, which every config
supplies via ``config.geometry()``:

* a :class:`~repro.core.config.SimulationConfig` gives the
  :class:`SlabGeometry` of its layer stack (below);
* a :class:`~repro.voxel.VoxelConfig` gives the voxel-grid geometry of
  :mod:`repro.voxel.medium`.

A photon's *region* is an index into the geometry's coefficient vectors —
a layer of a stack, a material of a voxel grid — and into the tally's
per-region slots (absorbed weight, captured per-region pathlength).  The
loop keeps each photon's region in ``_State.layer``; only ``locate`` and
``cross`` change it.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..tissue.layer import LayerStack
from .fresnel import fresnel_reflectance

__all__ = ["Geometry", "SlabGeometry"]


class Geometry(Protocol):
    """The medium as the vectorised transport loop sees it."""

    #: Per-region coefficient vectors (gather tables).
    mu_a: np.ndarray
    mu_t: np.ndarray
    g: np.ndarray
    n: np.ndarray
    #: Refractive indices above and just below the entry surface z = 0.
    n_above: float
    n_entry: float

    def locate(self, pos: np.ndarray, surface_launch: np.ndarray) -> np.ndarray:
        """int64 region of each launched photon.

        ``surface_launch`` marks photons entering through z = 0; a geometry
        may move them (in ``pos``) just inside the medium.
        """

    def distance(self, st) -> np.ndarray:
        """Distance along each photon's direction to its next boundary."""

    def cross(self, batch, bi: np.ndarray) -> None:
        """Handle photons ``bi``, each sitting on a boundary.

        Refract or reflect them, move them into their next region, or score
        them through ``batch.score_escapes`` and kill them.
        """


class SlabGeometry:
    """A plane-layer stack: regions are layers, boundaries are interfaces.

    Each interface applies Fresnel reflection between the two layers' (or
    the ambient) refractive indices.  Probabilistic mode samples reflect vs
    transmit; classical mode splits the weight deterministically at the
    external faces and samples at interior ones.
    """

    def __init__(self, stack: LayerStack, *, classical: bool) -> None:
        self.mu_a = stack.mu_a
        self.mu_t = stack.mu_t
        self.g = stack.g
        self.n = stack.n
        self.n_above = stack.n_above
        self.n_below = stack.n_below
        self.n_entry = stack[0].properties.n
        self.boundaries = stack.boundaries  # (n_layers + 1,)
        self.n_layers = len(stack)
        self.single_layer = self.n_layers == 1
        self.semi_infinite = stack.is_semi_infinite
        self.classical = classical

    def locate(self, pos: np.ndarray, surface_launch: np.ndarray) -> np.ndarray:
        layer = np.zeros(len(pos), dtype=np.int64)
        buried = ~surface_launch
        if np.any(buried):
            idx = np.searchsorted(self.boundaries, pos[buried, 2], side="right") - 1
            layer[buried] = np.minimum(np.maximum(idx, 0), self.n_layers - 1)
        return layer

    def distance(self, st) -> np.ndarray:
        # Whole-array form (the loop calls this every iteration, so the
        # NumPy call count is its cost): the bottom face for photons going
        # down, the top face otherwise, and no face for uz == 0.
        boundaries = self.boundaries
        uz = st.uz
        if self.single_layer:
            top, bottom = boundaries[0], boundaries[1]
        else:
            top, bottom = boundaries[st.layer], boundaries[st.layer + 1]
        d_bnd = np.empty(uz.size)
        d_bnd.fill(np.inf)
        np.divide(np.where(uz > 0.0, bottom, top) - st.z, uz, out=d_bnd, where=uz != 0.0)
        return d_bnd

    def cross(self, batch, bi: np.ndarray) -> None:
        st = batch.st
        n_layers = self.n_layers
        buz = st.uz[bi]
        blay = st.layer[bi]
        going_up = buz < 0.0
        exiting = (going_up & (blay == 0)) | (
            ~going_up & (blay == n_layers - 1) & (not self.semi_infinite)
        )

        n_here = self.n[blay]
        next_lay = np.minimum(np.maximum(blay + np.where(going_up, -1, 1), 0), n_layers - 1)
        n_next = np.where(
            exiting,
            np.where(going_up, self.n_above, self.n_below),
            self.n[next_lay],
        )

        cos_i = np.abs(buz)
        r_f = fresnel_reflectance(cos_i, n_here, n_next)

        if self.classical:
            classical_exit = exiting
        else:
            classical_exit = np.zeros_like(exiting)

        if np.count_nonzero(classical_exit):
            ce = bi[classical_exit]
            r_ce = r_f[classical_exit]
            escaped = (1.0 - r_ce) * st.w[ce]
            batch.score_escapes(ce, going_up[classical_exit], escaped, terminal=False)
            st.w[ce] *= r_ce
            st.uz[ce] = -st.uz[ce]
            dead = st.w[ce] <= 0.0
            if np.count_nonzero(dead):
                st.alive[ce[dead]] = False
                batch.tally.record_penetration(st.maxz[ce[dead]])

        rest = ~classical_exit
        if not np.count_nonzero(rest):
            return
        ri = bi[rest]
        r_rest = r_f[rest]
        up_rest = going_up[rest]
        exit_rest = exiting[rest]
        n1 = n_here[rest]
        n2 = n_next[rest]
        nlay = next_lay[rest]

        reflect = batch.rng.random(ri.size) < r_rest

        # Internal reflection: flip the z direction cosine.
        refl_idx = ri[reflect]
        st.uz[refl_idx] = -st.uz[refl_idx]

        transmit = ~reflect
        # Transmission out of the tissue: score and terminate.
        out = transmit & exit_rest
        if np.count_nonzero(out):
            oi = ri[out]
            batch.score_escapes(oi, up_rest[out], st.w[oi], terminal=True)
            st.alive[oi] = False
            st.w[oi] = 0.0

        # Transmission into the adjacent layer: Snell refraction.
        inside = transmit & ~exit_rest
        if np.count_nonzero(inside):
            si = ri[inside]
            ratio = n1[inside] / n2[inside]
            ci = np.abs(st.uz[si])
            sin_t2 = ratio * ratio * (1.0 - ci * ci)
            cos_t = np.sqrt(np.maximum(0.0, 1.0 - sin_t2))
            st.ux[si] *= ratio
            st.uy[si] *= ratio
            st.uz[si] = np.copysign(cos_t, st.uz[si])
            norm = np.sqrt(st.ux[si] ** 2 + st.uy[si] ** 2 + st.uz[si] ** 2)
            st.ux[si] /= norm
            st.uy[si] /= norm
            st.uz[si] /= norm
            st.layer[si] = nlay[inside]
