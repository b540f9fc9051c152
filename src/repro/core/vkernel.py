"""Vectorised production kernel: one transport loop over any geometry.

Traces photons in structure-of-arrays sub-batches: one NumPy-vectorised
"event" (boundary hit or scattering interaction) per live photon per loop
iteration.  Statistically identical to the scalar reference kernel
(:mod:`repro.core.kernel`) — the integration tests compare the two on every
headline quantity — but orders of magnitude faster, which is what makes
laptop-scale reproduction of the paper's billion-photon experiments
feasible.

There are two transport loops in the package: the scalar reference and
this one.  This loop serves every medium; the shape of the medium — layer
stack or voxel grid — enters only through the config's
:class:`~repro.core.geometry.Geometry` (region lookup, distance to the next
boundary, boundary crossing).  Launch, step draws, moves, per-region
pathlength capture, absorption, Henyey–Greenstein spin, roulette, escape
scoring, path events and stream compaction are written once, here.

Design notes (following this repo's HPC guides):

* All per-photon state lives in flat float64/int64/bool arrays; every update
  is an in-place whole-array operation — no per-photon Python objects and no
  repeated fancy-index gathers of the full state.
* **Stream compaction**: dead photons are squeezed out of the state arrays
  whenever the dead fraction passes a threshold, so the working arrays track
  the live population and per-iteration cost decays with it.  A ``gid``
  array maps compacted rows back to original photon ids for path recording.
* Per-region optical coefficients are gathered with a single fancy-index
  from the geometry's coefficient vectors.
* Path recording ("save path" for detected photons, the Fig. 3 quantity)
  buffers interaction events as append-only arrays and periodically compacts
  them: events of dead-undetected photons are dropped, events of detected
  photons are deposited into the voxel grid, and only events of still-live
  photons are retained.  This keeps memory bounded by the live tail rather
  than the full event history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SimulationConfig
from .fresnel import fresnel_reflectance
from .geometry import Geometry
from .tally import Tally

#: Square of the direction-cosine threshold for the near-vertical rotation
#: branch (matches ``repro.core.sampling._VERTICAL_EPS``).
_VERTICAL_EPS2 = (1.0 - 1e-12) ** 2

__all__ = ["run_batch_vectorized", "DEFAULT_SUB_BATCH"]

#: Photons traced simultaneously.  Large enough to amortise NumPy dispatch
#: and the long-lived-photon tail, small enough that per-photon state and
#: path-event buffers stay modest.
DEFAULT_SUB_BATCH = 65536

#: Compact the path-event buffers every this many loop iterations.
_COMPACT_EVERY = 256

#: Squeeze dead photons out of the state arrays when they exceed this
#: fraction of the batch.
_DEAD_FRACTION = 0.25


@dataclass
class _PathEvents:
    """Append-only buffer of (photon, voxel, weight) interaction events.

    Events are voxelised at append time: positions outside the recording
    grid are dropped immediately and the rest are stored as flat voxel
    indices, which halves memory traffic relative to buffering raw
    coordinates and makes the final deposit a single ``np.add.at``.
    """

    spec: "object"  # GridSpec; typed loosely to avoid an import cycle
    gids: list[np.ndarray] = field(default_factory=list)
    voxels: list[np.ndarray] = field(default_factory=list)
    ws: list[np.ndarray] = field(default_factory=list)

    def append(self, gid, x, y, z, w) -> None:
        flat, inside = self.spec.world_to_index(x, y, z)
        flat = np.atleast_1d(flat)
        inside = np.atleast_1d(inside)
        # Normalise dtypes and shapes *before* masking: gid and w may arrive
        # as lists, scalars or narrower dtypes, and a scalar weight applies
        # to every event.  Masking unaligned inputs with `inside` would
        # silently mispair weights with voxels, so misalignment is an error.
        gid = np.atleast_1d(np.asarray(gid, dtype=np.int64))
        w = np.asarray(w, dtype=np.float64)
        w = np.broadcast_to(w, flat.shape) if w.ndim == 0 else np.atleast_1d(w)
        if gid.shape != flat.shape or w.shape != flat.shape:
            raise ValueError(
                "misaligned path-event inputs: "
                f"gid {gid.shape}, w {w.shape}, positions {flat.shape}"
            )
        if not inside.any():
            return
        self.gids.append(gid[inside])
        self.voxels.append(flat[inside])
        self.ws.append(np.ascontiguousarray(w[inside], dtype=np.float64))

    def _append_raw(self, gid: np.ndarray, voxel: np.ndarray, w: np.ndarray) -> None:
        self.gids.append(gid)
        self.voxels.append(voxel)
        self.ws.append(w)

    def compact(
        self,
        keep_mask_by_gid: np.ndarray,
        deposit_mask_by_gid: np.ndarray,
        grid: np.ndarray,
    ) -> None:
        """Deposit events of detected photons, keep events of live photons.

        ``keep_mask_by_gid[g]`` — photon g is still alive (retain events).
        ``deposit_mask_by_gid[g]`` — photon g was detected (commit events).
        Everything else is dropped.
        """
        if not self.gids:
            return
        gid = np.concatenate(self.gids)
        voxel = np.concatenate(self.voxels)
        w = np.concatenate(self.ws)
        self.gids.clear()
        self.voxels.clear()
        self.ws.clear()

        dep = deposit_mask_by_gid[gid]
        if dep.any():
            # reshape(-1) on a non-contiguous grid would return a *copy* and
            # the deposit would vanish silently; grids from GridSpec.zeros()
            # are always contiguous, so this only guards external arrays.
            if not grid.flags["C_CONTIGUOUS"]:
                raise ValueError("recording grid must be C-contiguous")
            np.add.at(grid.reshape(-1), voxel[dep], w[dep])
        # A photon can be both detected and still alive in classical mode
        # (the Fresnel remnant keeps propagating); exclude already-deposited
        # events from the retained set so nothing is committed twice.
        keep = keep_mask_by_gid[gid] & ~dep
        if keep.any():
            self._append_raw(gid[keep], voxel[keep], w[keep])


class _State:
    """Compacted structure-of-arrays photon state for one sub-batch."""

    __slots__ = (
        "x", "y", "z", "ux", "uy", "uz", "w", "layer",
        "opl", "maxz", "s_dim", "alive", "gid", "lpl",
    )

    def __init__(self, pos: np.ndarray, dirs: np.ndarray, layer: np.ndarray, w: np.ndarray):
        n = pos.shape[0]
        self.x = pos[:, 0].copy()
        self.y = pos[:, 1].copy()
        self.z = pos[:, 2].copy()
        self.ux = dirs[:, 0].copy()
        self.uy = dirs[:, 1].copy()
        self.uz = dirs[:, 2].copy()
        self.w = w
        self.layer = layer
        self.opl = np.zeros(n)
        self.maxz = self.z.copy()
        self.s_dim = np.zeros(n)
        self.alive = np.ones(n, dtype=bool)
        self.gid = np.arange(n, dtype=np.int64)
        #: Per-layer geometric pathlength, (n, n_layers); allocated only
        #: when the caller captures perturbation-MC path records.
        self.lpl: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.x.size

    def squeeze(self) -> None:
        """Drop dead photons from every state array (stream compaction)."""
        keep = self.alive
        for name in self.__slots__:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])


def run_batch_vectorized(
    config: SimulationConfig,
    n_photons: int,
    rng: np.random.Generator,
    *,
    sub_batch: int = DEFAULT_SUB_BATCH,
    telemetry=None,
    capture_paths: bool = False,
) -> Tally:
    """Trace ``n_photons`` photons with the vectorised kernel.

    Parameters
    ----------
    config:
        The experiment description: a
        :class:`~repro.core.config.SimulationConfig` or a
        :class:`~repro.voxel.VoxelConfig` — any config whose
        ``geometry()`` returns a :class:`~repro.core.geometry.Geometry`.
    n_photons:
        Photons to launch.
    rng:
        Randomness source; results are a deterministic function of the
        generator state (and hence of the task's stream).
    sub_batch:
        Photons per structure-of-arrays batch.
    telemetry:
        Optional :class:`~repro.observe.Telemetry`; when given, each
        sub-batch is traced as a ``kernel.batch`` span and photons
        accumulate on the ``kernel.photons`` counter.  ``None`` (default)
        adds a single identity check to the whole call — telemetry never
        enters the per-iteration loop.
    capture_paths:
        Record per-detection-event path statistics (per-region pathlength,
        exit weight, optical pathlength, maximum depth) on ``tally.paths``
        for perturbation Monte Carlo.  Capture consumes no RNG draws, so
        all other tally fields are bit-identical with and without it.
    """
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    if sub_batch <= 0:
        raise ValueError(f"sub_batch must be > 0, got {sub_batch}")
    geometry = config.geometry()
    tally = Tally(n_layers=len(config.stack), records=config.records)
    if capture_paths:
        from ..detect.records import PathRecords

        tally.paths = PathRecords(len(config.stack))
    done = 0
    while done < n_photons:
        n = min(sub_batch, n_photons - done)
        if telemetry is None:
            _run_sub_batch(config, geometry, tally, n, rng)
        else:
            with telemetry.span("kernel.batch", kernel="vector", photons=n):
                _run_sub_batch(config, geometry, tally, n, rng)
            telemetry.count("kernel.photons", n, kernel="vector")
        done += n
    return tally


class _Batch:
    """One sub-batch in flight: its photons, its randomness and its sinks.

    A geometry's ``cross`` receives this, so boundary handling reaches the
    photon state, the RNG, the tally and :meth:`score_escapes` without the
    loop knowing which geometry it serves.
    """

    __slots__ = ("tally", "rng", "st", "detector", "gate", "detected")

    def __init__(
        self, config, tally: Tally, rng: np.random.Generator, st: _State
    ) -> None:
        self.tally = tally
        self.rng = rng
        self.st = st
        self.detector = config.detector
        self.gate = config.pathlength_gate()
        #: Photons (by gid) detected since the last path-event compaction.
        self.detected = np.zeros(st.size, dtype=bool)

    def score_escapes(
        self, idx: np.ndarray, going_up: np.ndarray, ew: np.ndarray, *, terminal: bool
    ) -> None:
        """Score weight ``ew`` leaving photons ``idx`` through the top
        (``going_up``) or bottom face: reflectance/transmittance, detection,
        gating, histograms and captured path records.

        ``terminal`` marks escapes that end the photon (probabilistic
        boundaries); classical-mode partial escapes keep the photon alive
        and must not be counted in the per-photon penetration histogram.
        """
        st = self.st
        tally = self.tally
        if terminal:
            tally.record_penetration(st.maxz[idx])
        down = ~going_up
        if np.count_nonzero(down):
            tally.transmittance_weight += float(ew[down].sum())
        if not np.count_nonzero(going_up):
            return

        ti = idx[going_up]
        tx, ty, tuz = st.x[ti], st.y[ti], st.uz[ti]
        tw, topl, tmaxz = ew[going_up], st.opl[ti], st.maxz[ti]

        tally.diffuse_reflectance_weight += float(tw.sum())
        if tally.reflectance_rho_hist is not None:
            tally.reflectance_rho_hist.add(np.hypot(tx, ty), tw)

        accepted = self.detector.accepts(tx, ty, tuz)
        if self.gate is not None:
            accepted &= self.gate.accepts(topl)
        if not np.count_nonzero(accepted):
            return

        tally.detected_count += int(accepted.sum())
        tally.detected_weight += float(tw[accepted].sum())
        tally.pathlength.add(topl[accepted], tw[accepted])
        tally.penetration_depth.add(tmaxz[accepted], tw[accepted])
        if tally.pathlength_hist is not None:
            tally.pathlength_hist.add(topl[accepted], tw[accepted])
        if tally.paths is not None:
            tally.paths.append(
                st.lpl[ti][accepted], tw[accepted], topl[accepted], tmaxz[accepted], 0
            )
        self.detected[st.gid[ti][accepted]] = True


def _run_sub_batch(
    config: SimulationConfig,
    geometry: Geometry,
    tally: Tally,
    n: int,
    rng: np.random.Generator,
) -> None:
    mu_a_vec = geometry.mu_a
    mu_t_vec = geometry.mu_t
    g_vec = geometry.g
    n_vec = geometry.n
    n_regions = mu_t_vec.size
    record_path = tally.path_grid is not None
    # Hot-loop fast-path flags, hoisted out of the iteration.
    any_transparent = bool((mu_t_vec <= 0.0).any())
    uniform_g = float(g_vec[0]) if bool((g_vec == g_vec[0]).all()) else None
    single_region = n_regions == 1

    # --- initialise photons ----------------------------------------------------
    pos, dirs = config.source.sample(n, rng)
    w = np.ones(n)
    surface_launch = (pos[:, 2] == 0.0) & (dirs[:, 2] > 0.0)
    if np.any(surface_launch):
        _launch_through_surface(
            dirs, w, surface_launch, geometry.n_above, geometry.n_entry, tally
        )
    st = _State(pos, dirs, geometry.locate(pos, surface_launch), w)
    if tally.paths is not None:
        st.lpl = np.zeros((n, n_regions))
    tally.n_launched += n

    batch = _Batch(config, tally, rng, st)
    events = _PathEvents(config.records.path_grid) if record_path else None
    if record_path:
        events.append(st.gid, st.x, st.y, st.z, st.w)

    iteration = 0
    while st.size:
        iteration += 1
        if iteration > config.max_steps:
            tally.lost_weight += float(st.w.sum())
            tally.record_penetration(st.maxz[st.alive])
            break

        if single_region:
            mu_t = mu_t_vec[0]
            n_med = n_vec[0]
        else:
            mu_t = mu_t_vec[st.layer]
            n_med = n_vec[st.layer]

        # Draw fresh dimensionless steps where the previous one is spent.
        need = st.s_dim <= 0.0
        n_need = int(np.count_nonzero(need))
        if n_need:
            st.s_dim[need] = -np.log(1.0 - rng.random(n_need))

        if any_transparent:
            d_step = np.where(mu_t > 0.0, st.s_dim / np.maximum(mu_t, 1e-300), np.inf)
        else:
            d_step = st.s_dim / mu_t

        d_bnd = geometry.distance(st)
        # Round-off can leave a photon epsilon past its boundary; clamp.
        np.maximum(d_bnd, 0.0, out=d_bnd)

        hit = d_bnd <= d_step
        d = np.where(hit, d_bnd, d_step)

        # Pathological: transparent semi-infinite layer, photon never lands.
        if any_transparent:
            runaway = np.isinf(d)
            if runaway.any():
                tally.lost_weight += float(st.w[runaway].sum())
                tally.record_penetration(st.maxz[runaway])
                st.alive[runaway] = False
                st.w[runaway] = 0.0
                d[runaway] = 0.0
                hit[runaway] = False

        # --- move photon -----------------------------------------------------
        st.x += st.ux * d
        st.y += st.uy * d
        st.z += st.uz * d
        st.opl += n_med * d
        if st.lpl is not None:
            if single_region:
                st.lpl[:, 0] += d
            else:
                st.lpl[np.arange(st.size), st.layer] += d
        np.maximum(st.maxz, st.z, out=st.maxz)
        # Spend the step: boundary hits retain the unused remainder,
        # interactions reset to zero (drawn afresh next iteration).
        st.s_dim -= d * mu_t
        st.s_dim[~hit] = 0.0
        np.maximum(st.s_dim, 0.0, out=st.s_dim)

        hit &= st.alive
        bi = hit.nonzero()[0]  # photons at a boundary
        ii = (hit != st.alive).nonzero()[0]  # alive & ~hit: interaction sites

        if bi.size:
            geometry.cross(batch, bi)
        if ii.size:
            _handle_interactions(
                config, tally, rng, events, st, ii,
                mu_a_vec, mu_t_vec, g_vec, uniform_g, single_region,
            )

        if record_path and iteration % _COMPACT_EVERY == 0:
            alive_by_gid = np.zeros(n, dtype=bool)
            alive_by_gid[st.gid[st.alive]] = True
            events.compact(alive_by_gid, batch.detected, tally.path_grid)
            batch.detected[:] = False  # already deposited

        # --- stream compaction -------------------------------------------------
        n_dead = st.size - int(np.count_nonzero(st.alive))
        if n_dead and n_dead >= st.size * _DEAD_FRACTION:
            st.squeeze()

    if record_path:
        events.compact(np.zeros(n, dtype=bool), batch.detected, tally.path_grid)


def _launch_through_surface(
    dirs: np.ndarray,
    w: np.ndarray,
    mask: np.ndarray,
    n_outside: float,
    n_inside: float,
    tally: Tally,
) -> None:
    """Refract launch directions through the entry surface (in place).

    Applies the angle-dependent Fresnel loss as specular reflectance and
    bends each direction by Snell's law, so tilted sources enter the
    tissue physically.  For normal incidence this reduces to the classic
    ``((n1-n2)/(n1+n2))^2`` loss with an unchanged direction.
    """
    cos_i = dirs[mask, 2]
    r = fresnel_reflectance(cos_i, n_outside, n_inside)
    tally.specular_weight += float(r.sum())
    w[mask] -= r
    if n_outside != n_inside:
        ratio = n_outside / n_inside
        sin_t2 = ratio * ratio * (1.0 - cos_i * cos_i)
        cos_t = np.sqrt(np.maximum(0.0, 1.0 - sin_t2))
        sub = dirs[mask]
        sub[:, 0] *= ratio
        sub[:, 1] *= ratio
        sub[:, 2] = cos_t
        norm = np.sqrt((sub * sub).sum(axis=1))
        dirs[mask] = sub / norm[:, None]


def _handle_interactions(
    config, tally, rng, events, st: _State, ii,
    mu_a_vec, mu_t_vec, g_vec, uniform_g, single_region,
) -> None:
    """Drop (absorb) and spin (scatter) photons at interaction sites.

    This runs every loop iteration and dominates the per-iteration constant,
    so it avoids helper-function dispatch — NumPy's Python-level wrappers
    such as ``np.clip`` and ``np.any`` included, which cost more than the
    arithmetic on a batch's tail of a few photons.  The Henyey–Greenstein
    draw and the direction rotation are inlined with fast paths for the
    common case of a single region / uniform anisotropy.  The maths is
    identical to
    :func:`repro.core.sampling.sample_hg_cosine` and
    :func:`repro.core.sampling.rotate_direction` (cross-checked in tests).
    """
    m = ii.size
    wi = st.w[ii]
    if single_region:
        mu_a = mu_a_vec[0]
        mu_t = mu_t_vec[0]
        # --- update absorption and photon weight -------------------------------
        absorbed = wi * (mu_a / mu_t) if mu_t > 0.0 else np.zeros(m)
        tally.absorbed_by_layer[0] += float(absorbed.sum())
    else:
        lay = st.layer[ii]
        mu_a = mu_a_vec[lay]
        mu_t = mu_t_vec[lay]
        absorbed = np.where(mu_t > 0.0, wi * mu_a / np.maximum(mu_t, 1e-300), 0.0)
        tally.absorbed_by_layer += np.bincount(
            lay, weights=absorbed, minlength=tally.absorbed_by_layer.size
        )
    if tally.absorption_grid is not None:
        config.records.absorption_grid.deposit(
            tally.absorption_grid, st.x[ii], st.y[ii], st.z[ii], absorbed
        )
    wi = wi - absorbed
    st.w[ii] = wi

    if events is not None:
        events.append(st.gid[ii], st.x[ii], st.y[ii], st.z[ii], wi)

    # --- spin: Henyey-Greenstein cos(theta), uniform azimuth --------------------
    xi = rng.random(m)
    if uniform_g is not None:
        g = uniform_g
        if abs(g) < 1e-12:
            cos_theta = 2.0 * xi - 1.0
        else:
            frac = (1.0 - g * g) / (1.0 - g + 2.0 * g * xi)
            cos_theta = (1.0 + g * g - frac * frac) / (2.0 * g)
            np.minimum(np.maximum(cos_theta, -1.0, out=cos_theta), 1.0, out=cos_theta)
    else:
        g = g_vec[st.layer[ii]]
        frac = (1.0 - g * g) / (1.0 - g + 2.0 * g * xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_theta = (1.0 + g * g - frac * frac) / (2.0 * g)
        iso = np.abs(g) < 1e-12
        if iso.any():
            cos_theta[iso] = 2.0 * xi[iso] - 1.0
        np.minimum(np.maximum(cos_theta, -1.0, out=cos_theta), 1.0, out=cos_theta)
    psi = rng.random(m)
    psi *= 2.0 * np.pi

    ux, uy, uz = st.ux[ii], st.uy[ii], st.uz[ii]
    sin_theta = np.sqrt(1.0 - cos_theta * cos_theta)
    cos_psi = np.cos(psi)
    sin_psi = np.sin(psi)
    uz2 = uz * uz
    denom = np.sqrt(np.maximum(1.0 - uz2, 1e-300))
    sc = sin_theta * cos_psi
    ss = sin_theta * sin_psi
    nux = (ux * uz * sc - uy * ss) / denom + ux * cos_theta
    nuy = (uy * uz * sc + ux * ss) / denom + uy * cos_theta
    nuz = -denom * sc + uz * cos_theta
    vertical = uz2 >= _VERTICAL_EPS2
    if np.count_nonzero(vertical):
        sign = np.sign(uz[vertical])
        nux[vertical] = sc[vertical]
        nuy[vertical] = sign * ss[vertical]
        nuz[vertical] = sign * cos_theta[vertical]
    norm = np.sqrt(nux * nux + nuy * nuy + nuz * nuz)
    st.ux[ii] = nux / norm
    st.uy[ii] = nuy / norm
    st.uz[ii] = nuz / norm

    # --- if weight too small: survive roulette ----------------------------------
    small = wi < config.roulette.threshold
    if np.count_nonzero(small):
        cand = ii[small]
        survive = rng.random(cand.size) < (1.0 / config.roulette.boost)
        winners = cand[survive]
        losers = cand[~survive]
        if winners.size:
            boost = config.roulette.boost
            tally.roulette_net_weight += float(st.w[winners].sum()) * (boost - 1.0)
            st.w[winners] *= boost
        if losers.size:
            tally.roulette_net_weight -= float(st.w[losers].sum())
            st.w[losers] = 0.0
            st.alive[losers] = False
            tally.record_penetration(st.maxz[losers])
