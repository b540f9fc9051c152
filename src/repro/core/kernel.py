"""Scalar reference kernel — a direct transcription of the paper's Fig. 1.

::

    begin
        initialise photon
        while(photon survived)
            move photon
            if(changed medium)
                if(photon angle > critical angle) internally reflect
                else refract
            if(photon passed through detector) save path and end
            update absorbtion and photon weight
            if(weight too small) survive roulette
    end

This module traces one photon at a time with plain Python floats.  It is the
*reference* implementation: slow, but easy to audit against the pseudocode
and against the MCML hop-drop-spin algorithm (Prahl et al., the paper's
ref [5]).  The vectorised production kernel (:mod:`repro.core.vkernel`) is
validated against it statistically.

Physics notes
-------------
* Steps are carried across boundaries in *dimensionless* form
  (s = −ln ξ, geometric length s/µt), the standard multi-layer treatment:
  when a hop is truncated at an interface the unused fraction of the step
  is retained and re-scaled by the next layer's µt.
* ``boundary_mode="probabilistic"`` samples reflect-vs-transmit from the
  Fresnel reflectance.  ``boundary_mode="classical"`` splits the weight
  deterministically at *external* (tissue–ambient) boundaries: the fraction
  (1 − R) escapes and is scored, the fraction R continues internally
  reflected.  Interior boundaries with mismatched indices fall back to the
  probabilistic rule (the Table 1 models are index-matched internally, so
  this only matters for exotic stacks; see DESIGN.md).
"""

from __future__ import annotations

import math

import numpy as np

from ..detect.records import GridSpec, PathRecords
from .config import SimulationConfig
from .fresnel import fresnel_reflectance
from .sampling import rotate_direction, sample_hg_cosine
from .tally import Tally

__all__ = ["run_batch_scalar", "trace_photon"]

#: Weight below which a "classical" reflected remnant is not worth tracking
#: and is terminated by roulette anyway; kept for documentation purposes.
_TINY = 1e-300


class _PathBuffer:
    """Per-photon scratch recording of interaction sites.

    Only committed to the tally's path grid when the photon is detected
    ("save path" in Fig. 1); discarded otherwise.
    """

    __slots__ = ("xs", "ys", "zs", "ws")

    def __init__(self) -> None:
        self.xs: list[float] = []
        self.ys: list[float] = []
        self.zs: list[float] = []
        self.ws: list[float] = []

    def visit(self, x: float, y: float, z: float, w: float) -> None:
        self.xs.append(x)
        self.ys.append(y)
        self.zs.append(z)
        self.ws.append(w)

    def commit(self, spec: GridSpec, grid: np.ndarray, scale: float = 1.0) -> None:
        if not self.xs:
            return
        spec.deposit(
            grid,
            np.asarray(self.xs),
            np.asarray(self.ys),
            np.asarray(self.zs),
            np.asarray(self.ws) * scale,
        )


def run_batch_scalar(
    config: SimulationConfig,
    n_photons: int,
    rng: np.random.Generator,
    *,
    telemetry=None,
    capture_paths: bool = False,
) -> Tally:
    """Trace ``n_photons`` photons one at a time and return the tally.

    ``telemetry`` (optional :class:`~repro.observe.Telemetry`) traces the
    batch as one ``kernel.batch`` span; photons accumulate on the
    ``kernel.photons`` counter.  The per-photon loop is never instrumented.

    ``capture_paths`` records one :class:`~repro.detect.PathRecords` row per
    detection event (per-layer pathlength, exit weight, optical pathlength,
    maximum depth) on ``tally.paths``.  Capture consumes no RNG draws, so
    every other tally field is bit-identical with and without it; the
    caller seals the records under its task index.

    Only layer stacks are traced: any other config (a voxel medium) raises
    ``ValueError`` — the vectorised kernel serves every geometry.
    """
    if not isinstance(config, SimulationConfig):
        raise ValueError(
            f"kernel 'scalar' traces layer stacks only, not {type(config).__name__}; "
            "use kernel='vector'"
        )
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    tally = Tally(n_layers=len(config.stack), records=config.records)
    if capture_paths:
        tally.paths = PathRecords(len(config.stack))
    if n_photons == 0:
        return tally
    positions, directions = config.source.sample(n_photons, rng)
    if telemetry is None:
        for i in range(n_photons):
            trace_photon(config, tally, rng, positions[i], directions[i])
    else:
        with telemetry.span("kernel.batch", kernel="scalar", photons=n_photons):
            for i in range(n_photons):
                trace_photon(config, tally, rng, positions[i], directions[i])
        telemetry.count("kernel.photons", n_photons, kernel="scalar")
    return tally


def trace_photon(
    config: SimulationConfig,
    tally: Tally,
    rng: np.random.Generator,
    position: np.ndarray,
    direction: np.ndarray,
) -> None:
    """Trace a single photon and accumulate its contributions into ``tally``.

    ``position`` and ``direction`` are length-3 arrays (the direction must be
    a unit vector).  Follows the Fig. 1 control flow; see the module
    docstring for the physics conventions.
    """
    stack = config.stack
    gate = config.pathlength_gate()
    record_path = tally.path_grid is not None
    path = _PathBuffer() if record_path else None
    # Per-layer geometric pathlength, maintained only when the caller wants
    # perturbation-MC records; the transport itself never reads it.
    layer_paths = [0.0] * len(stack) if tally.paths is not None else None

    x, y, z = float(position[0]), float(position[1]), float(position[2])
    ux, uy, uz = float(direction[0]), float(direction[1]), float(direction[2])

    # --- initialise photon ---------------------------------------------------
    w = 1.0
    if z == 0.0 and uz > 0.0:
        # Surface launch: angle-dependent Fresnel loss (specular) and Snell
        # refraction of the entry direction.  At normal incidence this is
        # the classic ((n1-n2)/(n1+n2))^2 with an unchanged direction.
        n_outside = stack.n_above
        n_inside = stack[0].properties.n
        r_sp = float(fresnel_reflectance(uz, n_outside, n_inside))
        tally.specular_weight += r_sp
        w -= r_sp
        if n_outside != n_inside:
            ratio = n_outside / n_inside
            sin_t2 = ratio * ratio * (1.0 - uz * uz)
            cos_t = math.sqrt(max(0.0, 1.0 - sin_t2))
            ux *= ratio
            uy *= ratio
            uz = cos_t
            norm = math.sqrt(ux * ux + uy * uy + uz * uz)
            ux /= norm
            uy /= norm
            uz /= norm
        layer = 0
    else:
        layer = stack.layer_index_at(z)
    tally.n_launched += 1
    if record_path:
        path.visit(x, y, z, w)

    optical_path = 0.0
    max_depth = z
    s_dimless = 0.0  # unused dimensionless step carried across boundaries
    steps = 0

    while True:
        props = stack[layer].properties
        mu_t = props.mu_t
        n_here = props.n

        if s_dimless <= 0.0:
            s_dimless = -math.log(1.0 - rng.random())

        # Geometric distance to the interaction point in this layer.
        d_step = s_dimless / mu_t if mu_t > 0.0 else math.inf

        # Distance to the layer boundary along the direction of travel.
        if uz > 0.0:
            d_boundary = (stack.layer_bottom(layer) - z) / uz
        elif uz < 0.0:
            d_boundary = (stack.layer_top(layer) - z) / uz  # both negative -> positive
        else:
            d_boundary = math.inf

        if math.isinf(d_boundary) and math.isinf(d_step):
            # Transparent semi-infinite layer: the photon would travel
            # forever without interacting.  Pathological configuration;
            # book the weight as lost and stop.
            tally.lost_weight += w
            tally.record_penetration(np.asarray([max_depth]))
            return

        if d_boundary <= d_step:
            # --- move photon to the boundary; handle medium change -----------
            x += ux * d_boundary
            y += uy * d_boundary
            z += uz * d_boundary
            optical_path += n_here * d_boundary
            if layer_paths is not None:
                layer_paths[layer] += d_boundary
            if mu_t > 0.0:
                s_dimless -= d_boundary * mu_t

            going_up = uz < 0.0
            exiting = (going_up and layer == 0) or (
                not going_up and layer == len(stack) - 1 and not stack.is_semi_infinite
            )
            if going_up:
                n_next = stack.n_above if exiting else stack[layer - 1].properties.n
            else:
                n_next = stack.n_below if exiting else stack[layer + 1].properties.n

            cos_i = abs(uz)
            r_fresnel = float(fresnel_reflectance(cos_i, n_here, n_next))

            if config.boundary_mode == "classical" and exiting:
                # Deterministic Fresnel split: (1 - R) escapes and is scored
                # (including detection), the remnant R*w continues internally
                # reflected so energy is conserved exactly.
                escaped = (1.0 - r_fresnel) * w
                if escaped > 0.0:
                    _score_escape(
                        config, tally, gate, path,
                        x, y, uz, escaped, optical_path, max_depth,
                        top=going_up, terminal=False, layer_paths=layer_paths,
                    )
                w *= r_fresnel
                if w <= _TINY:
                    tally.record_penetration(np.asarray([max_depth]))
                    return
                uz = -uz  # remaining weight is internally reflected
            else:
                if rng.random() < r_fresnel:
                    # internally reflect
                    uz = -uz
                else:
                    if exiting:
                        _score_escape(
                            config, tally, gate, path,
                            x, y, uz, w, optical_path, max_depth,
                            top=going_up, terminal=True, layer_paths=layer_paths,
                        )
                        return  # photon left the tissue (detected or not)
                    # refract into the adjacent layer (Snell)
                    ratio = n_here / n_next
                    sin_t2 = ratio * ratio * (1.0 - cos_i * cos_i)
                    cos_t = math.sqrt(max(0.0, 1.0 - sin_t2))
                    ux *= ratio
                    uy *= ratio
                    uz = math.copysign(cos_t, uz)
                    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
                    ux /= norm
                    uy /= norm
                    uz /= norm
                    layer += -1 if going_up else 1
            continue  # no interaction happened; spend the rest of the step

        # --- move photon to the interaction site ------------------------------
        x += ux * d_step
        y += uy * d_step
        z += uz * d_step
        optical_path += n_here * d_step
        if layer_paths is not None:
            layer_paths[layer] += d_step
        s_dimless = 0.0
        max_depth = max(max_depth, z)

        # --- update absorption and photon weight ------------------------------
        if mu_t > 0.0:
            absorbed = w * props.mu_a / mu_t
            if absorbed > 0.0:
                tally.absorbed_by_layer[layer] += absorbed
                if tally.absorption_grid is not None:
                    config.records.absorption_grid.deposit(
                        tally.absorption_grid,
                        np.asarray([x]), np.asarray([y]), np.asarray([z]),
                        np.asarray([absorbed]),
                    )
            w -= absorbed

        if record_path:
            path.visit(x, y, z, w)

        # --- spin: sample the new direction ------------------------------------
        cos_theta = float(sample_hg_cosine(props.g, rng, 1)[0])
        psi = rng.uniform(0.0, 2.0 * math.pi)
        nux, nuy, nuz = rotate_direction(
            np.asarray([ux]), np.asarray([uy]), np.asarray([uz]),
            np.asarray([cos_theta]), np.asarray([psi]),
        )
        ux, uy, uz = float(nux[0]), float(nuy[0]), float(nuz[0])

        # --- if weight too small: survive roulette -----------------------------
        if w < config.roulette.threshold:
            if rng.random() < 1.0 / config.roulette.boost:
                boosted = w * config.roulette.boost
                tally.roulette_net_weight += boosted - w
                w = boosted
            else:
                tally.roulette_net_weight -= w
                tally.record_penetration(np.asarray([max_depth]))
                return  # photon absorbed by the roulette

        steps += 1
        if steps >= config.max_steps:
            tally.lost_weight += w
            tally.record_penetration(np.asarray([max_depth]))
            return


def _score_escape(
    config: SimulationConfig,
    tally: Tally,
    gate,
    path: _PathBuffer | None,
    x: float,
    y: float,
    uz: float,
    weight: float,
    optical_path: float,
    max_depth: float,
    *,
    top: bool,
    terminal: bool,
    layer_paths: list[float] | None = None,
) -> bool:
    """Score an escaping weight; returns False when the photon was detected.

    Top-surface escapes are diffuse reflectance and are offered to the
    detector (+ gate).  Bottom escapes are transmittance.  The return value
    signals "passed through detector" so callers can end the photon.
    ``terminal`` marks escapes that end the photon; classical-mode partial
    escapes keep it alive and must not enter the penetration histogram.
    """
    if terminal:
        tally.record_penetration(np.asarray([max_depth]))
    if not top:
        tally.transmittance_weight += weight
        return True

    tally.diffuse_reflectance_weight += weight
    if tally.reflectance_rho_hist is not None:
        tally.reflectance_rho_hist.add(
            np.asarray([math.hypot(x, y)]), np.asarray([weight])
        )

    accepted = bool(config.detector.accepts(np.asarray([x]), np.asarray([y]), np.asarray([uz]))[0])
    if accepted and gate is not None:
        accepted = bool(gate.accepts(np.asarray([optical_path]))[0])
    if not accepted:
        return True

    # --- photon passed through detector: save path and end --------------------
    tally.detected_count += 1
    tally.detected_weight += weight
    tally.pathlength.add(np.asarray([optical_path]), np.asarray([weight]))
    tally.penetration_depth.add(np.asarray([max_depth]), np.asarray([weight]))
    if tally.pathlength_hist is not None:
        tally.pathlength_hist.add(np.asarray([optical_path]), np.asarray([weight]))
    if tally.paths is not None and layer_paths is not None:
        # Snapshot: a classical-mode photon continues after a partial
        # escape and may be detected again with longer paths.
        tally.paths.append(
            np.asarray(layer_paths), weight, optical_path, max_depth, 0
        )
    if path is not None and tally.path_grid is not None:
        path.commit(config.records.path_grid, tally.path_grid)
    return False
