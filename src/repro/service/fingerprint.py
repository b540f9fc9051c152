"""Canonical request fingerprinting.

The decomposition contract of :mod:`repro.api` — a request's tally depends
only on ``(config, n_photons, seed, task_size, kernel)``, never on the
execution substrate — makes identical requests perfectly cacheable: two
:class:`~repro.api.RunRequest` objects that describe the same physics are
guaranteed to produce bit-identical tallies.  This module turns that
guarantee into an address.  :func:`request_fingerprint` hashes a *canonical*
form of the request in which

* only the fields the request schema (:data:`repro.api.SCHEMA`) gives the
  ``physics`` or ``budget`` role participate; execution and observability
  fields never split the cache address (``sub_batch``, marked
  ``changes_bits`` there, yields statistically equivalent tallies);
* defaults are materialized (``task_size=None`` and
  ``task_size=DEFAULT_TASK_SIZE`` collide; a ``model`` name and the
  explicit :class:`~repro.core.SimulationConfig` it builds collide);
* field order is irrelevant (every mapping is serialised with sorted keys);
* numeric types are normalised (``np.float64(2.0)`` and ``2.0`` collide;
  ``-0.0`` collapses to ``+0.0``; floats hash by their IEEE-754 bits, so
  no decimal round-trip can split or merge values);
* numpy arrays hash by dtype, shape and raw contiguous bytes.

The canonical form is versioned: :data:`FINGERPRINT_VERSION` participates
in the hash, so any future change to the canonicalization rules moves every
fingerprint and a store populated under the old rules can never serve a
wrong answer — only a cold one.

Split addressing (version 2)
----------------------------
Task RNG streams are keyed by ``(seed, task_index)``, so a cached run is a
strict bitwise prefix of any larger-budget run with the same physics and
task size.  To exploit that, the address splits into a **physics
fingerprint** (:func:`physics_fingerprint` — everything *except*
``n_photons``) and the photon budget: the full :func:`request_fingerprint`
hashes the physics fingerprint together with ``n_photons`` (and
``task_range`` when a partial-range run is requested, since a partial
tally is a different result).  The store indexes archives by physics key
and can answer "largest cached budget ≤ requested" queries; the version
bump to 2 moves every address, so stores written under version 1 go cold,
never wrong.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import types
from typing import TYPE_CHECKING

import numpy as np

from ..tissue.layer import LayerStack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import RunRequest

__all__ = [
    "FINGERPRINT_VERSION",
    "canonicalize",
    "canonical_physics",
    "canonical_request",
    "canonical_basis",
    "derivation_basis",
    "perturbable_coefficients",
    "physics_fingerprint",
    "request_fingerprint",
]

#: Version of the canonicalization rules.  Bump on ANY change to
#: :func:`canonicalize`, :func:`canonical_physics` or
#: :func:`canonical_request` — the version is part of the hashed payload,
#: so a bump invalidates every existing fingerprint.  Version 2 split the
#: address into physics fingerprint + photon budget.
FINGERPRINT_VERSION = 2


def _float_token(x: float) -> list:
    """A float as its IEEE-754 bits (exact, JSON-safe, inf/nan included)."""
    x = float(x) + 0.0  # collapse -0.0 onto +0.0
    if math.isnan(x):
        return ["f", "nan"]
    return ["f", struct.pack("<d", x).hex()]


def canonicalize(obj: object) -> object:
    """Reduce ``obj`` to a JSON-serialisable canonical form.

    Handles the value types that appear in simulation configs: scalars
    (python and numpy), sequences, mappings, numpy arrays, dataclasses
    (fields materialized, including defaults) and plain objects (public
    ``__dict__`` attributes).  Raises ``TypeError`` for anything it cannot
    canonicalize deterministically — silently guessing would risk two
    different requests sharing a fingerprint.
    """
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _float_token(obj)
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        if np.issubdtype(data.dtype, np.floating):
            data = data + 0.0  # collapse -0.0 onto +0.0, elementwise
        return [
            "a",
            data.dtype.str,
            list(data.shape),
            hashlib.sha256(data.tobytes()).hexdigest(),
        ]
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, LayerStack):
        # Not a dataclass; the coefficient vectors it precomputes are
        # derived from the layers, so only the defining state participates.
        return [
            "o",
            "repro.tissue.layer.LayerStack",
            {
                "layers": [canonicalize(layer) for layer in obj.layers],
                "n_above": _float_token(obj.n_above),
                "n_below": _float_token(obj.n_below),
            },
        ]
    cls = type(obj)
    name = f"{cls.__module__}.{cls.__qualname__}"
    if isinstance(
        obj,
        (types.FunctionType, types.BuiltinFunctionType, types.MethodType, type),
    ):
        # Functions, lambdas and classes have a ``__dict__`` but carry their
        # behaviour in code — two different ones could collide on identical
        # (typically empty) attribute dicts.
        raise TypeError(f"cannot canonicalize {name} for fingerprinting")
    if dataclasses.is_dataclass(obj):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return ["o", name, fields]
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return [
            "o",
            name,
            {k: canonicalize(v) for k, v in state.items() if not k.startswith("_")},
        ]
    raise TypeError(f"cannot canonicalize {name} for fingerprinting")


def _digest(payload: dict) -> str:
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_physics(request: "RunRequest") -> dict:
    """The canonical budget-independent form of a request.

    Everything that determines per-task results — config, seed, kernel,
    task size — but **not** ``n_photons``: two requests that differ only in
    budget share this form, which is what lets the store treat a smaller
    cached run as a bitwise prefix of a larger one.  Builds the full
    :class:`~repro.core.SimulationConfig` first, so a named ``model``
    request and the equivalent explicit-``config`` request reduce to the
    same form, and every default is materialized.
    """
    from ..api import build_config

    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "seed": int(request.seed),
        "kernel": str(request.kernel),
        "task_size": int(request.resolved_task_size()),
        "config": canonicalize(build_config(request)),
    }


def canonical_request(request: "RunRequest") -> dict:
    """The canonical (physics + budget) form of a request.

    The physics part participates as its own fingerprint, so the full
    address is literally ``hash(physics_key, n_photons, task_range)`` —
    the split the prefix-hit store exploits.  ``task_range`` (a partial
    tally is a different result) joins the budget side; in-memory
    execution knobs like a primed frontier do not participate at all
    (priming never changes the final tally).
    """
    payload = {
        "fingerprint_version": FINGERPRINT_VERSION,
        "physics": physics_fingerprint(request),
        "n_photons": int(request.n_photons),
    }
    task_range = getattr(request, "task_range", None)
    if task_range is not None:
        payload["task_range"] = [int(task_range[0]), int(task_range[1])]
    return payload


def _normalized_stack(stack: LayerStack) -> LayerStack:
    """The stack with every perturbable coefficient pinned to 1.0.

    Two requests share a normalized stack iff they differ *only* in layer
    absorption/scattering coefficients — exactly the family that
    :mod:`repro.perturb` can derive one member of from another without
    re-simulating.
    """
    from ..tissue.layer import Layer, OpticalProperties

    return LayerStack(
        [
            Layer(
                name=layer.name,
                properties=OpticalProperties(
                    mu_a=1.0,
                    mu_s=1.0,
                    g=layer.properties.g,
                    n=layer.properties.n,
                ),
                thickness=layer.thickness,
            )
            for layer in stack.layers
        ],
        n_above=stack.n_above,
        n_below=stack.n_below,
    )


def canonical_basis(request: "RunRequest") -> dict:
    """The canonical form of a request with μa/μs factored out.

    Identical to :func:`canonical_physics` except the tissue stack's
    ``mu_a``/``mu_s`` are pinned to 1.0 per layer — all other physics
    (geometry, anisotropy, refractive indices, source, detector, gate,
    boundary mode, seed, kernel, task size) stays in.  Two requests with
    equal bases are perturbation siblings: the detected-photon estimators
    of one can be derived from the other's path records.
    """
    from ..api import build_config

    config = build_config(request)
    payload = canonical_physics(request)
    payload["config"] = canonicalize(
        dataclasses.replace(config, stack=_normalized_stack(config.stack))
    )
    # Distinct namespace: an all-ones stack must not collide with its own
    # physics fingerprint.
    payload["role"] = "derivation_basis"
    return payload


def derivation_basis(request: "RunRequest") -> str:
    """Stable hex key of a request's perturbation family.

    Requests that differ only in layer μa/μs (and possibly ``n_photons``)
    share a basis; the result store indexes paths-bearing archives by it so
    a miss can be answered by reweighting a sibling's records
    (:mod:`repro.perturb`) instead of re-simulating.
    """
    return _digest(canonical_basis(request))


def perturbable_coefficients(request: "RunRequest") -> dict:
    """The per-layer μa/μs a request asks for (plain floats, layer order).

    The complement of :func:`canonical_basis`: together they reconstruct
    the physics of the request.  Stored in provenance and the result-store
    index so a derivation can compute the coefficient delta between a
    request and a cached sibling without rebuilding either config.
    """
    from ..api import build_config

    stack = build_config(request).stack
    return {
        "mu_a": [float(v) for v in stack.mu_a],
        "mu_s": [float(v) for v in stack.mu_s],
    }


def physics_fingerprint(request: "RunRequest") -> str:
    """Stable hex fingerprint of a request's budget-independent physics."""
    return _digest(canonical_physics(request))


def request_fingerprint(request: "RunRequest") -> str:
    """Stable hex fingerprint of the result a request describes.

    Two requests share a fingerprint iff their canonical forms are equal —
    and by the decomposition contract, equal canonical forms guarantee
    bit-identical tallies on any substrate.
    """
    return _digest(canonical_request(request))
