"""Archive-level derivation: reweight a saved run without re-simulating.

The on-disk counterpart of :func:`repro.perturb.reweight.derive_tally`:
load a parent archive written by ``save_tally`` (with path records), apply
a perturbation, return the derived tally.  **Fails closed**: an archive
without path records raises :class:`PerturbationError` — the caller
decides whether to re-simulate; this module never does it silently.
"""

from __future__ import annotations

from pathlib import Path

from ..core.tally import Tally
from .reweight import PerturbationDelta, PerturbationError, derive_tally

__all__ = ["derive_from_archive"]


def derive_from_archive(
    path: "str | Path",
    delta: PerturbationDelta,
    *,
    mu_s=None,
    expected_fingerprint: "str | None" = None,
) -> Tally:
    """Derive a perturbed tally from the archive at ``path``.

    ``mu_s`` (the parent's per-layer scattering coefficients) is required
    only for scattering perturbations; when omitted there, it is read from
    the archive provenance (``coefficients.mu_s``) if present.
    ``expected_fingerprint`` self-verifies the archive against the parent
    request that claims it, exactly like ``load_tally``.

    Raises :class:`PerturbationError` when the archive carries no path
    records — derivation never silently falls back to simulation.
    """
    from ..io.results import load_tally

    parent = load_tally(path, expected_fingerprint=expected_fingerprint, paths=True)
    if parent.paths is None:
        raise PerturbationError(
            f"archive {path} carries no path records; the parent run must "
            "be executed with capture_paths=True before it can seed a "
            "derivation"
        )
    if mu_s is None and not delta.is_exact:
        coeffs = (parent.provenance or {}).get("coefficients") or {}
        mu_s = coeffs.get("mu_s")
    derived = derive_tally(parent, delta, mu_s=mu_s)
    derived.derivation["parent_fingerprint"] = (
        (parent.provenance or {}).get("fingerprint")
    )
    return derived
