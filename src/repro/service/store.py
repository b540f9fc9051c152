"""Content-addressed result store.

Tallies are persisted under their request fingerprint —
``<root>/<fingerprint>.npz`` — via the versioned archive format of
:mod:`repro.io.results`, alongside a JSON index carrying sizes and access
times.  The store is the serving system's memory: a request whose
fingerprint is present never has to be simulated again.

Properties
----------
* **Atomic writes.**  Both the archive (``save_tally``'s temp-file +
  ``os.replace``) and the index are written atomically; a reader or a
  concurrent server process never observes a torn artifact.
* **Self-verifying reads.**  Every stored tally embeds its fingerprint in
  the archive provenance; :meth:`ResultStore.get` and :meth:`get_frontier`
  re-check it on load (see ``load_tally(expected_fingerprint=...)``)
  through the one read they share with :meth:`read_bytes`.  A stale,
  foreign or unreadable artifact — hand-copied into the store, produced under
  different canonicalization rules, or truncated on disk — is evicted and
  reported as a miss instead of being served as a wrong answer.
* **Bounded size.**  ``max_bytes`` caps the total archive footprint with
  least-recently-used eviction (access order, not insertion order).
* **Prefix addressing.**  Entries carry their **physics fingerprint**
  (budget-independent; see :func:`repro.service.physics_fingerprint`) and
  photon budget, so :meth:`ResultStore.best_prefix` answers "largest
  cached budget below the requested one" queries.  An archive saved with
  its reduction frontier (:meth:`put` ``frontier=...``) is
  *budget-extendable*: :meth:`get_frontier` restores the span partials a
  delta run primes into its reducer.  Storing a larger budget for the
  same physics **supersedes** dominated smaller-budget entries (same
  physics, smaller budget, no wider frontier, no path records the new
  entry lacks) — the larger archive answers every query the smaller one
  could.
* **Derivation addressing.**  Entries also carry their **derivation
  basis** (μa/μs factored out; see
  :func:`repro.service.derivation_basis`), the per-layer coefficients,
  and whether the archive holds per-photon path records.
  :meth:`best_derivation` answers "which cached sibling can a
  perturbation-MC reweighting (:mod:`repro.perturb`) derive this request
  from" queries; ``get(fingerprint, paths=True)`` restores the parent
  with its records in one read.
* **Observability.**  Hits, misses, evictions, supersessions, foreign
  rejections and the current byte footprint flow into a
  :class:`~repro.observe.Telemetry` when one is attached.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Callable, TypeVar

from ..core.reduce import TallyFrontier
from ..core.tally import Tally
from ..io.results import archive_summary, load_frontier, load_tally, save_tally
from ..observe import Telemetry

__all__ = ["ResultStore"]

_T = TypeVar("_T")

logger = logging.getLogger(__name__)

_INDEX_NAME = "index.json"
#: Version 3 added derivation addressing (basis, coefficients, paths flag).
_INDEX_VERSION = 3

#: Default size bound: 1 GiB of tally archives.
DEFAULT_MAX_BYTES = 1 << 30


def _prefix_tasks(spans) -> int:
    """Tasks covered by a contiguous-from-zero span list, else 0."""
    expect = 0
    for start, stop in spans:
        if start != expect:
            return 0
        expect = stop
    return expect


class ResultStore:
    """A size-bounded, content-addressed cache of simulation tallies."""

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0 or None, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.telemetry = telemetry
        self._lock = threading.RLock()
        self._rebuilt = False
        self._index: dict[str, dict] = self._load_index()
        if self._rebuilt:
            with self._lock:
                self._save_index()
        self._prune_missing()

    # ------------------------------------------------------------- index I/O
    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def _load_index(self) -> dict[str, dict]:
        try:
            raw = json.loads(self._index_path.read_text())
        except FileNotFoundError:
            # No index at all.  A fresh store is the common case; artifacts
            # without an index mean the index was lost — rebuild from them.
            return self._rebuild_index() if any(self.root.glob("*.npz")) else {}
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Corrupt or truncated index (e.g. the process died mid-crash
            # with a torn file): the artifacts are the ground truth.
            return self._rebuild_index()
        if not isinstance(raw, dict) or raw.get("index_version") != _INDEX_VERSION:
            return self._rebuild_index()
        entries = raw.get("entries")
        if not isinstance(entries, dict):
            return self._rebuild_index()
        return dict(entries)

    def _rebuild_index(self) -> dict[str, dict]:
        """Reconstruct the index from the ``*.npz`` artifacts on disk.

        Sizes and access times come from ``stat``; content correctness is
        not re-verified here — every :meth:`get` self-verifies the archive
        provenance anyway, so a corrupt artifact is evicted on first read
        rather than blocking startup.
        """
        entries: dict[str, dict] = {}
        for path in sorted(self.root.glob("*.npz")):
            fingerprint = path.stem
            if not fingerprint or "/" in fingerprint or "." in fingerprint:
                continue  # not a store artifact
            try:
                st = path.stat()
            except OSError:
                continue
            entry = {
                "bytes": st.st_size,
                "created": st.st_mtime,
                "last_access": st.st_mtime,
                "physics": None,
                "n_photons": None,
                "frontier_tasks": 0,
                "basis": None,
                "coefficients": None,
                "paths": False,
                "derived": False,
            }
            # Recover the prefix/derivation-addressing metadata from the
            # archive header; an unreadable artifact still gets a bare
            # entry — the first get() self-verifies and evicts it if
            # foreign.
            try:
                summary = archive_summary(path)
            except (ValueError, OSError):
                summary = None
            if summary is not None:
                prov = summary["provenance"] or {}
                entry["physics"] = prov.get("physics_fingerprint")
                if prov.get("task_range") is None:
                    entry["n_photons"] = prov.get("n_photons")
                entry["frontier_tasks"] = _prefix_tasks(summary["frontier_spans"])
                entry["basis"] = prov.get("derivation_basis")
                entry["coefficients"] = prov.get("coefficients")
                entry["paths"] = "paths" in summary.get("sections", [])
                # "derived" means perturbation-reweighted (approximate for
                # scattering); prefix-extended entries also carry
                # ``derived_from`` but are exact simulation — distinguish
                # by the perturbation payload.
                entry["derived"] = "perturbation" in (prov.get("derived_from") or {})
            entries[fingerprint] = entry
        logger.warning(
            "result store %s: index unreadable, rebuilt from %d artifact(s)",
            self.root, len(entries),
        )
        self._count("service.store.index_rebuilds")
        self._rebuilt = True
        return entries

    def _save_index(self) -> None:
        payload = json.dumps(
            {"index_version": _INDEX_VERSION, "entries": self._index}
        )
        tmp = self._index_path.with_name(_INDEX_NAME + ".tmp")
        try:
            tmp.write_text(payload)
            os.replace(tmp, self._index_path)
        finally:
            tmp.unlink(missing_ok=True)

    def _prune_missing(self) -> None:
        with self._lock:
            stale = [fp for fp in self._index if not self.path(fp).exists()]
            for fp in stale:
                del self._index[fp]
            if stale:
                self._save_index()
            self._set_bytes_gauge()

    # ------------------------------------------------------------- accessors
    def path(self, fingerprint: str) -> Path:
        """Where an artifact with this fingerprint lives (existing or not)."""
        if not fingerprint or "/" in fingerprint or "." in fingerprint:
            raise ValueError(f"malformed fingerprint {fingerprint!r}")
        return self.root / f"{fingerprint}.npz"

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._index)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(e["bytes"] for e in self._index.values())

    # ------------------------------------------------------------ operations
    def get(self, fingerprint: str, *, paths: bool = False) -> Tally | None:
        """The stored tally, or ``None`` on miss.

        ``paths=True`` also restores the entry's path records onto
        ``tally.paths`` (``None`` when it holds none) — what a derivation
        parent needs; exact hits leave them on disk.

        A present-but-foreign or unreadable artifact (provenance
        fingerprint absent or different, damaged archive) is deleted and
        counted as ``service.store.foreign`` — the store never serves a
        result it cannot prove belongs to the request.
        """
        tally = self._read(
            fingerprint,
            lambda path: load_tally(
                path, expected_fingerprint=fingerprint, paths=paths
            ),
        )
        hit = tally is not None
        self._count("service.store.hits" if hit else "service.store.misses")
        return tally

    def read_bytes(self, fingerprint: str) -> bytes | None:
        """The raw ``.npz`` archive bytes (for HTTP serving), or ``None``."""
        self.path(fingerprint)  # validates before touching the index
        return self._read(fingerprint, Path.read_bytes)

    def put(
        self,
        fingerprint: str,
        tally: Tally,
        provenance: dict | None = None,
        *,
        physics: str | None = None,
        n_photons: int | None = None,
        frontier: TallyFrontier | None = None,
        basis: str | None = None,
        coefficients: dict | None = None,
        derived: bool = False,
    ) -> Path:
        """Persist ``tally`` under ``fingerprint``; returns the archive path.

        The fingerprint is stamped into the archive provenance (overriding
        any caller-supplied value) so :meth:`get` can verify the artifact.

        ``physics`` / ``n_photons`` register the entry for
        :meth:`best_prefix` queries; ``frontier`` stores the run's reducer
        span partials in the archive, making the entry budget-extendable
        (restored via :meth:`get_frontier`).  ``basis`` / ``coefficients``
        (see :func:`repro.service.derivation_basis` and
        :func:`repro.service.perturbable_coefficients`) register it for
        :meth:`best_derivation` queries; path records travel on
        ``tally.paths`` and are persisted automatically by ``save_tally``.
        ``derived`` marks entries produced by reweighting rather than
        simulation (dispreferred as future derivation parents, so
        approximation error never compounds silently).

        A new entry **supersedes** same-physics entries with a smaller
        budget whose frontier covers no more tasks than the new one and
        which hold no path records the new entry lacks — the larger
        archive then answers every query the smaller one could, so the
        smaller is freed immediately.

        Eviction runs after the write: least-recently-used artifacts are
        deleted until the store fits ``max_bytes`` again (the newly written
        artifact is kept even if it alone exceeds the bound — a cache that
        rejects its newest entry would never converge).
        """
        provenance = dict(provenance or {})
        provenance["fingerprint"] = fingerprint
        if physics is not None:
            provenance.setdefault("physics_fingerprint", physics)
        if basis is not None:
            provenance.setdefault("derivation_basis", basis)
        if coefficients is not None:
            provenance.setdefault("coefficients", coefficients)
        frontier_tasks = frontier.prefix_tasks if frontier is not None else 0
        has_paths = tally.paths is not None
        with self._lock:
            path = save_tally(
                self.path(fingerprint), tally, provenance=provenance,
                frontier=frontier,
            )
            now = time.time()
            self._index[fingerprint] = {
                "bytes": path.stat().st_size,
                "created": now,
                "last_access": now,
                "physics": physics,
                "n_photons": int(n_photons) if n_photons is not None else None,
                "frontier_tasks": frontier_tasks,
                "basis": basis,
                "coefficients": coefficients,
                "paths": has_paths,
                "derived": bool(derived),
            }
            if physics is not None and n_photons is not None:
                for fp, entry in list(self._index.items()):
                    if (
                        fp != fingerprint
                        and entry.get("physics") == physics
                        and entry.get("n_photons") is not None
                        and entry["n_photons"] < n_photons
                        and entry.get("frontier_tasks", 0) <= frontier_tasks
                        # Never free a paths-bearing entry for a paths-less
                        # one: the records are what derivations feed on.
                        and (has_paths or not entry.get("paths", False))
                    ):
                        self._evict(fp)
                        self._count("service.store.superseded")
            self._evict_over_budget(keep=fingerprint)
            self._save_index()
            self._set_bytes_gauge()
            return path

    def best_prefix(
        self, physics: str, n_photons: int
    ) -> tuple[str, int, int] | None:
        """The best budget-extension base for a ``(physics, n_photons)`` query.

        Returns ``(fingerprint, cached_n_photons, frontier_tasks)`` for the
        largest-budget entry with the same physics fingerprint, a strictly
        smaller budget, and a usable (non-empty, prefix-shaped) stored
        frontier — or ``None`` when no such entry exists.  An exact-budget
        hit is :meth:`get`'s business, not this method's.
        """
        with self._lock:
            best: tuple[str, int, int] | None = None
            for fp, entry in self._index.items():
                cached = entry.get("n_photons")
                if (
                    entry.get("physics") != physics
                    or cached is None
                    or cached >= n_photons
                    or entry.get("frontier_tasks", 0) <= 0
                ):
                    continue
                if best is None or cached > best[1]:
                    best = (fp, cached, entry["frontier_tasks"])
            return best

    def best_derivation(
        self, basis: str, n_photons: int, *, exclude: str | None = None
    ) -> tuple[str, dict, bool] | None:
        """The best perturbation parent for a ``(basis, n_photons)`` query.

        Returns ``(fingerprint, coefficients, derived)`` for a cached entry
        with the same derivation basis, the **same** photon budget (a
        derivation reweights the detected ensemble — it cannot change its
        size) and stored path records, or ``None``.  Simulation-born
        parents are preferred over derived ones (so scattering
        approximation error never compounds); among equals the most
        recently accessed wins.  ``exclude`` skips one fingerprint
        (typically the request's own, which would be an exact hit, not a
        derivation).
        """
        with self._lock:
            best: tuple[str, dict, bool] | None = None
            best_rank: tuple | None = None
            for fp, entry in self._index.items():
                if (
                    fp == exclude
                    or entry.get("basis") != basis
                    or entry.get("basis") is None
                    or not entry.get("paths", False)
                    or entry.get("n_photons") != n_photons
                    or not entry.get("coefficients")
                ):
                    continue
                rank = (not entry.get("derived", False), entry.get("last_access", 0))
                if best_rank is None or rank > best_rank:
                    best = (fp, entry["coefficients"], bool(entry.get("derived")))
                    best_rank = rank
            return best

    def get_frontier(self, fingerprint: str) -> TallyFrontier | None:
        """The stored reduction frontier for an entry, or ``None``.

        Self-verifying like :meth:`get`: a foreign or unreadable artifact
        is evicted and reported as a miss, never served as a base.
        """
        return self._read(
            fingerprint,
            lambda path: load_frontier(path, expected_fingerprint=fingerprint),
        )

    def _read(self, fingerprint: str, load: Callable[[Path], _T]) -> _T | None:
        """The one self-verifying read behind every accessor.

        Looks the entry up and loads its artifact with ``load``.  A load
        that fails is a foreign or damaged artifact: it is evicted and
        counted as ``service.store.foreign``.  A load that finds something
        touches the entry's ``last_access`` for LRU order.
        """
        with self._lock:
            entry = self._index.get(fingerprint)
            if entry is None or not self.path(fingerprint).exists():
                return None
            try:
                value = load(self.path(fingerprint))
            except (ValueError, OSError):
                self._evict(fingerprint)
                self._save_index()
                self._count("service.store.foreign")
                return None
            if value is not None:
                entry["last_access"] = time.time()
                self._save_index()
            return value

    def clear(self) -> None:
        with self._lock:
            for fp in list(self._index):
                self._evict(fp)
            self._save_index()
            self._set_bytes_gauge()

    # -------------------------------------------------------------- eviction
    def _evict_over_budget(self, keep: str) -> None:
        if self.max_bytes is None:
            return
        total = sum(e["bytes"] for e in self._index.values())
        victims = sorted(
            (fp for fp in self._index if fp != keep),
            key=lambda fp: self._index[fp]["last_access"],
        )
        for fp in victims:
            if total <= self.max_bytes:
                break
            total -= self._index[fp]["bytes"]
            self._evict(fp)
            self._count("service.store.evictions")

    def _evict(self, fingerprint: str) -> None:
        self._index.pop(fingerprint, None)
        self.path(fingerprint).unlink(missing_ok=True)

    # --------------------------------------------------------------- metrics
    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.count(name)

    def _set_bytes_gauge(self) -> None:
        if self.telemetry is not None:
            self.telemetry.gauge(
                "service.store.bytes", sum(e["bytes"] for e in self._index.values())
            )
