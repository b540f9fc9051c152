"""Content-addressed result store.

Tallies are persisted under their request fingerprint —
``<root>/<fingerprint>.npz`` — via the versioned archive format of
:mod:`repro.io.results`, alongside a JSON index carrying sizes and access
times.  The store is the serving system's memory: a request whose
fingerprint is present never has to be simulated again.

Properties
----------
* **Atomic artifacts, snapshot index.**  Each archive is written
  atomically (``save_tally``'s temp-file + ``os.replace``), so a reader or
  a concurrent server process never observes a torn artifact.  The index
  lives in memory; :meth:`ResultStore.close` snapshots it to
  ``index.json``.  Open reconciles the snapshot against the artifacts:
  an entry whose archive is gone is dropped, and an archive with no entry
  or a changed ``(size, mtime_ns)`` is re-read from its header.  The
  directory is the log — a put is a rename, an eviction an unlink — so a
  killed process loses only recency (``last_access``), never an entry.
* **Self-verifying reads.**  Every stored tally embeds its fingerprint in
  the archive provenance; :meth:`ResultStore.get` and :meth:`get_frontier`
  re-check it on load (see ``load_tally(expected_fingerprint=...)``)
  through the one read they share with :meth:`read_bytes`.  A stale,
  foreign or unreadable artifact — hand-copied into the store, produced under
  different canonicalization rules, or truncated on disk — is evicted and
  reported as a miss instead of being served as a wrong answer.
* **Bounded size.**  ``max_bytes`` caps the total archive footprint with
  least-recently-used eviction (access order, not insertion order).
* **Prefix addressing.**  Entries carry their budget-independent
  **physics fingerprint** and photon budget, so
  :meth:`ResultStore.best_prefix` finds the largest cached budget below a
  requested one.  An archive saved with its reduction frontier is
  *budget-extendable*: :meth:`get_frontier` restores the span partials a
  delta run primes into its reducer.  A larger budget for the same
  physics **supersedes** the smaller entries it dominates.
* **Derivation addressing.**  Entries also carry their **derivation
  basis** (μa/μs factored out), per-layer coefficients and whether they
  hold path records, so :meth:`best_derivation` finds the cached sibling
  a perturbation-MC reweighting (:mod:`repro.perturb`) can derive a
  request from; ``get(fingerprint, paths=True)`` reads it in one go.
* **Observability.**  Hits, misses, evictions, supersessions, foreign
  rejections and the current byte footprint flow into a
  :class:`~repro.observe.Telemetry` when one is attached.
"""

from __future__ import annotations

import contextlib
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
#: Version 3 added derivation addressing (basis, coefficients, paths flag);
#: version 4 stamps entries with their artifact's ``mtime_ns``.  A v3
#: snapshot still loads, stamped from ``stat``.
_INDEX_VERSION = 4

#: Every index entry field with its JSON type and its value when unknown.
_OPT_STR = (str, type(None))
_FIELDS = {
    "bytes": (int, 0), "mtime_ns": (int, 0), "created": ((int, float), 0.0),
    "last_access": ((int, float), 0.0), "physics": (_OPT_STR, None),
    "n_photons": ((int, type(None)), None), "frontier_tasks": (int, 0),
    "basis": (_OPT_STR, None), "coefficients": ((dict, type(None)), None),
    "paths": (bool, False), "derived": (bool, False),
}

#: Default size bound: 1 GiB of tally archives.
DEFAULT_MAX_BYTES = 1 << 30


def _is_fingerprint(name: str) -> bool:
    return bool(name) and "/" not in name and "." not in name


def _well_typed(entry) -> bool:
    return isinstance(entry, dict) and all(
        key in entry and isinstance(entry[key], kind)
        for key, (kind, _) in _FIELDS.items()
    )


def _entry(st: os.stat_result, **fields) -> dict:
    """An index entry for the artifact ``st`` describes."""
    entry = {key: default for key, (_, default) in _FIELDS.items()}
    entry.update(bytes=st.st_size, mtime_ns=st.st_mtime_ns, created=st.st_mtime)
    return {**entry, "last_access": st.st_mtime, **fields}


def _prefix_tasks(spans) -> int:
    """Tasks covered by a contiguous-from-zero span list, else 0."""
    expect = 0
    for start, stop in spans:
        if start != expect:
            return 0
        expect = stop
    return expect


def _summarise(path: str, st: os.stat_result) -> dict:
    """An index entry re-read from an artifact's archive header.

    Content is not verified here: every read self-verifies, so a foreign
    or unreadable artifact gets a bare entry and is evicted on its first
    read instead of blocking open.
    """
    try:
        summary = archive_summary(path)
    except (ValueError, OSError):
        return _entry(st)
    prov = summary["provenance"] or {}
    entry = _entry(
        st,
        physics=prov.get("physics_fingerprint"),
        n_photons=prov.get("n_photons") if prov.get("task_range") is None else None,
        frontier_tasks=_prefix_tasks(summary["frontier_spans"]),
        basis=prov.get("derivation_basis"),
        coefficients=prov.get("coefficients"),
        paths="paths" in summary.get("sections", []),
        # "derived" means perturbation-reweighted (approximate for
        # scattering); prefix-extended entries also carry ``derived_from``
        # but are exact simulation — distinguish by the perturbation payload.
        derived="perturbation" in (prov.get("derived_from") or {}),
    )
    return entry if _well_typed(entry) else _entry(st)


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
        self._index_path = self.root / _INDEX_NAME
        self._index: dict[str, dict] = self._open_index()
        self._set_bytes_gauge()

    # ------------------------------------------------------------- index I/O
    def _open_index(self) -> dict[str, dict]:
        """The last snapshot, reconciled against the artifacts on disk.

        A missing, unreadable or unknown-version snapshot reconciles as an
        empty one: a rebuild, counted as ``service.store.index_rebuilds``
        unless the store is new.  The result is written back only if it
        differs from the snapshot.
        """
        snapshot = self._load_snapshot()
        entries = self._reconcile(snapshot or {})
        if snapshot is None:
            if not entries and not self._index_path.exists():
                return entries  # a new store
            logger.warning(
                "result store %s: index unreadable, rebuilt from %d artifact(s)",
                self.root, len(entries),
            )
            self._count("service.store.index_rebuilds")
        if entries != snapshot:
            self._write_snapshot(entries)
        return entries

    def _load_snapshot(self) -> dict | None:
        try:
            raw = json.loads(self._index_path.read_bytes())
        except (OSError, ValueError, RecursionError):
            return None
        if isinstance(raw, dict) and raw.get("index_version") in (3, _INDEX_VERSION):
            entries = raw.get("entries")
            return entries if isinstance(entries, dict) else None
        return None

    def _reconcile(self, snapshot: dict) -> dict[str, dict]:
        """The snapshot's entries, made true of the ``*.npz`` files on disk.

        An entry whose artifact is gone is dropped.  An artifact with no
        well-typed entry, or whose ``(st_size, st_mtime_ns)`` differs from
        its entry's, is re-read with :func:`_summarise`.  A v3 entry has no
        ``mtime_ns``; a matching size keeps it, stamped from ``stat``.
        """
        entries: dict[str, dict] = {}
        with os.scandir(self.root) as listing:
            for item in listing:
                fingerprint, ext = os.path.splitext(item.name)
                if ext != ".npz" or not _is_fingerprint(fingerprint):
                    continue  # not a store artifact
                try:
                    st = item.stat()
                except OSError:
                    continue
                known = snapshot.get(fingerprint)
                if isinstance(known, dict):
                    known = {"mtime_ns": st.st_mtime_ns, **known}
                fresh = _well_typed(known) and (
                    known["bytes"], known["mtime_ns"]
                ) == (st.st_size, st.st_mtime_ns)
                entries[fingerprint] = known if fresh else _summarise(item.path, st)
        return entries

    def _write_snapshot(self, entries: dict[str, dict]) -> None:
        """Atomically replace ``index.json``; a failure is logged, not raised.

        Every acknowledged put is already an artifact and the next open
        reconciles against them, so a failed snapshot costs only recency.
        """
        payload = json.dumps({"index_version": _INDEX_VERSION, "entries": entries})
        tmp = self._index_path.with_name(_INDEX_NAME + ".tmp")
        try:
            tmp.write_text(payload)
            os.replace(tmp, self._index_path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink()
            logger.warning(
                "result store %s: index snapshot failed (%s); the next open "
                "reconciles it from the artifacts", self.root, exc,
            )
            self._count("service.store.snapshot_failures")

    def close(self) -> None:
        """Snapshot the index to ``index.json``.

        Besides reconciliation on open, this is the only index write.  The
        store stays usable; a later ``close`` snapshots again.
        """
        with self._lock:
            self._write_snapshot(self._index)

    # ------------------------------------------------------------- accessors
    def path(self, fingerprint: str) -> Path:
        """Where an artifact with this fingerprint lives (existing or not)."""
        if not _is_fingerprint(fingerprint):
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
        ``tally.paths`` (``None`` when it holds none), as a derivation
        parent needs.  A foreign or unreadable artifact is deleted and
        counted as ``service.store.foreign``: the store never serves a
        result it cannot prove belongs to the request.
        """
        tally = self._read(
            fingerprint,
            lambda p: load_tally(p, expected_fingerprint=fingerprint, paths=paths),
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
        :meth:`best_prefix`; ``frontier`` stores the run's reducer span
        partials, making it budget-extendable (see :meth:`get_frontier`).
        ``basis`` / ``coefficients`` register it for
        :meth:`best_derivation`; path records travel on ``tally.paths``.
        ``derived`` marks a reweighted (not simulated) entry, dispreferred
        as a parent so approximation error never compounds silently.

        A new entry **supersedes** same-physics entries with a smaller
        budget, a frontier covering no more tasks and no path records it
        lacks: it answers every query they could.  Then least-recently-used
        artifacts are evicted until the store fits ``max_bytes``; the new
        one is kept even alone over the bound, or the cache never converges.
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
            self._index[fingerprint] = _entry(
                path.stat(), created=now, last_access=now, physics=physics,
                n_photons=int(n_photons) if n_photons is not None else None,
                frontier_tasks=frontier_tasks, basis=basis,
                coefficients=coefficients, paths=has_paths, derived=bool(derived),
            )
            if physics is not None and n_photons is not None:
                for fp, entry in list(self._index.items()):
                    if (
                        fp != fingerprint
                        and entry["physics"] == physics
                        and entry["n_photons"] is not None
                        and entry["n_photons"] < n_photons
                        and entry["frontier_tasks"] <= frontier_tasks
                        # Never free a paths-bearing entry for a paths-less
                        # one: the records are what derivations feed on.
                        and (has_paths or not entry["paths"])
                    ):
                        self._evict(fp)
                        self._count("service.store.superseded")
            self._evict_over_budget(keep=fingerprint)
            self._set_bytes_gauge()
            return path

    def best_prefix(
        self, physics: str, n_photons: int
    ) -> tuple[str, int, int] | None:
        """The best budget-extension base for a ``(physics, n_photons)`` query.

        Returns ``(fingerprint, cached_n_photons, frontier_tasks)`` for the
        largest-budget entry with the same physics, a strictly smaller
        budget and a usable (non-empty, prefix-shaped) stored frontier, or
        ``None``.  An exact-budget hit is :meth:`get`'s business.
        """
        with self._lock:
            bases = [
                (fp, e["n_photons"], e["frontier_tasks"])
                for fp, e in self._index.items()
                if e["physics"] == physics and e["n_photons"] is not None
                and e["n_photons"] < n_photons and e["frontier_tasks"] > 0
            ]
        return max(bases, key=lambda base: base[1], default=None)

    def best_derivation(
        self, basis: str, n_photons: int, *, exclude: str | None = None
    ) -> tuple[str, dict, bool] | None:
        """The best perturbation parent for a ``(basis, n_photons)`` query.

        Returns ``(fingerprint, coefficients, derived)`` for an entry with
        the same basis, the **same** budget (reweighting cannot resize the
        detected ensemble) and path records, or ``None``.  Simulated
        parents beat derived ones, so approximation error never compounds;
        among equals the most recently accessed wins.  ``exclude`` skips
        one fingerprint (typically the request's own exact hit).
        """
        with self._lock:
            parents = [
                (fp, e["coefficients"], e["derived"], e["last_access"])
                for fp, e in self._index.items()
                if fp != exclude and e["basis"] is not None and e["basis"] == basis
                and e["paths"] and e["n_photons"] == n_photons and e["coefficients"]
            ]
        best = max(parents, key=lambda p: (not p[2], p[3]), default=None)
        return None if best is None else best[:3]

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
        touches the entry's ``last_access`` (in memory) for LRU order.
        """
        with self._lock:
            entry = self._index.get(fingerprint)
            if entry is None or not self.path(fingerprint).exists():
                return None
            try:
                value = load(self.path(fingerprint))
            except (ValueError, OSError):
                self._evict(fingerprint)
                self._count("service.store.foreign")
                return None
            if value is not None:
                entry["last_access"] = time.time()
            return value

    def clear(self) -> None:
        with self._lock:
            for fp in list(self._index):
                self._evict(fp)
            self._set_bytes_gauge()

    # -------------------------------------------------------------- eviction
    def _evict_over_budget(self, keep: str) -> None:
        if self.max_bytes is None:
            return
        total = self.total_bytes()
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
            self.telemetry.gauge("service.store.bytes", self.total_bytes())
