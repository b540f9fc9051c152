"""Result persistence and the one tally schema.

Tallies are saved as ``.npz`` archives (arrays + a JSON-encoded scalar
header).  The format is explicitly versioned, self-describing and
round-trips everything a :class:`~repro.core.tally.Tally` holds, so long
simulations can be resumed by merging saved partial tallies — the on-disk
analogue of what the paper's DataManager does with client results.

The mapping from a tally to a JSON header plus named arrays is written
once, here (:func:`_pack_tally` / :func:`_unpack_tally`), and shared with
the wire codec (:mod:`repro.io.codec`), which lays the same header and
arrays out in one buffer instead of a zip.

Since format version 2 an archive can also carry the run's **reduction
frontier** (:class:`~repro.core.reduce.TallyFrontier`): the canonical
span partials of the reducer tree, stored alongside the final tally.  A
frontier-bearing archive is *budget-extendable* — a later run with the
same physics and a larger photon budget can prime the frontier back into
its reducer and simulate only the missing tasks, producing a tally
bit-identical to a from-scratch run (see ``repro.service.store``).

Both optional sections — the frontier and the per-detected-photon path
records — are opt-in on read: a plain :func:`load_tally` decompresses
neither, ``load_tally(paths=True)`` attaches the records and
:func:`load_frontier` restores the span partials.  Every read goes through
one open-and-verify step, so malformed content raises ``ValueError`` and a
file-system failure ``OSError``, nothing else.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile

from ..core.config import RecordConfig
from ..core.reduce import TallyFrontier
from ..core.tally import Tally
from ..detect.records import GridSpec, Histogram, PathRecords, RunningStat

__all__ = [
    "save_tally",
    "load_tally",
    "load_frontier",
    "archive_summary",
]

_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)

#: Scalar tally fields, in header order (the order is part of both formats).
_SCALARS = (
    "n_layers",
    "n_launched",
    "specular_weight",
    "diffuse_reflectance_weight",
    "transmittance_weight",
    "lost_weight",
    "roulette_net_weight",
    "detected_count",
    "detected_weight",
)
_STATS = ("pathlength", "penetration_depth")
#: Voxel grids: each name is both a ``RecordConfig`` spec and a tally array.
_GRIDS = ("absorption_grid", "path_grid")
_HISTS = ("pathlength_hist", "reflectance_rho_hist", "penetration_hist")

#: What a header or array set of the wrong shape raises while it is mapped
#: back to a tally: missing keys, wrong JSON types, inconsistent arrays.
_MALFORMED = (
    AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError
)
#: ...and what a damaged zip or deflate stream raises besides ``OSError``
#: (a member flagged as encrypted is a ``RuntimeError``).
_DAMAGED = (
    zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError
)


def _pack_tally(tally: Tally, prefix: str = "") -> tuple[dict, dict[str, np.ndarray]]:
    """The one tally mapping: a JSON-ready header and ``prefix``-named arrays.

    Path records are not part of it (see :func:`_pack_paths`): each format
    places them in its own header slot.
    """
    header = {name: getattr(tally, name) for name in _SCALARS}
    header.update({name: astuple(getattr(tally, name)) for name in _STATS})
    header["records"] = asdict(tally.records)
    arrays = {f"{prefix}absorbed_by_layer": tally.absorbed_by_layer}
    for name in _GRIDS:
        if getattr(tally, name) is not None:
            arrays[prefix + name] = getattr(tally, name)
    for name in _HISTS:
        hist = getattr(tally, name)
        if hist is not None:
            arrays[f"{prefix}{name}_edges"] = hist.edges
            arrays[f"{prefix}{name}_counts"] = hist.counts
    return header, arrays


def _unpack_tally(header: dict, arrays, prefix: str = "") -> Tally:
    """Invert :func:`_pack_tally` from a header and any mapping of arrays.

    Raises one of :data:`_MALFORMED` on a header or array set that does not
    describe a tally; each caller maps those to its own error type.
    """
    rd = header["records"]
    records = RecordConfig(
        **{
            name: GridSpec(**{k: tuple(v) for k, v in rd[name].items()})
            if rd[name] else None
            for name in _GRIDS
        },
        **{
            name: tuple(rd[name]) if rd[name] else None
            for name in ("pathlength_bins", "reflectance_rho_bins", "penetration_bins")
        },
    )
    return Tally(
        records=records,
        **{name: header[name] for name in _SCALARS},
        **{name: RunningStat(*header[name]) for name in _STATS},
        absorbed_by_layer=arrays[f"{prefix}absorbed_by_layer"],
        **{name: arrays[prefix + name] for name in _GRIDS if prefix + name in arrays},
        **{
            name: Histogram(
                edges=arrays[f"{prefix}{name}_edges"],
                counts=arrays[f"{prefix}{name}_counts"],
            )
            for name in _HISTS
            if f"{prefix}{name}_edges" in arrays
        },
    )


def _pack_paths(paths: PathRecords, prefix: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Sealed path records as a header entry and ``prefix``-named arrays."""
    arrays = {prefix + name: array for name, array in paths.to_arrays().items()}
    return {"n_layers": paths.n_layers}, arrays


def _unpack_paths(meta: dict, arrays, prefix: str) -> PathRecords:
    """Invert :func:`_pack_paths`; touches only the ``prefix``-named arrays."""
    return PathRecords.from_arrays(
        int(meta["n_layers"]),
        {name[len(prefix):]: arrays[name] for name in arrays if name.startswith(prefix)},
    )


def save_tally(
    path: str | Path,
    tally: Tally,
    provenance: dict | None = None,
    *,
    frontier: TallyFrontier | None = None,
) -> Path:
    """Serialise a tally to ``path`` (``.npz``); returns the path written.

    ``provenance`` is an optional JSON-serialisable dict describing how the
    tally was produced (model name, seed, photon budget, package version,
    boundary mode, …); it is embedded in the archive header and restored by
    :func:`load_tally` as the ``provenance`` attribute, so an archive found
    months later still says what run created it.

    ``frontier`` optionally stores the run's reducer span partials next to
    the final tally, making the archive budget-extendable (restored by
    :func:`load_frontier`; a plain :func:`load_tally` never reads them).

    When the tally carries per-detected-photon path records
    (``tally.paths``, from a ``capture_paths`` run) they are persisted
    automatically under ``p_``-prefixed arrays — the raw material for
    :mod:`repro.perturb` derivation — and restored by
    ``load_tally(path, paths=True)``.

    The write is atomic (temp file + ``os.replace``): readers — including a
    resuming :class:`~repro.distributed.checkpoint.CheckpointManager` —
    never observe a torn archive at ``path``, even if the writer is killed
    mid-save.
    """
    path = Path(path)
    header, arrays = _pack_tally(tally)
    header["format_version"] = _FORMAT_VERSION
    header["provenance"] = provenance
    if frontier is not None and len(frontier):
        header["frontier"] = []
        for i, (start, stop, partial) in enumerate(frontier):
            sub, sub_arrays = _pack_tally(partial, prefix=f"f{i}_")
            header["frontier"].append({**sub, "start": int(start), "stop": int(stop)})
            arrays.update(sub_arrays)
    if tally.paths is not None:
        header["paths"], path_arrays = _pack_paths(tally.paths, "p_")
        arrays.update(path_arrays)
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        **arrays,
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


@contextmanager
def _open_archive(path: Path, expected_fingerprint: str | None = None):
    """The one archive read: yield ``(header, members)`` of a verified archive.

    The header must be a JSON object of a readable format version whose
    provenance, if any, is an object — and, when ``expected_fingerprint``
    is given, carries that fingerprint.  Members decompress lazily, on
    first access.  Malformed content raises ``ValueError`` whether it
    fails here or in the caller's block; the file system's own failures
    stay ``OSError``.
    """
    try:
        data = np.load(path)
        if not isinstance(data, NpzFile):
            raise ValueError(f"{path} is not a tally archive")
        with data:
            header = json.loads(data["header"].tobytes().decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError(f"tally archive {path}: header is not a JSON object")
            if header.get("format_version") not in _READABLE_VERSIONS:
                raise ValueError(
                    f"unsupported tally format version {header.get('format_version')!r}"
                )
            provenance = header.get("provenance")
            if not isinstance(provenance, (dict, type(None))):
                raise ValueError(f"tally archive {path}: provenance is not a JSON object")
            found = (provenance or {}).get("fingerprint")
            if expected_fingerprint is not None and found != expected_fingerprint:
                raise ValueError(
                    f"tally at {path} belongs to a different request: "
                    f"provenance fingerprint {found!r} != expected "
                    f"{expected_fingerprint!r}"
                )
            yield header, data
    except ValueError:
        raise
    except _MALFORMED + _DAMAGED as exc:
        raise ValueError(f"malformed tally archive {path}: {exc!r}") from exc


def load_tally(
    path: str | Path,
    *,
    expected_fingerprint: str | None = None,
    paths: bool = False,
) -> Tally:
    """Load a tally written by :func:`save_tally`.

    If the archive carries run provenance it is attached to the returned
    tally as a ``provenance`` dict attribute (``None`` otherwise).

    ``paths=True`` also restores the per-detected-photon path records onto
    ``tally.paths`` (``None`` when the archive carries none).  They are
    opt-in because they can outweigh the tally many times over: a plain
    load decompresses no record (and no frontier) member.

    ``expected_fingerprint`` makes the load *self-verifying*: the archive
    must carry that request fingerprint in its provenance (see
    :func:`repro.service.request_fingerprint`) or a ``ValueError`` is
    raised.  The content-addressed result store uses this to detect stale
    or foreign artifacts instead of serving them as answers.
    """
    with _open_archive(Path(path), expected_fingerprint) as (header, data):
        tally = _unpack_tally(header, data)
        tally.provenance = header.get("provenance")
        if paths and header.get("paths") is not None:
            tally.paths = _unpack_paths(header["paths"], data, "p_")
    return tally


def archive_summary(path: str | Path) -> dict:
    """Cheap metadata peek: provenance + optional-section layout, no tallies.

    Reads only the JSON header member of the archive.  Returns::

        {
            "provenance": dict | None,
            "frontier_spans": [(start, stop), ...],   # [] without a frontier
            "sections": ["frontier", "paths", ...],    # optional sections present
        }

    ``sections`` names the optional payloads the archive carries beyond the
    plain tally: ``"frontier"`` (budget-extension span partials, see
    :func:`load_frontier`) and ``"paths"`` (per-detected-photon path
    records, see ``load_tally(paths=True)``).  Used by the result store to
    rebuild its index from artifacts on disk without deserialising any
    arrays.
    """
    with _open_archive(Path(path)) as (header, _):
        spans = [
            (int(sub["start"]), int(sub["stop"]))
            for sub in header.get("frontier") or []
        ]
    sections = []
    if spans:
        sections.append("frontier")
    if header.get("paths") is not None:
        sections.append("paths")
    return {
        "provenance": header.get("provenance"),
        "frontier_spans": spans,
        "sections": sections,
    }


def load_frontier(
    path: str | Path, *, expected_fingerprint: str | None = None
) -> TallyFrontier | None:
    """Load the reduction frontier stored in an archive, if any.

    Returns ``None`` when the archive carries no frontier (format-1
    archives, or saves that did not request capture).  Like
    :func:`load_tally`, ``expected_fingerprint`` makes the read
    self-verifying against the provenance fingerprint.
    """
    with _open_archive(Path(path), expected_fingerprint) as (header, data):
        spans = [
            (int(sub["start"]), int(sub["stop"]), _unpack_tally(sub, data, f"f{i}_"))
            for i, sub in enumerate(header.get("frontier") or [])
        ]
        return TallyFrontier(spans) if spans else None
