"""Zero-copy binary tally codec for the distributed transports.

Pickling a :class:`~repro.core.tally.Tally` rebuilds every ndarray, stat
and histogram object on the receiving side and copies each array out of the
pickle stream.  On the coordinator — which deserialises *every* worker's
result — that object churn is the paper's classic master bottleneck.  This
module replaces the pickled tally with a single self-describing buffer:

    ┌──────────────────────────────────────────────────────────────┐
    │ magic ``b"RTLY"`` · u16 version · u32 header length   (16 B) │
    ├──────────────────────────────────────────────────────────────┤
    │ JSON manifest: scalars, RunningStats, RecordConfig,          │
    │ and an array table of ``{name, dtype, shape, offset}``       │
    ├──────────────────────────────────────────────────────────────┤
    │ raw ndarray bytes, each 8-byte aligned                       │
    └──────────────────────────────────────────────────────────────┘

:func:`decode_tally` reconstructs arrays as ``np.frombuffer`` **views into
the received buffer** — no copy, no per-array allocation.  Views inherit
the buffer's mutability: decode from a ``bytearray`` (what the network
layer's ``recv_into`` and pickle round-trips of :class:`EncodedTally`
produce) and the tally is writable, so the reducer can merge siblings into
it in place; decode from immutable ``bytes`` and the arrays are read-only
(merge sites must treat such a tally as unowned).

The format is versioned: a decoder refuses buffers whose magic or version
it does not understand, so the codec can evolve without silent corruption.
The codec composes with, and is orthogonal to, the frame-level zlib
compression negotiated by :mod:`repro.distributed.net`.
"""

from __future__ import annotations

import json
import math
import pickle
import struct
from dataclasses import dataclass

import numpy as np

from ..core.config import RecordConfig
from ..core.tally import Tally
from .results import _MALFORMED, _pack_paths, _pack_tally, _unpack_paths, _unpack_tally

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "EncodedTally",
    "decode_tally",
    "encode_tally",
    "pickled_baseline_bytes",
]

#: Bump on any incompatible change to the buffer layout or manifest schema.
CODEC_VERSION = 1

_MAGIC = b"RTLY"
#: magic, version, header(manifest) length; padded to 16 bytes so the
#: manifest starts aligned.
_PREAMBLE = struct.Struct("<4sHxxI4x")
_ALIGN = 8
#: Array dtype kinds a tally holds: bool, (unsigned) integer, float, complex.
_NUMERIC_KINDS = "biufc"


class CodecError(ValueError):
    """The buffer is not a tally this codec (version) can decode."""


def _pad(n: int) -> int:
    return (-n) % _ALIGN


def encode_tally(tally: Tally) -> bytearray:
    """Serialise ``tally`` into one contiguous, self-describing buffer.

    Returns a ``bytearray`` (not ``bytes``) deliberately: pickle preserves
    the type, so a buffer that crosses a process pool still decodes into
    *writable* zero-copy views on the other side.
    """
    header, arrays = _pack_tally(tally)
    paths_meta = None
    if tally.paths is not None:
        # Records must be sealed before crossing a transport (the worker
        # seals under its task index right after the kernel returns).
        paths_meta, path_arrays = _pack_paths(tally.paths, "paths_")
        arrays.update(path_arrays)

    table = []
    offset = 0  # relative to the start of the array section
    prepared: list[np.ndarray] = []
    for name, array in arrays.items():
        data = np.ascontiguousarray(array)
        prepared.append(data)
        table.append(
            {
                "name": name,
                "dtype": data.dtype.str,
                "shape": list(data.shape),
                "offset": offset,
            }
        )
        offset += data.nbytes + _pad(data.nbytes)

    manifest = json.dumps(
        {**header, "paths": paths_meta, "arrays": table}, separators=(",", ":")
    ).encode("utf-8")
    manifest += b" " * _pad(len(manifest))

    buf = bytearray(_PREAMBLE.size + len(manifest) + offset)
    _PREAMBLE.pack_into(buf, 0, _MAGIC, CODEC_VERSION, len(manifest))
    buf[_PREAMBLE.size : _PREAMBLE.size + len(manifest)] = manifest
    base = _PREAMBLE.size + len(manifest)
    for entry, data in zip(table, prepared):
        start = base + entry["offset"]
        buf[start : start + data.nbytes] = data.tobytes()
    return buf


def decode_tally(buf: bytes | bytearray | memoryview) -> Tally:
    """Rebuild a :class:`Tally` whose arrays are zero-copy views into ``buf``.

    The views are writable iff ``buf`` is (``bytearray``: writable;
    ``bytes``: read-only).  Raises :class:`CodecError` — and nothing else —
    on a foreign, truncated, malformed or future-versioned buffer.
    """
    view = memoryview(buf)
    if len(view) < _PREAMBLE.size:
        raise CodecError(f"buffer of {len(view)} bytes is too short for a tally")
    magic, version, header_len = _PREAMBLE.unpack_from(view, 0)
    if magic != _MAGIC:
        raise CodecError(f"bad magic {magic!r}: not an encoded tally")
    if version != CODEC_VERSION:
        raise CodecError(
            f"unsupported tally codec version {version} (supported: {CODEC_VERSION})"
        )
    base = _PREAMBLE.size + header_len
    if len(view) < base:
        raise CodecError("truncated tally buffer: manifest incomplete")
    try:
        manifest = json.loads(bytes(view[_PREAMBLE.size : base]).decode("utf-8"))
        if not isinstance(manifest, dict):
            raise CodecError("corrupt tally manifest: not a JSON object")
        views = {
            entry["name"]: _array_view(buf, base, len(view), entry)
            for entry in manifest["arrays"]
        }
        tally = _unpack_tally(manifest, views)
        if manifest.get("paths") is not None:
            tally.paths = _unpack_paths(manifest["paths"], views, "paths_")
    except CodecError:
        raise
    except _MALFORMED as exc:  # JSON and UTF-8 errors are ValueErrors too
        raise CodecError(f"corrupt tally manifest: {exc!r}") from exc
    return tally


def _array_view(buf, base: int, size: int, entry: dict) -> np.ndarray:
    """One manifest array as a view into ``buf[base:size]``, or CodecError."""
    dtype = np.dtype(entry["dtype"])
    shape, offset = entry["shape"], entry["offset"]
    if dtype.kind not in _NUMERIC_KINDS:
        raise CodecError(f"array {entry['name']!r}: non-numeric dtype {dtype.str!r}")
    if not all(type(n) is int and n >= 0 for n in [offset, *shape]):
        raise CodecError(
            f"array {entry['name']!r}: shape and offset must be non-negative integers"
        )
    count = math.prod(shape)
    start = base + offset
    if start + count * dtype.itemsize > size:
        raise CodecError(
            f"truncated tally buffer: array {entry['name']!r} out of bounds"
        )
    return np.frombuffer(buf, dtype=dtype, count=count, offset=start).reshape(shape)


@dataclass
class EncodedTally:
    """A tally in codec form, ready for any byte transport.

    Travels inside protocol messages in place of a live :class:`Tally`;
    the receiving side calls :meth:`decode` (or
    :func:`repro.distributed.protocol.thaw_result`) exactly once, at the
    point the arrays are actually needed.
    """

    payload: bytearray

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def decode(self) -> Tally:
        return decode_tally(self.payload)


#: Pickle-size baselines keyed by tally shape — see
#: :func:`pickled_baseline_bytes`.
_baselines: dict[tuple[int, RecordConfig], int] = {}


def pickled_baseline_bytes(tally: Tally) -> int:
    """What pickling this tally would have cost, calibrated once per shape.

    The ``codec.bytes_saved`` telemetry compares the codec payload against
    the pickle the wire used to carry.  Pickling every tally just to
    measure it would reintroduce the cost the codec removes, so the
    baseline is measured once per ``(n_layers, records)`` shape — tallies
    of one run share a shape, and their pickles differ by at most a few
    bytes of varint wiggle.
    """
    key = (tally.n_layers, tally.records)
    cached = _baselines.get(key)
    if cached is None:
        cached = len(pickle.dumps(tally, protocol=pickle.HIGHEST_PROTOCOL))
        _baselines[key] = cached
    return cached
