"""Decoder fuzzing: malformed input raises only the documented error.

``decode_tally`` raises only :class:`~repro.io.CodecError`; the archive
readers (``load_tally`` with and without ``paths=True``, ``load_frontier``,
``archive_summary``) raise only ``ValueError`` or ``OSError``.  Inputs are
arbitrary bytes, valid encodings with bytes mutated or cut short, and
valid encodings with one JSON field replaced or deleted.

The tier-1 run uses Hypothesis' default budget; CI's decoder-fuzz step
runs this file again with ``--hypothesis-profile=fuzz`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.io import (
    CodecError,
    archive_summary,
    decode_tally,
    encode_tally,
    load_frontier,
    load_tally,
    save_tally,
)
from repro.io.codec import _PREAMBLE
from tests.fuzzing import draw_edit, fuzz, mutate, mutations

READERS = (load_tally, partial(load_tally, paths=True), load_frontier, archive_summary)


# ------------------------------------------------------------------- codec


@pytest.fixture(scope="module")
def encoded(hand_built) -> bytes:
    tally, _ = hand_built
    return bytes(encode_tally(tally))


def _decodes_or_codec_error(buf) -> None:
    try:
        decode_tally(buf)
    except CodecError:
        pass


@fuzz
@given(raw=st.binary(max_size=512))
def test_codec_arbitrary_bytes(raw):
    _decodes_or_codec_error(raw)
    _decodes_or_codec_error(b"RTLY\x01\x00\x00\x00" + raw)


@fuzz
@given(edits=mutations, cut=st.integers(min_value=0))
def test_codec_mutated_bytes(encoded, edits, cut):
    mutated = mutate(encoded, edits)
    _decodes_or_codec_error(bytearray(mutated))
    _decodes_or_codec_error(mutated[: cut % (len(mutated) + 1)])


@fuzz
@given(data=st.data())
def test_codec_manifest_fields(encoded, data):
    base = _PREAMBLE.size + _PREAMBLE.unpack_from(encoded, 0)[2]
    manifest = json.loads(encoded[_PREAMBLE.size : base])
    raw = json.dumps(draw_edit(data, manifest)).encode()
    buf = bytearray(_PREAMBLE.size) + raw + encoded[base:]
    _PREAMBLE.pack_into(buf, 0, b"RTLY", 1, len(raw))
    _decodes_or_codec_error(buf)


# ----------------------------------------------------------------- archive


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def archive_bytes(hand_built, scratch) -> bytes:
    tally, frontier = hand_built
    path = save_tally(
        scratch / "valid.npz", tally, {"fingerprint": "ab" * 32}, frontier=frontier
    )
    return path.read_bytes()


def _readers_raise_only_documented(path) -> None:
    for read in READERS:
        try:
            read(path)
        except (ValueError, OSError):
            pass


@fuzz
@given(raw=st.binary(max_size=512))
def test_archive_arbitrary_bytes(scratch, raw):
    path = scratch / "arbitrary.npz"
    for content in (raw, b"PK\x03\x04" + raw):
        path.write_bytes(content)
        _readers_raise_only_documented(path)


@fuzz
@given(edits=mutations, cut=st.integers(min_value=0))
def test_archive_mutated_bytes(scratch, archive_bytes, edits, cut):
    path = scratch / "mutated.npz"
    mutated = mutate(archive_bytes, edits)
    for content in (mutated, archive_bytes[: cut % (len(archive_bytes) + 1)]):
        path.write_bytes(content)
        _readers_raise_only_documented(path)


@fuzz
@given(data=st.data())
def test_archive_header_fields(scratch, archive_bytes, data):
    source = scratch / "source.npz"
    source.write_bytes(archive_bytes)
    with np.load(source) as archive:
        members = {name: archive[name] for name in archive.files}
    header = draw_edit(data, json.loads(members["header"].tobytes()))
    members["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    path = scratch / "edited.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    _readers_raise_only_documented(path)
