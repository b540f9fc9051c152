"""Round-trip tests for the zero-copy tally codec (repro.io.codec)."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core import RecordConfig, SimulationConfig, Tally, task_rng
from repro.core.simulation import run_photons
from repro.detect.records import GridSpec
from repro.io import CodecError, EncodedTally, decode_tally, encode_tally
from repro.io.codec import CODEC_VERSION, _PREAMBLE
from repro.sources import PencilBeam

RECORD_SHAPES = {
    "bare": RecordConfig(),
    "absorption_grid": RecordConfig(
        absorption_grid=GridSpec(shape=(4, 5, 6), lo=(-2, -2, 0), hi=(2, 2, 4))
    ),
    "path_grid": RecordConfig(
        path_grid=GridSpec(shape=(3, 3, 3), lo=(-1, -1, 0), hi=(1, 1, 2))
    ),
    "histograms": RecordConfig(
        pathlength_bins=(0.0, 50.0, 16),
        reflectance_rho_bins=(12.0, 8),
        penetration_bins=(10.0, 12),
    ),
    "everything": RecordConfig(
        absorption_grid=GridSpec(shape=(4, 4, 4), lo=(-2, -2, 0), hi=(2, 2, 4)),
        path_grid=GridSpec(shape=(2, 2, 2), lo=(-1, -1, 0), hi=(1, 1, 2)),
        pathlength_bins=(0.0, 50.0, 16),
        reflectance_rho_bins=(12.0, 8),
        penetration_bins=(10.0, 12),
    ),
}


def tally_for(fast_stack, records: RecordConfig, photons: int = 40) -> Tally:
    config = SimulationConfig(
        stack=fast_stack, source=PencilBeam(), records=records
    )
    return run_photons(config, photons, task_rng(3, 0))


class TestRoundTrip:
    @pytest.mark.parametrize("shape", sorted(RECORD_SHAPES))
    def test_bit_identical(self, fast_stack, shape):
        tally = tally_for(fast_stack, RECORD_SHAPES[shape])
        decoded = decode_tally(encode_tally(tally))
        assert decoded == tally  # Tally.__eq__ is bitwise-strict

    @pytest.mark.parametrize("shape", sorted(RECORD_SHAPES))
    def test_empty_tally(self, shape):
        tally = Tally(n_layers=3, records=RECORD_SHAPES[shape])
        assert decode_tally(encode_tally(tally)) == tally

    def test_path_records_round_trip(self, fast_stack):
        config = SimulationConfig(stack=fast_stack, source=PencilBeam())
        tally = run_photons(config, 40, task_rng(3, 0), capture_paths=True)
        tally.paths.seal(0)
        decoded = decode_tally(encode_tally(tally))
        assert decoded.paths == tally.paths
        assert decoded.paths.segment_keys == (0,)
        assert decoded == tally

    def test_merge_of_decoded_matches_merge_of_originals(self, fast_stack):
        records = RECORD_SHAPES["everything"]
        config = SimulationConfig(
            stack=fast_stack, source=PencilBeam(), records=records
        )
        a = run_photons(config, 30, task_rng(3, 0))
        b = run_photons(config, 30, task_rng(3, 1))
        expected = a.merge(b)
        via_codec = decode_tally(encode_tally(a)).imerge(
            decode_tally(encode_tally(b))
        )
        assert via_codec == expected


class TestZeroCopySemantics:
    def test_bytearray_buffer_gives_writable_views(self, fast_stack):
        buf = encode_tally(tally_for(fast_stack, RECORD_SHAPES["everything"]))
        assert isinstance(buf, bytearray)
        decoded = decode_tally(buf)
        assert decoded.absorbed_by_layer.flags.writeable
        assert decoded.absorption_grid.flags.writeable

    def test_bytes_buffer_gives_readonly_views(self, fast_stack):
        buf = bytes(encode_tally(tally_for(fast_stack, RECORD_SHAPES["bare"])))
        decoded = decode_tally(buf)
        assert not decoded.absorbed_by_layer.flags.writeable

    def test_views_share_the_buffer(self, fast_stack):
        buf = encode_tally(tally_for(fast_stack, RECORD_SHAPES["bare"]))
        decoded = decode_tally(buf)
        before = decoded.absorbed_by_layer.copy()
        buf[-1] ^= 0xFF  # flip bits in the underlying buffer...
        assert not np.array_equal(decoded.absorbed_by_layer, before)

    def test_encoded_tally_pickle_round_trip_stays_writable(self, fast_stack):
        """Process-pool transport: pickle must preserve the bytearray type,
        so the parent's decoded views remain mergeable in place."""
        tally = tally_for(fast_stack, RECORD_SHAPES["everything"])
        encoded = EncodedTally(encode_tally(tally))
        clone: EncodedTally = pickle.loads(pickle.dumps(encoded))
        assert isinstance(clone.payload, bytearray)
        decoded = clone.decode()
        assert decoded == tally
        assert decoded.absorbed_by_layer.flags.writeable


class TestRejection:
    def test_bad_magic(self, fast_stack):
        buf = encode_tally(tally_for(fast_stack, RECORD_SHAPES["bare"]))
        buf[:4] = b"NOPE"
        with pytest.raises(CodecError, match="magic"):
            decode_tally(buf)

    def test_future_version(self, fast_stack):
        buf = encode_tally(tally_for(fast_stack, RECORD_SHAPES["bare"]))
        _PREAMBLE.pack_into(
            buf, 0, b"RTLY", CODEC_VERSION + 1, _PREAMBLE.unpack_from(buf, 0)[2]
        )
        with pytest.raises(CodecError, match="version"):
            decode_tally(buf)

    def test_too_short(self):
        with pytest.raises(CodecError, match="too short"):
            decode_tally(b"RT")

    def test_truncated_arrays(self, fast_stack):
        buf = encode_tally(tally_for(fast_stack, RECORD_SHAPES["everything"]))
        with pytest.raises(CodecError, match="truncated"):
            decode_tally(buf[: len(buf) // 2])

    def test_corrupt_manifest(self, fast_stack):
        buf = encode_tally(tally_for(fast_stack, RECORD_SHAPES["bare"]))
        start = _PREAMBLE.size
        buf[start : start + 2] = b"\xff\xfe"
        with pytest.raises(CodecError):
            decode_tally(buf)


def _remanifest(buf: bytearray, edit) -> bytearray:
    """``buf`` with its manifest replaced by ``edit(manifest)``; the array
    section is kept as is (its offsets are relative to the manifest end)."""
    base = _PREAMBLE.size + _PREAMBLE.unpack_from(buf, 0)[2]
    manifest = edit(json.loads(bytes(buf[_PREAMBLE.size : base])))
    raw = json.dumps(manifest).encode()
    out = bytearray(_PREAMBLE.size) + raw + buf[base:]
    _PREAMBLE.pack_into(out, 0, b"RTLY", CODEC_VERSION, len(raw))
    return out


def _edit_array(name, **fields):
    def edit(manifest):
        for entry in manifest["arrays"]:
            if entry["name"] == name:
                entry.update(fields)
        return manifest

    return edit


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return manifest

    return edit


def _drop_array_key(key):
    def edit(manifest):
        del manifest["arrays"][0][key]
        return manifest

    return edit


#: Manifests behind a valid preamble that must be refused, not decoded.
MALFORMED_MANIFESTS = {
    "empty_object": lambda m: {},
    "not_an_object": lambda m: [],
    "missing_records": _drop("records"),
    "missing_array_offset": _drop_array_key("offset"),
    "object_dtype": _edit_array("absorbed_by_layer", dtype="|O"),
    "negative_offset": _edit_array("absorbed_by_layer", offset=-16),
    "fractional_offset": _edit_array("absorbed_by_layer", offset=1.5),
    "negative_shape": _edit_array("absorbed_by_layer", shape=[-1]),
    "fractional_shape": _edit_array("absorbed_by_layer", shape=[1.5]),
    "array_past_the_end": _edit_array("absorbed_by_layer", offset=1 << 20),
}


class TestMalformedManifest:
    """Every malformed manifest raises CodecError — never another error,
    and never a tally built from bytes outside the array section."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_rejected(self, fast_stack, case):
        buf = encode_tally(tally_for(fast_stack, RECORD_SHAPES["everything"]))
        with pytest.raises(CodecError):
            decode_tally(_remanifest(buf, MALFORMED_MANIFESTS[case]))

    def test_unedited_manifest_still_decodes(self, fast_stack):
        tally = tally_for(fast_stack, RECORD_SHAPES["everything"])
        assert decode_tally(_remanifest(encode_tally(tally), lambda m: m)) == tally


class TestBaseline:
    def test_baseline_is_cached_per_shape(self, fast_stack):
        from repro.io.codec import pickled_baseline_bytes

        a = tally_for(fast_stack, RECORD_SHAPES["everything"], photons=20)
        b = tally_for(fast_stack, RECORD_SHAPES["everything"], photons=40)
        assert pickled_baseline_bytes(a) == pickled_baseline_bytes(b)
        assert pickled_baseline_bytes(a) > 0
