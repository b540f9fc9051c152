"""Fuzzing the HTTP request decoder, :func:`request_from_json`.

Whatever JSON a client posts — an arbitrary document, a valid body with
one field replaced or deleted, or any mix of wire fields and values — the
decoder either raises ``ValueError`` (a ``400 bad_request``) or returns a
request whose fingerprint computes and that survives the journal's round
trip (``request_to_json`` → JSON text → ``request_from_json``) with the
same fingerprint.

The tier-1 run uses Hypothesis' default budget; CI's decoder-fuzz step
runs this file again with ``--hypothesis-profile=fuzz`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import json

from hypothesis import given, strategies as st

from repro.api import SCHEMA
from repro.service import request_fingerprint, request_from_json, request_to_json
from tests.fuzzing import draw_edit, fuzz, json_values

#: A body setting every wire field to a valid, non-default value.
VALID_BODY = {
    "model": "white_matter", "n_photons": 1000, "seed": 3, "kernel": "scalar",
    "task_size": 100, "workers": 2, "backend": "thread", "detector_spacing": 2.5,
    "gate": [1.0, 80.0], "boundary_mode": "classical",
    "retain_task_tallies": False, "task_range": [1, 4], "capture_paths": True,
}
WIRE = sorted(name for name, meta in SCHEMA.items() if meta["wire"])


def _decodes_or_refuses(payload) -> None:
    try:
        request = request_from_json(payload)
    except ValueError:
        return
    fingerprint = request_fingerprint(request)
    journaled = json.loads(json.dumps(request_to_json(request)))
    assert request_fingerprint(request_from_json(journaled)) == fingerprint


def test_valid_body_covers_the_wire():
    assert sorted(VALID_BODY) == WIRE
    _decodes_or_refuses(VALID_BODY)
    assert request_to_json(request_from_json(VALID_BODY)) == VALID_BODY


@fuzz
@given(json_values)
def test_arbitrary_json(payload):
    _decodes_or_refuses(payload)


@fuzz
@given(st.data())
def test_field_edited_body(data):
    _decodes_or_refuses(draw_edit(data, VALID_BODY))


@fuzz
@given(
    st.sampled_from(["white_matter", "adult_head", "neonatal_head"]),
    st.dictionaries(st.sampled_from(WIRE), json_values, max_size=4),
)
def test_wire_fields_with_arbitrary_values(model, fields):
    _decodes_or_refuses({"model": model, **fields})
