"""Hypothesis strategies and edits shared by the fuzz tests.

Inputs a decoder must survive: arbitrary bytes, valid encodings with
bytes mutated (:data:`mutations` applied by :func:`mutate`), and valid
JSON documents with one field replaced or deleted (:func:`draw_edit`).
"""

from __future__ import annotations

import json

from hypothesis import settings, strategies as st

#: No deadline: a slow example on a loaded machine is not a failure.
fuzz = settings(deadline=None)

_DELETE = object()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)

mutations = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=8
)


def mutate(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for position, value in edits:
        out[position % len(out)] = value
    return bytes(out)


def _field_paths(node, prefix=()):
    """Every key path into a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _field_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    """``doc`` (a fresh copy) with the field at ``path`` set or deleted."""
    if not path:
        return {} if value is _DELETE else value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def draw_edit(data, doc):
    path = data.draw(st.sampled_from(list(_field_paths(doc))), label="path")
    value = data.draw(json_values | st.just(_DELETE), label="value")
    return _replaced(doc, path, value)
