"""Fuzzing the store's index snapshot reader and the job journal's replay.

Whatever ``index.json`` holds — arbitrary bytes, a valid snapshot with
bytes mutated or cut short, or a valid snapshot with one JSON field
replaced or deleted — the store opens, indexes exactly the artifacts on
disk, and serves each of them.  Whatever ``journal.jsonl`` holds,
:meth:`JobJournal.replay` returns a list of well-typed open jobs and
raises nothing.

The tier-1 run uses Hypothesis' default budget; CI's decoder-fuzz step
runs this file again with ``--hypothesis-profile=fuzz`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.api import RunRequest, build_config
from repro.core import Simulation
from repro.core.reduce import TallyFrontier
from repro.service import JobJournal, ResultStore, physics_fingerprint
from repro.service.fingerprint import (
    derivation_basis,
    perturbable_coefficients,
    request_fingerprint,
)
from tests.fuzzing import draw_edit, fuzz, mutate, mutations

from .conftest import fast_service_config

# ------------------------------------------------------------------- store


@pytest.fixture(scope="module")
def stocked(tmp_path_factory):
    """A closed store holding a plain and a captured, extendable artifact."""
    request = RunRequest(config=fast_service_config(), n_photons=200, seed=3,
                         task_size=100)
    tally = Simulation(build_config(request)).run(100, seed=3, capture_paths=True)
    store = ResultStore(tmp_path_factory.mktemp("fuzz") / "store")
    store.put("a" * 64, tally)
    store.put(
        request_fingerprint(request), tally, provenance={"n_photons": 200},
        physics=physics_fingerprint(request), n_photons=200,
        frontier=TallyFrontier([(0, 2, tally)]),
        basis=derivation_basis(request),
        coefficients=perturbable_coefficients(request),
    )
    store.close()
    snapshot = (store.root / "index.json").read_bytes()
    return store.root, snapshot, set(store.fingerprints()), request


def _write_fresh(path, raw: bytes) -> None:
    # Unlink first: truncating a file in place can cost tens of ms on ext4.
    path.unlink(missing_ok=True)
    path.write_bytes(raw)


def _opens_with_every_artifact(stocked, index: bytes) -> None:
    root, _, artifacts, request = stocked
    _write_fresh(root / "index.json", index)
    store = ResultStore(root)
    assert set(store.fingerprints()) == artifacts
    store.best_prefix(physics_fingerprint(request), 10**6)
    store.best_derivation(derivation_basis(request), 200)
    for fingerprint in artifacts:
        assert store.get(fingerprint) is not None


@fuzz
@given(raw=st.binary(max_size=512))
def test_index_arbitrary_bytes(stocked, raw):
    _opens_with_every_artifact(stocked, raw)


@fuzz
@given(edits=mutations, cut=st.integers(min_value=0))
def test_index_mutated_bytes(stocked, edits, cut):
    snapshot = stocked[1]
    _opens_with_every_artifact(stocked, mutate(snapshot, edits))
    _opens_with_every_artifact(stocked, snapshot[: cut % (len(snapshot) + 1)])


@fuzz
@given(data=st.data())
def test_index_fields(stocked, data):
    doc = draw_edit(data, json.loads(stocked[1]))
    _opens_with_every_artifact(stocked, json.dumps(doc).encode())


# ----------------------------------------------------------------- journal


@pytest.fixture(scope="module")
def journal_bytes(tmp_path_factory) -> bytes:
    journal = JobJournal(tmp_path_factory.mktemp("journal"), fsync=False)
    journal.record("submitted", "j1", fingerprint="ab" * 32,
                   request={"model": "white_matter"}, priority=0, client="c")
    journal.record("started", "j1", cache="prefix", base_fingerprint="cd" * 32)
    journal.record("submitted", "j2", fingerprint="ef" * 32, priority=2)
    journal.record("done", "j2")
    journal.close()
    return journal.path.read_bytes()


def _replays_to_open_jobs(root, raw: bytes) -> None:
    root.mkdir(exist_ok=True)
    _write_fresh(root / "journal.jsonl", raw)
    journal = JobJournal(root, fsync=False)
    try:
        jobs = journal.replay()
    finally:
        journal.close()
    assert isinstance(jobs, list)
    for job in jobs:
        assert isinstance(job.job_id, str) and isinstance(job.fingerprint, str)
        assert isinstance(job.priority, int) and isinstance(job.submitted_ts, float)
        assert job.request is None or isinstance(job.request, dict)


@fuzz
@given(raw=st.binary(max_size=512))
def test_journal_arbitrary_bytes(tmp_path_factory, raw):
    _replays_to_open_jobs(tmp_path_factory.getbasetemp() / "journal-any", raw)


@fuzz
@given(edits=mutations, cut=st.integers(min_value=0))
def test_journal_mutated_bytes(tmp_path_factory, journal_bytes, edits, cut):
    root = tmp_path_factory.getbasetemp() / "journal-mutated"
    _replays_to_open_jobs(root, mutate(journal_bytes, edits))
    _replays_to_open_jobs(root, journal_bytes[: cut % (len(journal_bytes) + 1)])


@fuzz
@given(data=st.data())
def test_journal_record_fields(tmp_path_factory, journal_bytes, data):
    lines = journal_bytes.decode().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[index] = json.dumps(draw_edit(data, json.loads(lines[index])))
    root = tmp_path_factory.getbasetemp() / "journal-fields"
    _replays_to_open_jobs(root, "\n".join(lines).encode())
