"""The request schema: every ``RunRequest`` field classified once.

The schema (:data:`repro.api.SCHEMA`) records each field's role, whether
the wire may set it, whether the journal can replay it, its type and range
and its CLI flag.  These tests hold the classification to what the code
does: physics and budget fields move the request fingerprint, execution
and observability fields do not, and ``request_to_json`` refuses exactly
the fields marked unjournalable.  The pins hold addresses and the journal
format to the values of the release that introduced the schema.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import ROLES, SCHEMA, RunRequest
from repro.core import RecordConfig, SimulationConfig
from repro.core.reduce import TallyFrontier
from repro.observe import Telemetry
from repro.service import physics_fingerprint, request_fingerprint, request_to_json
from repro.service.fingerprint import derivation_basis
from repro.sources import PencilBeam
from repro.tissue import adult_head, white_matter

BASE = RunRequest(model="white_matter", n_photons=2000, seed=1, task_size=1000)

#: A valid, non-default value for every field (applied to BASE).
CHANGES = {
    "config": dict(model=None, config=SimulationConfig(stack=adult_head(),
                                                       source=PencilBeam())),
    "model": dict(model="adult_head"),
    "n_photons": dict(n_photons=999),
    "seed": dict(seed=5),
    "kernel": dict(kernel="scalar"),
    "task_size": dict(task_size=500),
    "workers": dict(workers=2),
    "backend": dict(backend="thread"),
    "mode": dict(mode="serve"),
    "host": dict(host="0.0.0.0"),
    "port": dict(port=8123),
    "serve_timeout": dict(serve_timeout=5.0),
    "heartbeat_timeout": dict(heartbeat_timeout=None),
    "checkpoint": dict(checkpoint="ck"),
    "resume": dict(resume=True, checkpoint="ck"),
    "task_deadline": dict(task_deadline=2.0),
    "max_retries": dict(max_retries=0),
    "compress": dict(compress=True),
    "retain_task_tallies": dict(retain_task_tallies=False),
    "span_size": dict(span_size=4),
    "sub_batch": dict(sub_batch=64),
    "capture_paths": dict(capture_paths=True),
    "task_range": dict(task_range=(0, 1)),
    "frontier": dict(frontier=TallyFrontier([])),
    "capture_frontier": dict(capture_frontier=True),
    "detector_spacing": dict(detector_spacing=3.0),
    "gate": dict(gate=(1.0, 50.0)),
    "boundary_mode": dict(boundary_mode="classical"),
    "records": dict(records=RecordConfig()),
    "telemetry": dict(telemetry=Telemetry()),
    "metrics_path": dict(metrics_path="events.jsonl"),
    "progress": dict(progress=True),
    "on_server_start": dict(on_server_start=print),
}


def _by_role(*roles):
    return [name for name, meta in SCHEMA.items() if meta["role"] in roles]


class TestClassification:
    def test_every_field_is_classified(self):
        assert set(SCHEMA) == set(CHANGES)
        for name, meta in SCHEMA.items():
            assert meta["role"] in ROLES, name
            assert not (meta["wire"] and meta["unjournalable"]), name
            commands = meta.get("cli", {}).get("commands", ())
            assert set(commands) <= {"run", "serve"}, name

    def test_sub_batch_is_the_one_field_that_changes_bits_unaddressed(self):
        assert [n for n, m in SCHEMA.items() if m["changes_bits"]] == ["sub_batch"]
        assert SCHEMA["sub_batch"]["role"] == "execution"
        assert SCHEMA["sub_batch"]["unjournalable"]

    @pytest.mark.parametrize("name", _by_role("physics", "budget"))
    def test_physics_and_budget_fields_move_the_fingerprint(self, name):
        changed = replace(BASE, **CHANGES[name])
        assert request_fingerprint(changed) != request_fingerprint(BASE)

    @pytest.mark.parametrize("name", _by_role("execution", "observability"))
    def test_execution_and_observability_fields_do_not(self, name):
        changed = replace(BASE, **CHANGES[name])
        assert request_fingerprint(changed) == request_fingerprint(BASE)
        assert physics_fingerprint(changed) == physics_fingerprint(BASE)

    @pytest.mark.parametrize("name", [n for n, m in SCHEMA.items() if not m["wire"]])
    def test_request_to_json_refuses_exactly_the_unjournalable(self, name):
        changed = replace(BASE, **CHANGES[name])
        assert (request_to_json(changed) is None) == SCHEMA[name]["unjournalable"]

    def test_journal_form_carries_every_wire_field(self):
        wire = {n for n, m in SCHEMA.items() if m["wire"]}
        for name in wire:
            payload = request_to_json(replace(BASE, **CHANGES[name]))
            assert set(payload) == wire


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("n_photons", 1.5), ("n_photons", True), ("n_photons", -5),
        ("task_size", 0), ("workers", 0), ("seed", -1), ("kernel", "nope"),
        ("backend", "gpu"), ("boundary_mode", None), ("detector_spacing", "a"),
        ("detector_spacing", float("inf")), ("gate", (5.0,)), ("gate", (9.0, 1.0)),
        ("gate", [1.0, 2.0]), ("task_range", (0.5, 2)), ("task_deadline", 0.0),
        ("heartbeat_timeout", 0.0), ("resume", 1), ("mode", "remote"),
    ])
    def test_bad_values_refused_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(BASE, **{field: value})

    def test_unbuildable_model_physics_refused_at_construction(self):
        # Past 2**53 the detector's +-1 mm annulus rounds to an empty ring.
        with pytest.raises(ValueError, match="rho_max > rho_min"):
            replace(BASE, detector_spacing=9007199254740996.0)

    def test_numpy_scalars_and_open_gates_accepted(self):
        request = replace(BASE, n_photons=np.int64(100), gate=(0.0, float("inf")))
        request_fingerprint(request)


#: name -> (request, request_fingerprint, physics_fingerprint,
#: derivation_basis, request_to_json) at FINGERPRINT_VERSION 2.
_CONFIG = SimulationConfig(stack=white_matter(), source=PencilBeam())
_WIRE_DEFAULTS = {
    "backend": "auto", "boundary_mode": "probabilistic", "capture_paths": False,
    "detector_spacing": None, "gate": None, "kernel": "vector",
    "retain_task_tallies": True, "task_range": None, "task_size": None,
    "workers": 1,
}
PINS = {
    "model_default": (
        RunRequest(model="adult_head"),
        "d58eb6e7f203ed1fd93463522ab560fbeb591720e573c82b9fcedce49c79cfc3",
        "10ccda4c05a0b259ce699ab3f241bd70462fded4c4ed0a50a51a373a9a4d3fff",
        "c270930f40d97c6c1f7429a0853f2f30b9ec5c3f2e450739a0bbf10cd5b0bd4f",
        dict(_WIRE_DEFAULTS, model="adult_head", n_photons=20000, seed=0),
    ),
    "model_full": (
        RunRequest(model="white_matter", n_photons=3000, seed=7, kernel="scalar",
                   task_size=500, workers=2, backend="thread", detector_spacing=2.5,
                   boundary_mode="classical", retain_task_tallies=False,
                   capture_paths=True),
        "9d511c650fa4cf0a3a8dcf33875b2a00734d57eca0a859a534aaf1edee99f588",
        "b3679c43f8c934503c324a276958a6a60e2a713909810a090d3dd4248d49bd59",
        "5f5ecd998a4c40ae029aa2c4419f8ff8e1e782e5b446758e7eb8fafb5c45f795",
        dict(model="white_matter", n_photons=3000, seed=7, kernel="scalar",
             task_size=500, workers=2, backend="thread", detector_spacing=2.5,
             gate=None, boundary_mode="classical", retain_task_tallies=False,
             task_range=None, capture_paths=True),
    ),
    "gate": (
        RunRequest(model="neonatal_head", n_photons=1000, seed=3, gate=(5.0, 50.0)),
        "1f5c50d0694e0ada9d15a705ea9648683a64f051b840c1e7d3a406356a073ad7",
        "087a8b67faf85941a70ecab474ab53e80d281b2ea6c55781b6ce57f595120751",
        "3814a2ee557510360a8897b713dbeec36d46e7ef2e241113bc778cef764be4c5",
        dict(_WIRE_DEFAULTS, model="neonatal_head", n_photons=1000, seed=3,
             gate=[5.0, 50.0]),
    ),
    "task_range": (
        RunRequest(model="white_matter", n_photons=1000, seed=1, task_size=100,
                   task_range=(2, 7)),
        "3f726674e211067a5b13c31247544001dad8cdb0cc0ee44c6c236442a4011a3f",
        "e08a7c83e206d897e49b2aeece806d405f9da25e5d346227860c4726928ba7d3",
        "1cd92174a65eda38ed88d389206d5922bcb32d6c3bf9d21107129d9d1c5ad60d",
        dict(_WIRE_DEFAULTS, model="white_matter", n_photons=1000, seed=1,
             task_size=100, task_range=[2, 7]),
    ),
    "config": (
        RunRequest(config=_CONFIG, n_photons=2000, seed=5, task_size=250),
        "a8921e758ae67afd0cbeeba7bc3901a9b1375bf055a1228091319673ab4933f6",
        "78a361ef8a0a77aa7a8ea87cb2d0bca2f3c3ad4168aab248fae6e3da8822a529",
        "c5609579b39b54503bfedb91312fe8ea03168a55472b842f93cd7a1d4db79430",
        None,
    ),
    "config_records": (
        RunRequest(config=_CONFIG.with_(records=RecordConfig(penetration_bins=(30.0, 30))),
                   n_photons=400, seed=2),
        "50b6f877d69141957a1040d52fe89c9e974cb72fca1134e07590f80c6084d8ce",
        "4db5b7d673d9ba722e13d1cc731b67919f6387def374a317ea7c91273e7d014c",
        "51ada8a06cdfc98718f5e70ce66f8b95de08687f7a8b6803bf6210c073e67943",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_addresses_and_journal_form_are_pinned(name):
    request, fingerprint, physics, basis, wire = PINS[name]
    assert request_fingerprint(request) == fingerprint
    assert physics_fingerprint(request) == physics
    assert derivation_basis(request) == basis
    assert request_to_json(request) == wire
