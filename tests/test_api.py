"""Tests of the unified run facade (``repro.api``).

The facade's contract: every execution substrate — serial, thread pool,
process pool, checkpointed resume — routes through one entry point and
produces bit-identical physics for the same request, with telemetry
attaching in exactly one place.
"""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

from repro.api import DEFAULT_TASK_SIZE, RunRequest, build_config, run
from repro.core import Simulation
from repro.distributed import run_network_client
from repro.io import encode_tally
from repro.observe import MemorySink, Telemetry, validate_event


def _weights(tally):
    return (
        tally.n_launched,
        tally.specular_weight,
        tally.diffuse_reflectance_weight,
        tally.transmittance_weight,
        tally.lost_weight,
        tally.detected_weight,
    )


class TestRunRequest:
    def test_config_xor_model(self, fast_config):
        with pytest.raises(ValueError, match="exactly one"):
            RunRequest()
        with pytest.raises(ValueError, match="exactly one"):
            RunRequest(config=fast_config, model="white_matter")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            RunRequest(model="gray_matter")

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="resume"):
            RunRequest(model="white_matter", resume=True)

    def test_task_size_default_is_worker_independent(self):
        one = RunRequest(model="white_matter", workers=1)
        many = RunRequest(model="white_matter", workers=8)
        assert one.resolved_task_size() == many.resolved_task_size() == DEFAULT_TASK_SIZE

    def test_backend_auto_resolution(self):
        assert RunRequest(model="white_matter").resolved_backend() == "serial"
        assert RunRequest(model="white_matter", workers=4).resolved_backend() == "process"
        assert (
            RunRequest(model="white_matter", workers=4, backend="thread")
            .resolved_backend()
            == "thread"
        )

    def test_build_config_passthrough(self, fast_config):
        assert build_config(RunRequest(config=fast_config)) is fast_config

    def test_build_config_named_model(self):
        config = build_config(RunRequest(model="white_matter", gate=(5.0, 50.0)))
        assert config.gate is not None
        assert config.stack[0].name == "white_matter"

    def test_invalid_span_size_and_sub_batch_rejected(self):
        with pytest.raises(ValueError, match="span_size"):
            RunRequest(model="white_matter", span_size=0)
        with pytest.raises(ValueError, match="sub_batch"):
            RunRequest(model="white_matter", sub_batch=0)
        with pytest.raises(ValueError, match="sub_batch"):
            RunRequest(model="white_matter", sub_batch=-4)

    def test_provenance_records_sub_batch(self):
        assert RunRequest(model="white_matter").provenance()["sub_batch"] is None
        assert (
            RunRequest(model="white_matter", sub_batch=128).provenance()["sub_batch"]
            == 128
        )

    def test_provenance_describes_the_run(self):
        prov = RunRequest(model="adult_head", n_photons=123, seed=9).provenance()
        assert prov["model"] == "adult_head"
        assert prov["n_photons"] == 123
        assert prov["seed"] == 9
        assert prov["task_size"] == DEFAULT_TASK_SIZE
        json.dumps(prov)  # must be JSON-serialisable for save_tally


class TestRunIdentity:
    """Same request, any substrate -> bit-identical tally."""

    def test_serial_vs_thread_pool(self, fast_config):
        base = RunRequest(config=fast_config, n_photons=4000, seed=11, task_size=500)
        serial = run(base)
        threaded = run(
            RunRequest(
                config=fast_config, n_photons=4000, seed=11, task_size=500,
                workers=4, backend="thread",
            )
        )
        assert _weights(serial.tally) == _weights(threaded.tally)

    def test_serial_vs_process_pool(self, fast_config):
        base = RunRequest(config=fast_config, n_photons=2000, seed=5, task_size=500)
        serial = run(base)
        pooled = run(
            RunRequest(
                config=fast_config, n_photons=2000, seed=5, task_size=500,
                workers=2, backend="process",
            )
        )
        assert _weights(serial.tally) == _weights(pooled.tally)

    def test_telemetry_does_not_change_physics(self, fast_config):
        kwargs = dict(config=fast_config, n_photons=2000, seed=3, task_size=500)
        plain = run(RunRequest(**kwargs))
        observed = run(
            RunRequest(**kwargs, telemetry=Telemetry(sink=MemorySink()))
        )
        assert _weights(plain.tally) == _weights(observed.tally)

    def test_disabled_metrics_attaches_nothing(self, fast_config):
        report = run(RunRequest(config=fast_config, n_photons=1000, seed=0))
        assert report.metrics is None


class TestRunTelemetry:
    def test_jsonl_events_schema_valid_and_monotone(self, fast_config, tmp_path):
        path = tmp_path / "events.jsonl"
        report = run(
            RunRequest(
                config=fast_config, n_photons=2000, seed=1, task_size=500,
                workers=2, backend="thread", metrics_path=path,
            )
        )
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            validate_event(event)
        times = [e["t"] for e in events]
        assert times == sorted(times)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "metrics"
        assert "span_start" in kinds and "span_end" in kinds
        assert report.metrics is not None
        counter_names = {c["name"] for c in report.metrics["counters"]}
        assert {"tasks.dispatched", "tasks.completed", "photons.traced"} <= counter_names

    def test_serial_and_pooled_share_event_schema(self, fast_config, tmp_path):
        def kinds_of(workers, backend):
            path = tmp_path / f"{backend}{workers}.jsonl"
            run(
                RunRequest(
                    config=fast_config, n_photons=1000, seed=1, task_size=500,
                    workers=workers, backend=backend, metrics_path=path,
                )
            )
            return {
                json.loads(line)["event"] for line in path.read_text().splitlines()
            }

        assert kinds_of(1, "serial") == kinds_of(4, "thread")

    def test_caller_owned_telemetry_not_finished(self, fast_config):
        tel = Telemetry(sink=MemorySink())
        run(RunRequest(config=fast_config, n_photons=1000, seed=0, telemetry=tel))
        # facade must not close a telemetry it does not own: no final
        # "metrics" event until the caller finishes it.
        assert all(e["event"] != "metrics" for e in tel.sink.events)
        snap = tel.finish()
        assert tel.sink.events[-1]["event"] == "metrics"
        assert snap["counters"]


class TestRunCheckpoint:
    def test_resume_through_facade(self, fast_config, tmp_path):
        ck = tmp_path / "ck"
        first = run(
            RunRequest(
                config=fast_config, n_photons=1500, seed=2, task_size=500,
                checkpoint=ck,
            )
        )
        # a second run over the same directory must be refused without resume
        with pytest.raises(ValueError, match="resume"):
            run(
                RunRequest(
                    config=fast_config, n_photons=1500, seed=2, task_size=500,
                    checkpoint=ck,
                )
            )
        resumed = run(
            RunRequest(
                config=fast_config, n_photons=1500, seed=2, task_size=500,
                checkpoint=ck, resume=True,
            )
        )
        assert resumed.n_tasks == first.n_tasks
        assert _weights(first.tally) == _weights(resumed.tally)


def run_in(mode, config, **fields):
    """``run`` a request in ``mode``; a served run gets two TCP clients."""
    clients = []

    def launch(server):
        for i in range(2):
            client = threading.Thread(
                target=run_network_client, args=("127.0.0.1", server.port),
                kwargs={"worker_name": f"client-{i}"}, daemon=True,
            )
            client.start()
            clients.append(client)

    report = run(RunRequest(config=config, mode=mode, on_server_start=launch,
                            serve_timeout=120, seed=13, task_size=100, **fields))
    for client in clients:
        client.join(timeout=30)
    return report


@pytest.mark.parametrize("mode", ["local", "serve"])
class TestModeParity:
    """One lifecycle core: the transport is all that differs between modes."""

    def test_same_tally_events_and_counters(self, fast_config, mode):
        tel = Telemetry(sink=MemorySink())
        report = run_in(mode, fast_config, n_photons=450, telemetry=tel)
        serial = Simulation(fast_config).run(450, seed=13, task_size=100)
        assert (hashlib.sha256(encode_tally(report.tally)).hexdigest()
                == hashlib.sha256(encode_tally(serial)).hexdigest())

        def fields_of(kind):
            (event,) = [e for e in tel.sink.events if e["event"] == kind]
            stamps = ("event", "t", "ts", "wall_seconds")
            return {k: v for k, v in event.items() if k not in stamps}

        assert fields_of("run_start") == dict(
            n_tasks=5, n_units=5, n_photons=450, restored=0, kernel="vector"
        )
        assert fields_of("run_end") == dict(n_tasks=5, retries=0, speculative=0)
        counters = {
            c["name"]: c["value"] for c in report.metrics["counters"] if not c["labels"]
        }
        assert counters["tasks.dispatched"] == 5
        assert counters["tasks.completed"] == 5
        assert counters["photons.traced"] == 450

    def test_range_and_frontier_extension_match_a_cold_run(self, fast_config, mode):
        cold = run_in("local", fast_config, n_photons=800)
        # Budget extension: 400 photons first, then only the missing tasks.
        base = run_in(mode, fast_config, n_photons=400, capture_frontier=True)
        grown = run_in(mode, fast_config, n_photons=800, frontier=base.frontier)
        assert grown.n_tasks == 4
        assert grown.tally == cold.tally
        # Partial ranges: tasks [0, 3), then the rest on top of their frontier.
        head = run_in(mode, fast_config, n_photons=800, task_range=(0, 3),
                      capture_frontier=True)
        assert head.tally.n_launched == 300
        rest = run_in(mode, fast_config, n_photons=800, task_range=(3, 8),
                      frontier=head.frontier)
        assert rest.tally == cold.tally
