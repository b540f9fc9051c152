"""Per-layer micro-runs: each times public calls into one ``repro`` module.

A traced run (``--trace 1``) calls :func:`run_all` after the workload.  The
probes build their own small artefacts with pinned seeds, so a per-layer
number means the same thing whichever workload it was measured beside, and
its work is identical from run to run.  :data:`MOVES` records, for every
per-layer metric, the end-to-end metric and workload it is expected to
move; a metric that gates nothing says so.
"""

from __future__ import annotations

import copy
import http.client
import json
import socket
import statistics
import threading
import time
import uuid
from pathlib import Path

from repro import api
from repro.api import RunRequest, build_config
from repro.cluster import simulate_run, table2_cluster
from repro.core import PairwiseReducer, SpanFolder, run_photons, task_rng
from repro.distributed import (
    CheckpointManager,
    TaskResult,
    freeze_result,
    recv_message,
    run_key,
    send_message,
)
from repro.io import decode_tally, encode_tally, load_tally, save_tally
from repro.observe import Telemetry
from repro.perturb import PerturbationDelta, derive_tally
from repro.service import (
    AdmissionController,
    JobJournal,
    JobManager,
    ResultStore,
    ServiceServer,
    physics_fingerprint,
    request_fingerprint,
)
from repro.sources import PencilBeam
from repro.tissue import adult_head
from repro.voxel import VoxelConfig, from_layers, run_voxel

from tracing import covered, self_times
from workloads import (
    CLIENTS,
    JOB_TIMEOUT,
    Ledger,
    TcpFleet,
    dispatch_overhead_ms,
    fanin_request,
    fast_medium_config,
    in_two_threads,
    tally_hash,
)

__all__ = ["MOVES", "SPAN_NAMES", "run_all", "trace_metrics"]

#: Span names the workloads record; each becomes ``trace.self_s.<name>``.
SPAN_NAMES = (
    "api.run",
    "service.jobs.runner",
    "service.jobs.submit",
    "service.jobs.result",
    "service.http.post",
    "service.http.poll",
    "service.http.get",
)

NOT_GATED = ("none", "none")

#: per-layer metric -> (unit, better, (end-to-end metric, workload) it should move)
MOVES: dict[str, tuple[str, str, tuple[str, str]]] = {
    "core.vkernel.photons_per_s.head_b200": ("photons/s", "higher", ("photons_per_s", "serve_repeat")),
    "core.vkernel.photons_per_s.fast_b500": ("photons/s", "higher", ("photons_per_s", "fanin_grid")),
    "core.vkernel.capture_overhead_ratio": ("ratio", "lower", ("photons_per_s", "sweep_derive")),
    "core.kernel.photons_per_s.head": ("photons/s", "higher", NOT_GATED),
    "voxel.kernel.photons_per_s.head": ("photons/s", "higher", NOT_GATED),
    "core.reduce.merge_ms_per_task": ("ms", "lower", ("photons_per_s", "fanin_grid")),
    "core.reduce.fold_ms_per_span": ("ms", "lower", ("photons_per_s", "fanin_grid")),
    "io.codec.encode_ms": ("ms", "lower", ("op_ms_p50", "fanin_grid")),
    "io.codec.decode_ms": ("ms", "lower", ("op_ms_p50", "fanin_grid")),
    "io.codec.bytes_per_task": ("bytes", "lower", ("op_ms_p50", "fanin_grid")),
    "distributed.pool.utilization": ("ratio", "higher", ("photons_per_s", "fanin_grid")),
    "distributed.pool.overhead_ms_per_task": ("ms", "lower", ("photons_per_s", "fanin_grid")),
    "distributed.tcp.overhead_ms_per_task": ("ms", "lower", ("op_ms_p50", "fanin_grid")),
    "distributed.tcp.bytes_per_task": ("bytes", "lower", ("op_ms_p50", "fanin_grid")),
    "distributed.parallel_efficiency": ("ratio", "higher", ("photons_per_s", "fanin_grid")),
    "distributed.protocol.roundtrip_ms": ("ms", "lower", ("op_ms_p50", "fanin_grid")),
    "distributed.checkpoint.write_ms_per_task": ("ms", "lower", ("photons_per_s", "serve_repeat")),
    "service.fingerprint.ms": ("ms", "lower", ("op_ms_p50", "sweep_derive")),
    "service.jobs.hit_ms": ("ms", "lower", ("run_s", "sweep_derive")),
    "service.jobs.miss_overhead_ms": ("ms", "lower", ("photons_per_s", "serve_repeat")),
    "service.jobs.concurrent_miss_slowdown": ("ratio", "lower", ("photons_per_s", "serve_repeat")),
    "service.journal.record_ms": ("ms", "lower", ("photons_per_s", "serve_repeat")),
    "service.store.get_ms": ("ms", "lower", ("op_ms_p50", "serve_repeat")),
    "service.store.put_ms": ("ms", "lower", ("op_ms_p50", "sweep_derive")),
    "service.store.best_prefix_ms": ("ms", "lower", ("run_s", "serve_repeat")),
    "service.store.best_derivation_ms": ("ms", "lower", ("op_ms_p50", "sweep_derive")),
    "service.admission.admit_us": ("us", "lower", ("op_ms_p50", "serve_repeat")),
    "service.http.keepalive_hit_ms": ("ms", "lower", ("op_ms_p50", "serve_repeat")),
    "service.http.fresh_conn_hit_ms": ("ms", "lower", NOT_GATED),
    "service.http.overhead_ms": ("ms", "lower", ("op_ms_p50", "serve_repeat")),
    "service.http.hit_busy_ms_p50": ("ms", "lower", NOT_GATED),
    "io.results.save_ms": ("ms", "lower", ("op_ms_p50", "sweep_derive")),
    "io.results.load_ms": ("ms", "lower", ("op_ms_p50", "serve_repeat")),
    "io.results.archive_bytes": ("bytes", "lower", ("op_ms_p50", "serve_repeat")),
    "perturb.derive_ms": ("ms", "lower", ("op_ms_p50", "sweep_derive")),
    "perturb.records_per_s": ("1/s", "higher", ("op_ms_p50", "sweep_derive")),
    "detect.records.bytes_per_photon": ("bytes", "lower", ("op_ms_p50", "sweep_derive")),
    "observe.overhead_ratio": ("ratio", "lower", ("photons_per_s", "cold_head")),
    "cluster.simulate_run_s.table2": ("s", "lower", NOT_GATED),
    # The tail of the workload's own operations: too unsteady on a shared host
    # to carry a bound (quartile spread 15-25 % at seed), so it is reported here.
    "workload.op_ms_p95": ("ms", "lower", NOT_GATED),
    "trace.coverage": ("ratio", "higher", NOT_GATED),
    "trace.overhead_ratio": ("ratio", "lower", NOT_GATED),
    "trace.spans": ("count", "lower", NOT_GATED),
    **{f"trace.self_s.{name}": ("s", "lower", ("run_s", "all")) for name in SPAN_NAMES},
}

SEED = 11
#: The adult-head task serve_repeat's first client simulates (seed, index).
HEAD_TASK = (7, 0)


def timed(fn, repeats: int = 1) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def ms(fn, repeats: int = 1) -> float:
    return timed(fn, repeats) * 1e3


def trace_metrics(tracer, run_s: float) -> dict[str, float]:
    """Coverage, recording overhead and per-layer self time of a traced run."""
    own = self_times(tracer.spans)
    out = {
        "trace.coverage": covered(tracer.spans) / run_s,
        "trace.overhead_ratio": 1.0 + len(tracer.spans) * tracer.span_cost_seconds() / run_s,
        "trace.spans": float(len(tracer.spans)),
    }
    out.update({f"trace.self_s.{name}": own.get(name, 0.0) for name in SPAN_NAMES})
    return out


# -------------------------------------------------------------------- kernels
def kernel_probes(out: dict, art: dict) -> None:
    head = build_config(RunRequest(model="adult_head"))
    seed, index = HEAD_TASK
    plain = timed(lambda: run_photons(head, 200, task_rng(seed, index)))

    def captured():
        art["parent"] = run_photons(head, 200, task_rng(seed, index), capture_paths=True)

    out["core.vkernel.capture_overhead_ratio"] = timed(captured) / plain
    out["core.vkernel.photons_per_s.head_b200"] = 200 / plain
    art["parent"].paths.seal(index)

    grid = fast_medium_config()
    tasks = iter(range(10_000))
    art["grid_tallies"] = []
    out["core.vkernel.photons_per_s.fast_b500"] = 500 / timed(
        lambda: art["grid_tallies"].append(run_photons(grid, 500, task_rng(SEED, next(tasks)))),
        repeats=16,
    )
    out["core.kernel.photons_per_s.head"] = 5 / timed(
        lambda: run_photons(head, 5, task_rng(seed, index), "scalar")
    )
    voxels = VoxelConfig(from_layers(adult_head(), (40, 40, 40), half_extent=40.0, depth=60.0),
                         PencilBeam())
    out["voxel.kernel.photons_per_s.head"] = 10 / timed(lambda: run_voxel(voxels, 10, seed=3))

    def small_run(telemetry) -> None:
        api.run(RunRequest(config=fast_medium_config(grid=False), n_photons=2_000,
                           task_size=2_000, telemetry=telemetry))

    out["observe.overhead_ratio"] = statistics.median(
        timed(lambda: small_run(Telemetry.in_memory())) / timed(lambda: small_run(None))
        for _ in range(5)
    )
    out["cluster.simulate_run_s.table2"] = timed(
        lambda: simulate_run(table2_cluster(), 10**9, 10**4, seed=SEED)
    )


# ------------------------------------------------------ reduction, codec, wire
def fanin_probes(out: dict, art: dict, workdir: Path) -> None:
    tallies = art["grid_tallies"]

    def after_copying(step, count: int) -> float:
        """Median milliseconds of ``step(copies)``; the copying is not timed."""
        samples = []
        for _ in range(3):
            copies = [copy.deepcopy(t) for t in tallies[:count]]
            samples.append(ms(lambda: step(copies)))
        return statistics.median(samples)

    def merge(copies) -> None:
        reducer = PairwiseReducer(len(copies))
        for i, tally in enumerate(copies):
            reducer.add(i, tally, owned=True)
        reducer.result()

    def fold(copies) -> None:
        folder = SpanFolder(len(tallies), 0, len(copies))
        for i, tally in enumerate(copies):
            folder.add(i, tally, owned=True)
        folder.partial()

    out["core.reduce.merge_ms_per_task"] = after_copying(merge, len(tallies)) / len(tallies)
    out["core.reduce.fold_ms_per_span"] = after_copying(fold, 8)
    buffer = encode_tally(tallies[0])
    out["io.codec.encode_ms"] = ms(lambda: encode_tally(tallies[0]), repeats=20)
    out["io.codec.decode_ms"] = ms(lambda: decode_tally(bytearray(buffer)), repeats=20)
    out["io.codec.bytes_per_task"] = float(len(buffer))

    # One frozen grid result there, a one-word acknowledgement back.
    near, far = socket.socketpair()

    def echo():
        try:
            while recv_message(far) is not None:
                send_message(far, "ack")
        except ConnectionError:
            pass

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    result = freeze_result(TaskResult(0, copy.deepcopy(tallies[0]), "probe", 0.01))

    def roundtrip():
        send_message(near, {"type": "result", "result": result})
        recv_message(near)

    try:
        out["distributed.protocol.roundtrip_ms"] = ms(roundtrip, repeats=10)
        send_message(near, None)
    finally:
        thread.join(timeout=10.0)
        near.close()
        far.close()

    checkpoint = CheckpointManager(workdir / "checkpoint")
    checkpoint.load(run_key(n_photons=2_000, seed=SEED, task_size=200, kernel="vector"))
    indices = iter(range(10))
    out["distributed.checkpoint.write_ms_per_task"] = ms(
        lambda: checkpoint.record(TaskResult(next(indices), art["parent"], "probe", 0.01)),
        repeats=10,
    )


def fleet_probes(out: dict, ledger: Ledger) -> None:
    """A 32-task fan-in run three ways: serial, process pool, TCP fleet."""
    n_tasks = 32
    serial = api.run(fanin_request(n_tasks, SEED, workers=1))
    pool = api.run(fanin_request(n_tasks, SEED, workers=CLIENTS, backend="process"))
    telemetry = Telemetry()
    fleet = TcpFleet()
    try:
        fleet.wait_ready()
        tcp = api.run(fanin_request(n_tasks, SEED, mode="serve", telemetry=telemetry,
                                    on_server_start=fleet.release, serve_timeout=JOB_TIMEOUT))
    finally:
        fleet.close()
    ledger.check(tally_hash(serial.tally) == tally_hash(pool.tally) == tally_hash(tcp.tally),
                 "probe: serial, pool and TCP tallies of the 32-task run differ")
    out["distributed.pool.utilization"] = pool.busy_seconds / (CLIENTS * pool.wall_seconds)
    out["distributed.pool.overhead_ms_per_task"] = dispatch_overhead_ms(pool, CLIENTS, n_tasks)
    out["distributed.tcp.overhead_ms_per_task"] = dispatch_overhead_ms(tcp, CLIENTS, n_tasks)
    out["distributed.parallel_efficiency"] = serial.wall_seconds / (CLIENTS * pool.wall_seconds)
    counters = {c["name"]: c["value"] for c in telemetry.snapshot()["counters"] if not c["labels"]}
    out["distributed.tcp.bytes_per_task"] = (
        counters.get("net.bytes_sent", 0.0) + counters.get("net.bytes_recv", 0.0)
    ) / n_tasks


# -------------------------------------------------------------------- service
def service_probes(out: dict, art: dict, workdir: Path) -> None:
    canned = art["parent"]
    quick = fast_medium_config(grid=False)

    def runner(request):
        # Model requests get the canned tally, so what is timed around them
        # is everything a miss does except the kernel; config requests run.
        return copy.deepcopy(canned) if request.model is not None else api.run(request)

    def model_request(seed: int) -> RunRequest:
        return RunRequest(model="adult_head", n_photons=200, task_size=200, seed=seed)

    seeds = iter(range(1_000, 2_000))
    model, config = model_request(0), RunRequest(config=quick, n_photons=200, task_size=200)
    out["service.fingerprint.ms"] = (
        ms(lambda: request_fingerprint(model), 20) + ms(lambda: request_fingerprint(config), 20)
    ) / 2
    admission = AdmissionController()
    out["service.admission.admit_us"] = timed(
        lambda: [admission.admit("probe", model) for _ in range(1_000)]
    ) * 1e3

    journal = JobJournal(workdir / "probe-journal")
    try:
        out["service.journal.record_ms"] = ms(lambda: journal.record(
            "submitted", uuid.uuid4().hex, fingerprint="f" * 64,
            request={"model": "adult_head", "n_photons": 200}, priority=1,
        ), repeats=30)
    finally:
        journal.close()

    store = ResultStore(workdir / "store")
    manager = JobManager(store, max_workers=CLIENTS, journal=workdir / "journal", runner=runner)
    server = ServiceServer(manager, port=0, admission=admission).start()
    try:
        out["service.jobs.miss_overhead_ms"] = ms(
            lambda: manager.submit(model_request(next(seeds))).result(JOB_TIMEOUT), repeats=24
        )
        out["service.jobs.hit_ms"] = ms(
            lambda: manager.submit(model_request(1_000)).result(JOB_TIMEOUT), repeats=30
        )
        stored = request_fingerprint(model_request(1_000))
        fresh = model_request(next(seeds))
        out["service.store.get_ms"] = ms(lambda: store.get(stored), repeats=30)
        out["service.store.put_ms"] = ms(lambda: store.put(
            request_fingerprint(fresh), canned, fresh.provenance(),
            physics=physics_fingerprint(fresh), n_photons=200,
        ), repeats=10)
        out["service.store.best_prefix_ms"] = ms(
            lambda: store.best_prefix(physics_fingerprint(fresh), 400), repeats=30
        )
        out["service.store.best_derivation_ms"] = ms(
            lambda: store.best_derivation("0" * 64, 200), repeats=30
        )

        body = json.dumps({"model": "adult_head", "n_photons": 200, "task_size": 200,
                           "seed": 1_000}).encode()

        def post(conn) -> None:
            conn.request("POST", "/v2/runs", body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status != 200 or json.loads(response.read())["cache"] != "exact":
                raise RuntimeError(f"probe hit answered {response.status}")

        def fresh_post() -> None:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=JOB_TIMEOUT)
            try:
                post(conn)
            finally:
                conn.close()

        kept = http.client.HTTPConnection(server.host, server.port, timeout=JOB_TIMEOUT)
        try:
            post(kept)
            out["service.http.keepalive_hit_ms"] = ms(lambda: post(kept), repeats=10)
            out["service.http.fresh_conn_hit_ms"] = ms(fresh_post, repeats=10)
            out["service.http.overhead_ms"] = (
                out["service.http.keepalive_hit_ms"] - out["service.jobs.hit_ms"]
            )
            # Hits on the kept connection while a real miss holds the GIL.
            busy = manager.submit(RunRequest(config=quick, n_photons=60_000, task_size=10_000,
                                             seed=SEED))
            latencies = []
            while not busy.wait(0.0) or not latencies:
                latencies.append(ms(lambda: post(kept)))
            busy.result(JOB_TIMEOUT)
            out["service.http.hit_busy_ms_p50"] = statistics.median(latencies)
        finally:
            kept.close()

        def miss(i: int) -> None:
            manager.submit(RunRequest(config=quick, n_photons=20_000, task_size=10_000,
                                      seed=SEED + 1 + i)).result(JOB_TIMEOUT)

        alone = timed(lambda: miss(CLIENTS))
        out["service.jobs.concurrent_miss_slowdown"] = in_two_threads(miss) / alone
    finally:
        server.close()


# ------------------------------------------------------------ archives, perturb
def archive_probes(out: dict, art: dict, workdir: Path) -> None:
    parent = art["parent"]
    path = workdir / "archive.npz"
    out["io.results.save_ms"] = ms(lambda: save_tally(path, parent, {"probe": True}), repeats=10)
    out["io.results.load_ms"] = ms(lambda: load_tally(path), repeats=10)
    out["io.results.archive_bytes"] = float(path.stat().st_size)
    layers = parent.paths.n_layers
    delta = PerturbationDelta((0.002,) * layers, (1.0,) * layers)
    seconds = timed(lambda: derive_tally(parent, delta), repeats=10)
    out["perturb.derive_ms"] = seconds * 1e3
    out["perturb.records_per_s"] = parent.paths.n_rows / seconds
    out["detect.records.bytes_per_photon"] = parent.paths.nbytes / parent.paths.n_rows


def run_all(workdir: Path, ledger: Ledger) -> dict[str, float]:
    """Every probe metric, one group of layers after another."""
    out: dict[str, float] = {}
    art: dict = {}
    kernel_probes(out, art)
    fanin_probes(out, art, workdir)
    fleet_probes(out, ledger)
    service_probes(out, art, workdir)
    archive_probes(out, art, workdir)
    return out
