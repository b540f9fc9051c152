"""The four system workloads: generation, timed phases, correctness checks.

Every workload is driven from this one process with at most two client
threads or worker processes (the seed box has two cores).  A workload
object is built and ``setup()`` during set-up time, ``run(tracer)`` is the
timed region, ``verify()`` runs the checks that need no timing, and
``close()`` reaps every child and socket it opened.

What ``--seed`` drives
----------------------
The fan-in request's RNG seed, the order of every sweep and the order in
which hits address the stored results.  Adult-head *simulation* seeds are
pinned: at these budgets the wall time of an adult-head task is set by the
longest-lived photon of each 5 000-photon sub-batch and moves by ±7 % (one
standard deviation, 10 000 photons) with the RNG seed alone, which is more
than the bound any metric here may worsen by.  A benchmark has to compare
equal work, so the simulated photons are the same on every run and the
seed permutes what is done with them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import api
from repro.api import RunRequest, build_config
from repro.core import RecordConfig, SimulationConfig
from repro.detect import GridSpec
from repro.distributed import run_network_client
from repro.io import encode_tally, load_tally
from repro.perturb import PerturbationDelta, derive_tally
from repro.service import (
    AdmissionController,
    JobManager,
    ResultStore,
    ServiceServer,
)
from repro.sources import PencilBeam
from repro.tissue import LayerStack, OpticalProperties

#: ``--seconds`` at which the sizes below apply; other values scale them.
NOMINAL_SECONDS = 20.0

#: Pinned adult-head seeds (see the module docstring).  Chosen among seeds
#: 1–16 for tasks that are neither the cheapest nor the dearest.
HEAD_SEED = 3
MISS_SEEDS = (7, 10)
PARENT_SEED = 7

#: Diffuse reflectance of the adult-head model: mean over eight independent
#: 10 000-photon runs, and the per-photon standard deviation they imply.
#: A statistical reference on purpose, so the check survives a kernel
#: change that deliberately alters the bits of a tally.
HEAD_RD_MEAN = 0.6124
HEAD_RD_SIGMA_1 = 0.5

CLIENTS = 2
JOB_TIMEOUT = 150.0


@dataclass(frozen=True)
class Sizes:
    """Multipliers on the nominal photon budgets and repeat counts."""

    photons: float = 1.0
    repeats: float = 1.0

    def n(self, nominal: int, floor: int = 1) -> int:
        return max(floor, int(round(nominal * self.photons)))

    def r(self, nominal: int, floor: int = 1) -> int:
        return max(floor, int(round(nominal * self.repeats)))


@dataclass
class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check(self, ok: bool, message: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(message)
        return bool(ok)

    @contextmanager
    def operation(self, label: str):
        """Count one operation; anything it raises is a failure, not a crash."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - the run must report, not die
            self.check(False, f"{label}: {type(exc).__name__}: {exc}")
        else:
            self.check(True, label)


@dataclass
class Outcome:
    """What a workload's timed region produced."""

    photons_per_s: float
    op_ms: list[float]
    #: One row per timed phase: name, wall_s and whatever the phase counted.
    phases: list[dict]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fast_medium_config(grid: bool = True) -> SimulationConfig:
    """Homogeneous high-absorption medium: photons die in tens of steps."""
    props = OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.4)
    records = RecordConfig()
    if grid:
        records = RecordConfig(
            absorption_grid=GridSpec(shape=(48, 48, 48), lo=(-5, -5, 0), hi=(5, 5, 10)),
            pathlength_bins=(0.0, 100.0, 64),
        )
    return SimulationConfig(
        stack=LayerStack.homogeneous(props), source=PencilBeam(), records=records
    )


def warm_up() -> None:
    """One 200-photon run, so lazy imports and first-call costs are set-up."""
    api.run(RunRequest(config=fast_medium_config(grid=False), n_photons=200, task_size=200))


def tally_hash(tally) -> str:
    return hashlib.sha256(encode_tally(tally)).hexdigest()


# ------------------------------------------------------------------ cold_head
class ColdHead:
    """Plain serial runs of the paper's Table 1 model; >99 % ``core.vkernel``.

    The same request runs three times and the fastest is the rate reported:
    the work is identical, interference from the rest of the box only ever
    adds time, and a third of the region is long enough (one sub-batch and
    its long tail) to be the kernel's steady state.
    """

    name = "cold_head"
    REPEATS = 3

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, ledger: Ledger) -> None:
        self.ledger = ledger
        n = sizes.n(4_000, floor=100)
        self.request = RunRequest(
            model="adult_head", n_photons=n, task_size=n, kernel="vector",
            workers=1, seed=HEAD_SEED,
        )
        self.report = None

    def setup(self, tracer) -> None:
        warm_up()

    def simulate(self):
        return api.run(self.request)

    def run(self, tracer) -> Outcome:
        walls = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            with self.ledger.operation("cold_head api.run"), tracer.span("api.run"):
                self.report = self.simulate()
            walls.append(time.perf_counter() - start)
        n = self.request.n_photons
        return Outcome(
            photons_per_s=n / min(walls),
            op_ms=[wall * 1e3 for wall in walls],
            phases=[{"name": f"run{i}", "wall_s": wall, "photons": n}
                    for i, wall in enumerate(walls)],
        )

    def verify(self) -> None:
        if self.report is None:
            return
        tally, n = self.report.tally, self.request.n_photons
        check = self.ledger.check
        check(tally.n_launched == n, f"cold_head launched {tally.n_launched}, wanted {n}")
        check(abs(tally.energy_balance - 1.0) <= 1e-9,
              f"cold_head energy balance {tally.energy_balance!r} is not 1")
        sigma = HEAD_RD_SIGMA_1 / n ** 0.5
        check(abs(tally.diffuse_reflectance - HEAD_RD_MEAN) <= 5 * sigma,
              f"cold_head diffuse reflectance {tally.diffuse_reflectance:.5f} is more than "
              f"5 sigma ({5 * sigma:.5f}) from the reference {HEAD_RD_MEAN}")

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- fanin_grid
class TcpFleet:
    """Two ``tcp_client.py`` processes parked on their standard input.

    Plain ``subprocess`` children: a ``multiprocessing`` spawn context would
    start a resource tracker that outlives the benchmark by a moment.
    """

    def __init__(self) -> None:
        here = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": str(here.parents[1] / "src")}
        self.members = [
            subprocess.Popen([sys.executable, str(here / "tcp_client.py")], env=env, text=True,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for _ in range(CLIENTS)
        ]
        self.released = False

    @staticmethod
    def line(process, timeout: float) -> str:
        """The next line a member writes, or ``""`` if none comes in time."""
        if not select.select([process.stdout], [], [], timeout)[0]:
            return ""
        return process.stdout.readline().strip()

    def wait_ready(self, timeout: float = 60.0) -> None:
        for process in self.members:
            if self.line(process, timeout) != "ready":
                raise RuntimeError("a TCP client did not come up")

    def release(self, server) -> None:
        """``RunRequest.on_server_start``: tell the parked clients the port."""
        self.released = True
        for process in self.members:
            process.stdin.write(f"{server.port}\n")
            process.stdin.flush()

    def tasks_done(self, timeout: float = 60.0) -> int:
        done = 0
        for process in self.members:
            reported = self.line(process, timeout)
            if not reported:
                raise RuntimeError("a TCP client never reported back")
            done += int(reported)
        return done

    def close(self) -> None:
        """Stand down whoever is still parked, then reap every member."""
        for process in self.members:
            try:
                process.stdin.close()
            except OSError:
                pass
        try:
            for process in self.members:
                process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        finally:
            for process in self.members:
                if process.poll() is None:
                    process.kill()
                process.wait()
                process.stdout.close()


def fanin_request(n_tasks: int, seed: int, **execution) -> RunRequest:
    return RunRequest(
        config=fast_medium_config(), n_photons=500 * n_tasks, task_size=500,
        span_size=8, retain_task_tallies=False, seed=seed, **execution,
    )


def dispatch_overhead_ms(report, workers: int, n_tasks: int) -> float:
    """Worker-seconds not spent computing, per task, in milliseconds."""
    return (workers * report.wall_seconds - report.busy_seconds) / n_tasks * 1e3


class FaninGrid:
    """Short-lived photons, ~0.89 MB of tally per task: coordinator-heavy.

    The pool phase runs twice and the faster run is the rate reported.  Both
    cores are busy in it, and on a shared two-core box that alone makes a
    single 4-second wall swing by 10-20 % from run to run; interference only
    ever adds time, so the better of two runs is the steadier estimate.  Both
    come before the TCP phase: a pool run after it was 25 % slower at seed.
    """

    name = "fanin_grid"
    ROUTES = ("pool", "pool_again", "tcp")

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, ledger: Ledger) -> None:
        self.ledger = ledger
        self.seed = seed
        self.n_tasks = 8 * sizes.n(20, floor=2)
        self.fleet: TcpFleet | None = None
        self.reports: dict[str, object] = {}

    def setup(self, tracer) -> None:
        self.fleet = TcpFleet()
        warm_up()
        self.fleet.wait_ready()

    def request(self, route: str) -> RunRequest:
        if route == "tcp":
            return fanin_request(self.n_tasks, self.seed, mode="serve",
                                 on_server_start=self.fleet.release, serve_timeout=JOB_TIMEOUT)
        return fanin_request(self.n_tasks, self.seed, workers=CLIENTS, backend="process")

    def run(self, tracer) -> Outcome:
        n = 500 * self.n_tasks
        phases = []
        for route in self.ROUTES:
            start = time.perf_counter()
            with self.ledger.operation(f"fanin_grid {route}"), tracer.span("api.run"):
                self.reports[route] = api.run(self.request(route))
            wall = time.perf_counter() - start
            row = {"name": route, "wall_s": wall, "photons": n, "tasks": self.n_tasks,
                   "photons_per_s": n / wall}
            report = self.reports.get(route)
            if report is not None:
                row["utilization"] = report.busy_seconds / (CLIENTS * report.wall_seconds)
                row["overhead_ms_per_task"] = dispatch_overhead_ms(report, CLIENTS, self.n_tasks)
            phases.append(row)
        # The pool's faster run gives the rate; the one operation timed is the
        # request over the TCP fleet.
        pool = min(p["wall_s"] for p in phases if p["name"] != "tcp")
        return Outcome(
            photons_per_s=n / pool,
            op_ms=[phases[-1]["wall_s"] * 1e3],
            phases=phases,
        )

    def verify(self) -> None:
        check = self.ledger.check
        if self.fleet.released:
            with self.ledger.operation("fanin_grid clients report"):
                done = self.fleet.tasks_done()
                if done != self.n_tasks // 8:
                    raise RuntimeError(f"clients ran {done} spans, wanted {self.n_tasks // 8}")
        if len(self.reports) == len(self.ROUTES):
            tallies = [self.reports[route].tally for route in self.ROUTES]
            check(tallies[0].n_launched == 500 * self.n_tasks,
                  f"fanin_grid launched {tallies[0].n_launched}, wanted {500 * self.n_tasks}")
            check(len({tally_hash(t) for t in tallies}) == 1,
                  "fanin_grid: process-pool and TCP tallies differ")

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()


# --------------------------------------------------------------- serve_repeat
class HttpClient:
    """One closed-loop client on one persistent connection, as an SDK holds."""

    def __init__(self, host: str, port: int, tracer) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=JOB_TIMEOUT)
        self.conn.connect()
        self.tracer = tracer

    def call(self, span: str, method: str, path: str, body: bytes | None = None) -> bytes:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        with self.tracer.span(span):
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        if response.status not in (200, 202):
            raise RuntimeError(f"{method} {path} answered {response.status}: {data[:200]!r}")
        return data

    def fetch(self, payload: dict) -> tuple[dict, bytes]:
        """POST the run, poll until it settles, GET the archive."""
        job = json.loads(
            self.call("service.http.post", "POST", "/v2/runs", json.dumps(payload).encode())
        )
        deadline = time.monotonic() + JOB_TIMEOUT
        while job["state"] not in ("done", "failed", "cancelled"):
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job['id']} did not settle")
            time.sleep(0.02)
            job = json.loads(self.call("service.http.poll", "GET", f"/v2/runs/{job['id']}"))
        if job["state"] != "done":
            raise RuntimeError(f"job {job['id']} {job['state']}: {job.get('error')}")
        return job, self.call("service.http.get", "GET", f"/v2/results/{job['fingerprint']}")

    def close(self) -> None:
        self.conn.close()


def traced_runner(tracer):
    """The ``runner=`` handed to ``JobManager``: ``api.run`` inside a span."""
    if not tracer.enabled:
        return None

    def runner(request):
        with tracer.span("service.jobs.runner"):
            return api.run(request)

    return runner


def in_two_threads(work) -> float:
    """Run ``work(0)`` and ``work(1)`` concurrently; seconds until both end."""
    threads = [threading.Thread(target=work, args=(i,)) for i in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start


class ServeRepeat:
    """Two SDK-style clients against the HTTP service: miss, repeat, extend."""

    name = "serve_repeat"
    MISS_PHOTONS = 200

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, ledger: Ledger) -> None:
        self.ledger = ledger
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.hits_each = sizes.r(100, floor=4)
        self.stack = ExitStack()
        self.archives: dict[str, bytes] = {}
        self.extended: list[bytes] = []

    def payload(self, client: int, n_photons: int) -> dict:
        return {"model": "adult_head", "n_photons": n_photons,
                "task_size": self.MISS_PHOTONS, "seed": self.seeds[client]}

    def setup(self, tracer) -> None:
        # Which client simulates which pinned seed, and which stored result
        # each hit asks for, are the seeded part of this workload.
        self.seeds = self.rng.sample(MISS_SEEDS, CLIENTS)
        targets = [i % CLIENTS for i in range(CLIENTS * self.hits_each)]
        self.rng.shuffle(targets)
        self.hit_targets = [targets[i::CLIENTS] for i in range(CLIENTS)]
        manager = JobManager(
            ResultStore(self.workdir / "store"), max_workers=CLIENTS,
            journal=self.workdir / "journal", runner=traced_runner(tracer),
        )
        server = ServiceServer(manager, port=0, admission=AdmissionController()).start()
        self.stack.callback(server.close)
        self.clients = []
        for _ in range(CLIENTS):
            client = HttpClient(server.host, server.port, tracer)
            self.stack.callback(client.close)
            self.clients.append(client)
        warm_up()

    def run(self, tracer) -> Outcome:
        check, n0 = self.ledger.check, self.MISS_PHOTONS
        fingerprints: list[str | None] = [None] * CLIENTS
        hit_ms: list[float] = []

        def miss(i: int) -> None:
            with self.ledger.operation(f"serve_repeat miss {i}"):
                job, archive = self.clients[i].fetch(self.payload(i, n0))
                check(job["cache"] == "miss", f"miss {i} was served as {job['cache']!r}")
                fingerprints[i] = job["fingerprint"]
                self.archives[job["fingerprint"]] = archive

        def repeat(i: int) -> None:
            for target in self.hit_targets[i]:
                with self.ledger.operation(f"serve_repeat hit {i}"):
                    start = time.perf_counter()
                    job, archive = self.clients[i].fetch(self.payload(target, n0))
                    hit_ms.append((time.perf_counter() - start) * 1e3)
                    check(job["cache"] == "exact", f"repeat was served as {job['cache']!r}")
                    check(archive == self.archives.get(fingerprints[target]),
                          "a hit's bytes differ from the first fetched archive")

        def extend(i: int) -> None:
            with self.ledger.operation(f"serve_repeat extend {i}"):
                job, archive = self.clients[i].fetch(self.payload(i, 2 * n0))
                check(job["cache"] == "prefix", f"extension {i} was served as {job['cache']!r}")
                check(job.get("delta_photons") == n0 and job.get("base_fingerprint") == fingerprints[i],
                      f"extension {i} reports delta {job.get('delta_photons')} "
                      f"from {job.get('base_fingerprint')}")
                self.extended.append(archive)

        phases = []
        for name, work, photons in (("miss", miss, CLIENTS * n0), ("repeat", repeat, 0),
                                    ("extend", extend, CLIENTS * n0)):
            phases.append({"name": name, "wall_s": in_two_threads(work), "photons": photons})
        phases[1].update(ops=len(hit_ms), p50_ms=percentile(hit_ms or [0.0], 0.5),
                         p95_ms=percentile(hit_ms or [0.0], 0.95))
        # Two flights under one GIL make either simulating phase's wall swing
        # by a sixth from run to run; their sum is three times steadier.
        simulating = phases[0]["wall_s"] + phases[2]["wall_s"]
        return Outcome(
            photons_per_s=2 * CLIENTS * n0 / simulating,
            op_ms=hit_ms or [phases[1]["wall_s"] * 1e3],
            phases=phases,
        )

    def verify(self) -> None:
        for i, archive in enumerate(self.extended):
            with self.ledger.operation("serve_repeat extended archive loads"):
                path = self.workdir / f"extended-{i}.npz"
                path.write_bytes(archive)
                launched = load_tally(path).n_launched
                if launched != 2 * self.MISS_PHOTONS:
                    raise RuntimeError(f"extended archive holds {launched} photons")

    def close(self) -> None:
        self.stack.close()


# --------------------------------------------------------------- sweep_derive
class SweepDerive:
    """One captured parent, then a μa sweep served by reweighting its records."""

    name = "sweep_derive"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, ledger: Ledger) -> None:
        self.ledger = ledger
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.n_photons = 2 * sizes.n(2_000, floor=100)
        self.per_layer = 2 * sizes.r(24)  # even, so no scale is exactly 1
        self.manager: JobManager | None = None
        self.detected: dict[tuple[int, float], float] = {}

    def request(self, config: SimulationConfig) -> RunRequest:
        return RunRequest(config=config, n_photons=self.n_photons,
                          task_size=self.n_photons // 2, seed=PARENT_SEED)

    def setup(self, tracer) -> None:
        base = build_config(RunRequest(model="adult_head"))
        layers = base.stack.layers
        self.parent_request = self.request(base)
        self.points = []
        for layer in range(len(layers)):
            for k in range(self.per_layer):
                scale = 0.75 + 0.5 * k / (self.per_layer - 1)
                props = layers[layer].properties
                scaled = dataclasses.replace(
                    layers[layer], properties=dataclasses.replace(props, mu_a=props.mu_a * scale)
                )
                stack = LayerStack(
                    layers[:layer] + (scaled,) + layers[layer + 1:],
                    n_above=base.stack.n_above, n_below=base.stack.n_below,
                )
                config = dataclasses.replace(base, stack=stack)
                self.points.append((layer, scale, self.request(config)))
        self.rng.shuffle(self.points)
        self.manager = JobManager(
            ResultStore(self.workdir / "store"), max_workers=CLIENTS,
            journal=self.workdir / "journal", runner=traced_runner(tracer),
        )
        warm_up()

    def submit(self, tracer, request: RunRequest, expect: str):
        """One in-process request; returns ``(tally, milliseconds)``."""
        start = time.perf_counter()
        with tracer.span("service.jobs.submit"):
            job = self.manager.submit(request)
        with tracer.span("service.jobs.result"):
            tally = job.result(timeout=JOB_TIMEOUT)
        elapsed = (time.perf_counter() - start) * 1e3
        self.ledger.check(job.cache == expect, f"expected {expect!r}, served {job.cache!r}")
        return tally, elapsed

    def run(self, tracer) -> Outcome:
        start = time.perf_counter()
        with self.ledger.operation("sweep_derive parent"):
            self.parent, _ = self.submit(tracer, self.parent_request, "miss")
        phases = [{"name": "parent", "wall_s": time.perf_counter() - start,
                   "photons": self.n_photons}]
        samples: dict[str, list[float]] = {}
        for name, expect in (("derive", "derived"), ("repeat", "exact")):
            samples[name] = []
            start = time.perf_counter()
            for layer, scale, request in self.points:
                with self.ledger.operation(f"sweep_derive {name}"):
                    tally, ms = self.submit(tracer, request, expect)
                    samples[name].append(ms)
                    self.detected[(layer, scale)] = tally.detected_weight
            phases.append({"name": name, "wall_s": time.perf_counter() - start,
                           "ops": len(samples[name]),
                           "p50_ms": percentile(samples[name] or [0.0], 0.5),
                           "p95_ms": percentile(samples[name] or [0.0], 0.95)})
        return Outcome(
            photons_per_s=self.n_photons / phases[0]["wall_s"],
            op_ms=samples["derive"] or [phases[1]["wall_s"] * 1e3],
            phases=phases,
        )

    def verify(self) -> None:
        check = self.ledger.check
        parent = getattr(self, "parent", None)
        if parent is None:
            return
        if check(parent.paths is not None, "the parent tally carries no path records"):
            n_layers = len(self.parent_request.config.stack)
            identity = PerturbationDelta((0.0,) * n_layers, (1.0,) * n_layers)
            check(derive_tally(parent, identity) == parent,
                  "the scale-1.0 derivation is not bit-identical to the parent")
        for layer in sorted({layer for layer, _ in self.detected}):
            weights = [w for (l, _), w in sorted(self.detected.items()) if l == layer]
            check(all(a >= b for a, b in zip(weights, weights[1:])),
                  f"detected weight is not monotone in mu_a of layer {layer}")

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()


WORKLOADS = {w.name: w for w in (ColdHead, FaninGrid, ServeRepeat, SweepDerive)}
