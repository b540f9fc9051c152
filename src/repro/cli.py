"""Command-line interface: ``tissue-mc``.

Subcommands map one-to-one onto the paper's experiments:

* ``run``      — run a Monte Carlo simulation of a named tissue model and
  print (or save) the tally summary;
* ``banana``   — the Fig. 3 experiment: detected-path sensitivity profile
  in homogeneous white matter, rendered as an ASCII heat map;
* ``head``     — the Fig. 4 experiment: layered adult-head simulation with
  per-layer penetration and absorption report;
* ``speedup``  — the Fig. 2 experiment: simulated homogeneous-cluster
  speedup/efficiency curve;
* ``table2``   — the heterogeneous-cluster experiment of Table 2.

Beyond the paper: ``serve``/``client`` run the TCP master–worker platform,
and ``serve-http`` exposes simulations as an HTTP service with
content-addressed result caching and request coalescing
(:mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _add_request_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """One flag per :data:`repro.api.SCHEMA` row that ``command`` exposes."""
    from .api import SCHEMA

    for name, meta in SCHEMA.items():
        cli = dict(meta.get("cli", {}))
        if command not in cli.pop("commands", ()):
            continue
        kind, default = meta["kind"], cli.pop("default", meta["default"])
        kwargs = dict(dest=name, default=cli.pop("defaults", {}).get(command, default))
        if kind is bool:
            kwargs["action"] = "store_false" if meta["default"] else "store_true"
        elif isinstance(kind, tuple):
            kwargs["choices"] = kind
        elif kind in (int, float):
            kwargs.update(type=kind, nargs=2 if meta["pair"] else None)
        parser.add_argument(cli.pop("flag"), **kwargs, **cli)


def _request_from_args(args, **overrides):
    """The :class:`~repro.api.RunRequest` a command's flags describe.

    ``--checkpoint``/``--resume`` go through
    :func:`repro.api.resolve_checkpoint`; its refusals are rephrased in
    terms of the flags the user actually typed.
    """
    from .api import SCHEMA, RunRequest, resolve_checkpoint

    values = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in SCHEMA
    }
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint DIR")
    try:
        values["checkpoint"] = resolve_checkpoint(args.checkpoint or None, args.resume)
    except ValueError:
        raise SystemExit(f"checkpoint {args.checkpoint} already exists; "
                         "pass --resume to continue that run") from None
    return RunRequest(**{**values, **overrides})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tissue-mc",
        description="Distributed Monte Carlo simulation of light transport in tissue "
        "(reproduction of Page et al., IPPS 2006).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation and print the tally summary")
    _add_request_flags(run, "run")
    run.add_argument("--extend-from", type=str, default=None, metavar="FILE.npz",
                     help="prime this run with the frontier saved in a "
                          "smaller-budget archive of the same physics and "
                          "simulate only the missing tasks (bit-identical to "
                          "a from-scratch run; implies --capture-frontier)")
    run.add_argument("--save", type=str, default=None, metavar="FILE.npz")

    banana = sub.add_parser("banana", help="Fig. 3: banana sensitivity profile")
    banana.add_argument("--photons", type=int, default=40_000)
    banana.add_argument("--spacing", type=float, default=4.0, help="optode spacing in mm")
    banana.add_argument("--granularity", type=int, default=50, help="voxel grid resolution")
    banana.add_argument("--seed", type=int, default=0)
    banana.add_argument("--pgm", type=str, default=None, metavar="FILE.pgm")

    head = sub.add_parser("head", help="Fig. 4: layered adult-head simulation")
    head.add_argument("--photons", type=int, default=40_000)
    head.add_argument("--spacing", type=float, default=30.0)
    head.add_argument("--seed", type=int, default=0)
    head.add_argument("--neonatal", action="store_true", help="use the neonatal model")

    speedup = sub.add_parser("speedup", help="Fig. 2: simulated speedup curve")
    speedup.add_argument("--max-k", type=int, default=60)
    speedup.add_argument("--photons", type=int, default=100_000_000)
    speedup.add_argument("--task-size", type=int, default=100_000)

    table2 = sub.add_parser("table2", help="Table 2: heterogeneous cluster simulation")
    table2.add_argument("--photons", type=int, default=1_000_000_000)
    table2.add_argument("--task-size", type=int, default=200_000)
    table2.add_argument("--seed", type=int, default=0)
    table2.add_argument("--dedicated", action="store_true",
                        help="disable the stochastic availability model")

    serve = sub.add_parser(
        "serve", help="run the DataManager as a TCP server (clients connect with 'client')"
    )
    _add_request_flags(serve, "serve")

    serve_http = sub.add_parser(
        "serve-http",
        help="HTTP simulation service with content-addressed result caching "
             "and request coalescing",
    )
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8080,
                            help="0 picks a free port")
    serve_http.add_argument("--store", type=str, default="tally-store", metavar="DIR",
                            help="content-addressed result store directory")
    serve_http.add_argument("--store-max-mb", type=float, default=1024.0,
                            help="LRU-evict stored tallies beyond this footprint")
    serve_http.add_argument("--job-workers", type=int, default=2,
                            help="simulations running concurrently")
    serve_http.add_argument("--journal", type=str, default=None, metavar="DIR",
                            help="crash-safe job journal: transitions are fsynced "
                                 "to DIR before acknowledgement and replayed on "
                                 "restart (interrupted jobs resume from their "
                                 "checkpoints bit-identically)")
    serve_http.add_argument("--max-queue", type=int, default=64, metavar="N",
                            help="refuse new runs with 503 when this many jobs "
                                 "are unsettled (0 disables the bound)")
    serve_http.add_argument("--rate-limit", type=float, default=None,
                            metavar="PHOTONS_PER_S",
                            help="per-client token-bucket refill rate in photons "
                                 "per second (429 + Retry-After when exhausted; "
                                 "default: no rate limit)")
    serve_http.add_argument("--max-inflight", type=int, default=None, metavar="N",
                            help="unsettled jobs one client may hold (default: "
                                 "unbounded)")
    serve_http.add_argument("--drain-timeout", type=float, default=30.0,
                            metavar="SECONDS",
                            help="on SIGTERM/SIGINT, wait this long for running "
                                 "jobs to finish before exiting (unfinished jobs "
                                 "stay journaled for the next start)")
    serve_http.add_argument("--job-attempts", type=int, default=1, metavar="N",
                            help="attempts per job before it fails (transient "
                                 "failures retry with exponential backoff)")
    serve_http.add_argument("--job-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="fail a job running longer than this wall budget")
    serve_http.add_argument("--metrics", type=str, default=None, metavar="FILE.jsonl",
                            help="write structured telemetry events to this JSONL file")
    serve_http.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                            help="serve for this long then exit (default: forever)")

    client = sub.add_parser("client", help="connect to a 'serve' instance and work")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--name", default=None)
    client.add_argument("--max-tasks", type=int, default=None)
    client.add_argument("--heartbeat-interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="send a keep-alive this often while computing (0 disables)")

    fit = sub.add_parser(
        "fit", help="inverse problem: recover (mu_a, mu_s') from simulated R(rho)"
    )
    fit.add_argument("--mu-a", type=float, default=0.05, help="true absorption (mm^-1)")
    fit.add_argument("--mu-s-reduced", type=float, default=2.0,
                     help="true reduced scattering (mm^-1)")
    fit.add_argument("--photons", type=int, default=80_000)
    fit.add_argument("--seed", type=int, default=0)

    perturb = sub.add_parser(
        "perturb",
        help="derive perturbed tallies from a path-capturing archive "
             "(no re-simulation)",
    )
    perturb_sub = perturb.add_subparsers(dest="action", required=True)
    sweep = perturb_sub.add_parser(
        "sweep",
        help="sweep one layer's mu_a across derived tallies "
             "(parent archive from 'run --capture-paths --save')",
    )
    sweep.add_argument("archive", metavar="PARENT.npz",
                       help="archive written by 'run --capture-paths --save'")
    sweep.add_argument("--layer", type=int, default=0,
                       help="index of the layer to perturb (default 0)")
    sweep.add_argument("--mu-a", type=float, nargs="+", required=True,
                       metavar="MUA",
                       help="absolute mu_a values (mm^-1) to derive, e.g. "
                            "--mu-a 0.01 0.02 0.03 (absorption reweighting "
                            "is exact)")
    sweep.add_argument("--alpha-s", type=float, default=1.0, metavar="ALPHA",
                       help="additionally scale the layer's mu_s by ALPHA "
                            "(first-order approximation, flagged in the "
                            "output; default 1 = no scattering change)")
    sweep.add_argument("--save-dir", type=str, default=None, metavar="DIR",
                       help="write each derived tally to "
                            "DIR/mua<layer>_<value>.npz")
    sweep.add_argument("--json", dest="json_path", type=str, default=None,
                       metavar="FILE", help="write the sweep table as JSON")

    return parser


def _print_report(report, metrics_path) -> None:
    """The tally summary, then RunReport.metrics (counters/gauges) as a table."""
    from .io import format_table

    rows = [[k, v] for k, v in report.tally.summary().items()]
    print(format_table(["quantity", "value"], rows, float_format="{:.6g}"))
    metrics = report.metrics or {}
    rows = []
    for kind in ("counters", "gauges"):
        for row in metrics.get(kind, ()):
            labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
            rows.append([row["name"], labels, row["value"]])
    for row in metrics.get("histograms", ()):
        if row["count"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
            rows.append([f"{row['name']} (mean)", labels, row["mean"]])
    if rows:
        print(format_table(["metric", "labels", "value"], rows, float_format="{:.6g}"))
    if metrics_path:
        print(f"# telemetry events written to {metrics_path}")


def _cmd_run(args) -> int:
    from .api import run
    from .io import save_tally

    request = _request_from_args(
        args, capture_frontier=args.capture_frontier or bool(args.extend_from)
    )
    checkpoint = request.checkpoint
    if args.extend_from:
        request = _extend_from(request, args.extend_from)
    report = run(request)
    tally = report.tally

    if args.workers > 1 or args.checkpoint:
        print(f"# distributed over {args.workers} workers, "
              f"{report.n_tasks} tasks, wall {report.wall_seconds:.1f}s, "
              f"{report.retries} retries, "
              f"{report.speculative_duplicates} speculative duplicates")
        if checkpoint is not None:
            print(f"# checkpoint: {checkpoint.directory} "
                  f"({len(checkpoint.completed_indices())} tasks recorded)")

    _print_report(report, args.metrics_path)
    if args.save:
        frontier = report.frontier
        path = save_tally(
            args.save, tally, provenance=request.provenance(), frontier=frontier
        )
        print(f"# tally saved to {path}")
        if frontier is not None and len(frontier):
            print(f"# frontier: {len(frontier)} span(s) covering "
                  f"{frontier.n_covered} task(s) — archive is budget-extendable")
        if tally.paths is not None:
            print(f"# paths: {tally.paths.n_rows} detected-photon record(s) — "
                  "archive can seed 'repro perturb sweep'")
    return 0


def _extend_from(request, archive: str):
    """Prime ``request`` with the frontier saved in a same-physics archive."""
    from dataclasses import replace

    from .io import archive_summary, load_frontier
    from .service import physics_fingerprint

    try:
        summary = archive_summary(archive)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--extend-from {archive}: {exc}") from None
    provenance = summary["provenance"] or {}
    archived_physics = provenance.get("physics_fingerprint")
    expected = physics_fingerprint(request)
    if archived_physics != expected:
        raise SystemExit(
            f"--extend-from {archive}: archive physics fingerprint "
            f"{archived_physics!r} does not match this request ({expected!r}); "
            "an extension must share config, seed, kernel and task size"
        )
    frontier = load_frontier(archive)
    if frontier is None or frontier.prefix_tasks == 0:
        raise SystemExit(
            f"--extend-from {archive}: archive carries no prefix frontier "
            "(re-run the base with --capture-frontier)"
        )
    covered = frontier.prefix_tasks * request.resolved_task_size()
    if covered >= request.n_photons:
        raise SystemExit(
            f"--extend-from {archive}: archive already covers "
            f"{covered:,} photons; request a larger --photons budget"
        )
    print(f"# extending {archive}: {covered:,} photons cached, "
          f"{request.n_photons - covered:,} to simulate")
    return replace(request, frontier=frontier)


def _cmd_banana(args) -> int:
    from .analysis import ascii_heatmap, banana_metrics, save_pgm, xz_slice
    from .core import RecordConfig, RouletteConfig, Simulation, SimulationConfig
    from .detect import DiscDetector, GridSpec
    from .sources import PencilBeam
    from .tissue import white_matter

    rho = args.spacing
    spec = GridSpec.banana_box(args.granularity, rho)
    config = SimulationConfig(
        stack=white_matter(),
        source=PencilBeam(),
        detector=DiscDetector(rho, 0.0, radius=0.75),
        roulette=RouletteConfig(threshold=1e-2, boost=10),
        records=RecordConfig(path_grid=spec),
    )
    tally = Simulation(config).run(args.photons, seed=args.seed)
    print(f"# detected {tally.detected_count} of {tally.n_launched} photons")
    slab = xz_slice(tally.path_grid, spec)
    print(ascii_heatmap(slab))
    metrics = banana_metrics(tally.path_grid, spec, detector_x=rho)
    print(f"# banana: depth(source)={metrics.depth_at_source:.2f}mm "
          f"depth(mid)={metrics.depth_at_midpoint:.2f}mm "
          f"depth(detector)={metrics.depth_at_detector:.2f}mm "
          f"is_banana={metrics.is_banana}")
    if args.pgm:
        print(f"# wrote {save_pgm(args.pgm, slab)}")
    return 0


def _cmd_head(args) -> int:
    from .analysis import layer_report
    from .core import RecordConfig, RouletteConfig, Simulation, SimulationConfig
    from .detect import AnnularDetector
    from .io import format_table
    from .sources import PencilBeam
    from .tissue import adult_head, neonatal_head

    stack = neonatal_head() if args.neonatal else adult_head()
    rho = args.spacing
    config = SimulationConfig(
        stack=stack,
        source=PencilBeam(),
        detector=AnnularDetector(rho - 2.0, rho + 2.0),
        roulette=RouletteConfig(threshold=1e-2, boost=10),
        records=RecordConfig(penetration_bins=(stack.layer_top(len(stack) - 1) + 20.0, 400)),
    )
    tally = Simulation(config).run(args.photons, seed=args.seed)
    rows = [
        [r.name, r.z_top, r.z_bottom, r.absorbed_fraction, r.reached_fraction, r.stopped_fraction]
        for r in layer_report(tally, stack)
    ]
    print(format_table(
        ["layer", "z_top(mm)", "z_bottom(mm)", "absorbed", "reached", "stopped"], rows
    ))
    print(f"# detected {tally.detected_count} photons at {rho} mm spacing; "
          f"Rd={tally.diffuse_reflectance:.4f}")
    return 0


def _cmd_speedup(args) -> int:
    from .cluster import speedup_curve
    from .io import format_table

    ks = sorted({1, *range(5, args.max_k + 1, 5), args.max_k})
    points = speedup_curve(ks, args.photons, args.task_size)
    rows = [[p.k, p.pk_seconds, p.speedup, p.efficiency] for p in points]
    print(format_table(["k", "Pk (s)", "speedup", "efficiency"], rows))
    return 0


def _cmd_table2(args) -> int:
    from .cluster import (
        Dedicated,
        TABLE2_CLASSES,
        UniformAvailability,
        simulate_run,
        table2_cluster,
        total_mflops,
    )
    from .io import format_table

    rows = [
        [c.count, f"{c.mflops_min:g}-{c.mflops_max:g}", c.ram_mb, c.os, c.processor]
        for c in TABLE2_CLASSES
    ]
    print(format_table(["#", "Mflop/s", "RAM (MB)", "O/S", "Processor"], rows))
    cluster = table2_cluster(np.random.default_rng(args.seed))
    availability = Dedicated() if args.dedicated else UniformAvailability()
    report = simulate_run(
        cluster, args.photons, args.task_size, availability=availability, seed=args.seed
    )
    print(f"# {len(cluster)} machines, {total_mflops(cluster):.0f} Mflop/s total")
    print(f"# {args.photons:.2g} photons -> makespan {report.makespan_seconds/3600:.2f} h, "
          f"utilisation {report.mean_utilisation:.3f}")
    return 0


def _cmd_serve(args) -> int:
    from .api import run

    def announce(server) -> None:
        print(f"# DataManager listening on {args.host}:{server.port} "
              f"({args.n_photons:,} photons in {args.task_size:,}-photon tasks)")
        print(f"# start workers with: tissue-mc client --port {server.port}")

    report = run(_request_from_args(
        args, mode="serve", heartbeat_timeout=args.heartbeat_timeout or None,
        on_server_start=announce,
    ))
    print(f"# complete: {report.n_tasks} tasks in {report.wall_seconds:.1f}s, "
          f"{report.retries} retries, "
          f"{report.speculative_duplicates} speculative duplicates")
    _print_report(report, args.metrics_path)
    return 0


def _cmd_serve_http(args) -> int:
    import signal
    import threading

    from .observe import Telemetry
    from .service import AdmissionController, JobManager, ResultStore, ServiceServer

    telemetry = Telemetry.to_jsonl(args.metrics) if args.metrics else Telemetry()
    store = ResultStore(
        args.store,
        max_bytes=int(args.store_max_mb * 2**20),
        telemetry=telemetry,
    )
    manager = JobManager(
        store,
        max_workers=args.job_workers,
        telemetry=telemetry,
        journal=args.journal,
        max_attempts=args.job_attempts,
        job_timeout=args.job_timeout,
    )
    admission = AdmissionController(
        max_queue=args.max_queue or None,
        rate_photons_per_s=args.rate_limit,
        max_inflight_per_client=args.max_inflight,
        telemetry=telemetry,
    )
    server = ServiceServer(
        manager,
        host=args.host,
        port=args.port,
        admission=admission,
        drain_timeout=args.drain_timeout,
    )
    # Handlers go in *before* the listening banner: anything supervising
    # this process (systemd, CI, the chaos tests) may signal the instant
    # the URL appears, and a SIGTERM in that window must drain, not kill.
    stop = threading.Event()
    for signum in (signal.SIGINT, getattr(signal, "SIGTERM", None)):
        if signum is not None:
            signal.signal(signum, lambda *_: stop.set())

    print(f"# simulation service listening on {server.url}", flush=True)
    print(f"# result store: {store.root} "
          f"({len(store)} cached, {store.total_bytes() / 2**20:.1f} MB, "
          f"bound {args.store_max_mb:g} MB)")
    if args.journal:
        recovered = sum(job.recovered for job in manager.jobs())
        print(f"# journal: {args.journal} ({recovered} job(s) replayed)")
    print(f"# submit:  curl -X POST {server.url}/v2/runs "
          "-d '{\"model\": \"adult_head\", \"n_photons\": 100000}'")
    print(f"# metrics: curl {server.url}/v2/metrics", flush=True)
    drained = True
    try:
        server.start()
        stop.wait(args.timeout)  # timeout=None waits for a signal forever
    finally:
        print(f"# draining (up to {args.drain_timeout:g}s) ...", flush=True)
        drained = server.drain(args.drain_timeout)
        if drained:
            print("# drained cleanly, shutting down", flush=True)
        else:
            print("# drain timed out; unfinished jobs stay journaled "
                  "for the next start", flush=True)
        telemetry.finish()
    return 0


def _cmd_client(args) -> int:
    from .distributed import run_network_client

    try:
        completed = run_network_client(
            args.host, args.port, worker_name=args.name, max_tasks=args.max_tasks,
            heartbeat_interval=args.heartbeat_interval or None,
        )
    except OSError as exc:
        # The server vanished (or refused us) — a non-dedicated client
        # reports it and exits; its tasks are reassigned server-side.
        print(f"# lost the server at {args.host}:{args.port}: {exc}")
        return 1
    print(f"# completed {completed} tasks")
    return 0


def _cmd_fit(args) -> int:
    from .core import RecordConfig, RouletteConfig, Simulation, SimulationConfig
    from .detect import radial_reflectance
    from .inverse import fit_optical_properties
    from .io import format_table
    from .sources import PencilBeam
    from .tissue import LayerStack, OpticalProperties

    truth = OpticalProperties.from_reduced(
        mu_a=args.mu_a, mu_s_reduced=args.mu_s_reduced, g=0.9, n=1.0
    )
    config = SimulationConfig(
        stack=LayerStack.homogeneous(truth),
        source=PencilBeam(),
        roulette=RouletteConfig(threshold=1e-3, boost=10),
        records=RecordConfig(reflectance_rho_bins=(12.0, 24)),
    )
    print(f"# simulating R(rho) of the 'unknown' medium with {args.photons:,} photons")
    tally = Simulation(config).run(args.photons, seed=args.seed)
    rho, r_mc = radial_reflectance(tally)
    window = (rho >= 1.5) & (r_mc > 0)
    fit = fit_optical_properties(rho[window], r_mc[window], n=1.0, g=0.9)
    print(format_table(
        ["quantity", "truth", "recovered", "error"],
        [
            ["mu_a (mm^-1)", truth.mu_a, fit.mu_a,
             f"{abs(fit.mu_a / truth.mu_a - 1):.1%}"],
            ["mu_s' (mm^-1)", truth.mu_s_reduced, fit.mu_s_reduced,
             f"{abs(fit.mu_s_reduced / truth.mu_s_reduced - 1):.1%}"],
        ],
        float_format="{:.4f}",
    ))
    return 0


def _cmd_perturb(args) -> int:
    """Derive perturbed tallies from one captured parent archive."""
    import json as _json
    from pathlib import Path

    from .io import format_table, load_tally, save_tally
    from .perturb import PerturbationDelta, PerturbationError, derive_tally

    try:
        parent = load_tally(args.archive, paths=True)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perturb sweep {args.archive}: {exc}") from None
    if parent.paths is None:
        raise SystemExit(
            f"perturb sweep {args.archive}: archive carries no path records; "
            "re-run the parent with 'run --capture-paths --save'"
        )
    provenance = parent.provenance or {}
    coefficients = provenance.get("coefficients") or {}
    parent_mu_a = coefficients.get("mu_a")
    n_layers = parent.paths.n_layers
    if not 0 <= args.layer < n_layers:
        raise SystemExit(
            f"--layer {args.layer} out of range for the archive's "
            f"{n_layers} layer(s)"
        )
    if parent_mu_a is None:
        raise SystemExit(
            f"perturb sweep {args.archive}: archive provenance carries no "
            "perturbable coefficients (pre-perturbation archive?); re-save "
            "the parent with a current build"
        )
    base_mu_a = float(parent_mu_a[args.layer])
    save_dir = None
    if args.save_dir is not None:
        save_dir = Path(args.save_dir)
        save_dir.mkdir(parents=True, exist_ok=True)

    mode = "exact" if args.alpha_s == 1.0 else "first-order"
    print(f"# deriving {len(args.mu_a)} perturbed point(s) from {args.archive} "
          f"(layer {args.layer}, parent mu_a={base_mu_a:g}/mm, {mode}) — "
          "0 photons simulated")
    rows, points = [], []
    for target in args.mu_a:
        d_mu_a = [0.0] * n_layers
        d_mu_a[args.layer] = float(target) - base_mu_a
        alpha_s = [1.0] * n_layers
        alpha_s[args.layer] = float(args.alpha_s)
        delta = PerturbationDelta(d_mu_a=tuple(d_mu_a), alpha_s=tuple(alpha_s))
        try:
            derived = derive_tally(parent, delta, mu_s=coefficients.get("mu_s"))
        except PerturbationError as exc:
            raise SystemExit(f"perturb sweep {args.archive}: {exc}") from None
        std = derived.derivation["derived_std"]
        rows.append([f"{target:g}", derived.detected_weight, std, mode])
        point = {
            "mu_a": float(target),
            "detected_weight": derived.detected_weight,
            "derived_std": std,
            "exact": delta.is_exact,
        }
        if save_dir is not None:
            out_path = save_dir / f"mua{args.layer}_{target:g}.npz"
            save_tally(
                out_path,
                derived,
                provenance={
                    "derived_from": {
                        "parent_fingerprint": provenance.get("fingerprint"),
                        "perturbation": delta.as_dict(),
                    }
                },
            )
            point["archive"] = str(out_path)
        points.append(point)
    print(format_table(
        ["mu_a (1/mm)", "detected weight", "1 sigma", "reweighting"],
        rows, float_format="{:.6g}",
    ))
    if save_dir is not None:
        print(f"# {len(points)} derived archive(s) written to {save_dir}")
    if args.json_path:
        payload = {
            "archive": args.archive,
            "layer": args.layer,
            "parent_mu_a": base_mu_a,
            "alpha_s": float(args.alpha_s),
            "n_records": parent.paths.n_rows,
            "points": points,
        }
        Path(args.json_path).write_text(_json.dumps(payload, indent=2))
        print(f"# sweep table written to {args.json_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return globals()[f"_cmd_{args.command.replace('-', '_')}"](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
