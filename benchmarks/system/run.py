"""System benchmark entry point.

    python3 benchmarks/system/run.py --workload W --seed S --seconds T --trace 0|1

runs one workload and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 0 only when every operation succeeded and every correctness
check passed.  Without ``--workload`` every workload runs in turn, each in
a fresh interpreter.  ``--quick`` shrinks the budgets for a smoke run whose
numbers are not for comparison.  See README.md in this directory.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: Fresh-interpreter set-ups timed besides this process's own.
SETUP_PROBES = 2
WORKLOAD_NAMES = ("cold_head", "fanin_grid", "serve_repeat", "sweep_derive")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region the budgets are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="budgets / 20, repeats / 10: a smoke run, not for comparison")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def stamp(args: argparse.Namespace, load_start: tuple, noisy: bool, host: dict | None) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "host": host,
        "noisy": noisy or (host is not None and not host["quiet"]),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def rerun(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    """The command line of a fresh interpreter on one workload of this run."""
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *(["--quick"] if args.quick else []), *extra]


def probe_setup(args: argparse.Namespace) -> list[float]:
    """Set-up seconds of fresh interpreters running the same set-up."""
    command = rerun(args, args.workload, "--setup-only")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(args: argparse.Namespace) -> int:
    load_start = os.getloadavg()
    noisy = load_start[0] > (os.cpu_count() or 1) / 2
    if noisy and not args.setup_only:
        print(f"run.py: 1-min load average {load_start[0]:.2f} exceeds nproc/2; "
              "the result is marked noisy", file=sys.stderr)
    import_repro()
    import probes
    import quiet
    import tracing
    import workloads

    nominal = args.seconds / workloads.NOMINAL_SECONDS
    sizes = workloads.Sizes(photons=nominal, repeats=nominal)
    if args.quick:
        sizes = workloads.Sizes(photons=nominal / 20, repeats=nominal / 10)
    elif args.trace:
        # The traced run shares its time cap with the probes.
        sizes = workloads.Sizes(photons=nominal / 2, repeats=nominal / 2)

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    ledger = workloads.Ledger()
    tracer = tracing.Tracer(args.workload) if args.trace else tracing.OFF
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir / "w", ledger)
    try:
        workload.setup(tracer)
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] if args.trace or args.quick else [setup_s, *probe_setup(args)]
        # Per-layer metrics carry no bound, so a traced run does not spend the budget.
        host = None if args.quick or args.trace else quiet.wait(RESULTS / "quiet.json")
        if host is not None and not host["quiet"]:
            print(f"run.py: the host is {host['reading_s'] / host['best_s']:.2f} times slower than "
                  "it has been and did not settle; the result is marked noisy", file=sys.stderr)

        start = time.perf_counter()
        outcome = workload.run(tracer)
        run_s = time.perf_counter() - start
        workload.verify()

        if args.trace:
            metrics = probes.trace_metrics(tracer, run_s)
            metrics["workload.op_ms_p95"] = workloads.percentile(outcome.op_ms, 0.95)
            metrics.update(probes.run_all(workdir / "p", ledger))
            tracer.flush(RESULTS / f"trace-{args.workload}-{args.seed}.jsonl")
            units = {name: unit for name, (unit, _, _) in probes.MOVES.items()}
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": run_s,
                "photons_per_s": outcome.photons_per_s,
                "op_ms_p50": statistics.median(outcome.op_ms),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = {"setup_s": "s", "run_s": "s", "photons_per_s": "photons/s",
                     "op_ms_p50": "ms", "peak_rss_mb": "MB"}
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for message in ledger.failures:
        print(f"run.py: FAILED {message}", file=sys.stderr)
    result = {
        "correct": not ledger.failures,
        "attempted": max(1, ledger.attempted),
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "stamp": stamp(args, load_start, noisy, host),
        "setup_samples_s": setups,
        "op_samples": len(outcome.op_ms),
        "phases": outcome.phases,
        "failures": ledger.failures,
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    if args.quick:
        print("run.py: --quick numbers are not for comparison", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_every_workload(args: argparse.Namespace) -> int:
    """No ``--workload``: each one in a fresh interpreter, results echoed."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(rerun(args, name, "--trace", str(args.trace)),
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print(json.dumps({"workload": name, **json.loads(lines[-1])}) if lines else
              json.dumps({"workload": name, "correct": False}))
        status = status or done.returncode
    return status


def interrupt(signum, frame):
    """SIGTERM unwinds like Ctrl-C, so children are reaped and temp dirs removed."""
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds <= 0:
        raise SystemExit("run.py: --seconds must be positive")
    signal.signal(signal.SIGTERM, interrupt)
    if args.workload is None:
        return run_every_workload(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
