"""Compare parent and change runs of the system benchmark.

    python3 benchmarks/system/compare.py P1.json C1.json P2.json C2.json ...

The arguments are result files written by ``run.py`` under ``results/``,
alternating parent and change; run the pairs alternating which side goes
first.  Files are paired per workload in the order given.  One row is
printed per (metric, workload) with each side's median and quartiles, the
ratio change / parent with its base, the pairs the change won, and a
verdict by the rule of section 8 of the choosing-metrics guide:

``improved``    at least ten pairs, the change wins at least nine tenths of
                them (ties count for neither side), the medians differ by
                more than the distance between the parent's quartiles, and
                the change failed no more operations than the parent;
``unresolved``  the parent's own run-to-run spread exceeds the metric's
                bound, and not every change run beats every parent run;
``regressed``   the change's median is worse than the parent's by more than
                the bound ``BENCHMARK.json`` fixes for the metric;
``unchanged``   otherwise.

Per-layer metrics and phase walls have no bound in ``BENCHMARK.json``;
phase walls are held to 0.25 and per-layer metrics are never ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
PHASE_BOUND = 0.25


def declared() -> dict[str, tuple[str, float | None]]:
    """metric -> (better, bound) from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return out


def values(record: dict) -> dict[str, tuple[float, str]]:
    """Every comparable number of one result file: metrics and phase walls."""
    out = {name: (m["value"], m["unit"]) for name, m in record["metrics"].items()}
    for phase in record.get("phases", []):
        out[f"phase.{phase['name']}.wall_s"] = (phase["wall_s"], "s")
    return out


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None,
            more_failures: bool) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, median_p, q3 = quartiles(parent)
    median_c = statistics.median(change)
    gain = sign * (median_c - median_p)
    clean_sweep = min(sign * c for c in change) > max(sign * p for p in parent)
    if (len(parent) >= MIN_PAIRS and wins >= 0.9 * (wins + losses) and wins > 0
            and gain > q3 - q1):
        return ("improved" if not more_failures else "not counted: more failures"), wins
    if bound is not None and median_p and (q3 - q1) / abs(median_p) > bound and not clean_sweep:
        return "unresolved", wins
    if bound is not None and median_p and -gain / abs(median_p) > bound:
        return "regressed", wins
    return "unchanged", wins


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides: dict[str, tuple[list[dict], list[dict]]] = {}
    for i, name in enumerate(argv):
        record = json.loads(Path(name).read_text())
        sides.setdefault(record["workload"], ([], []))[i % 2].append(record)
    metrics = declared()
    status = 0
    print(f"{'workload':13s} {'metric':42s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'change/parent':>24s} {'won':>6s}  verdict")
    for workload, (parents, changes) in sides.items():
        pairs = min(len(parents), len(changes))
        if pairs < MIN_PAIRS:
            print(f"# {workload}: {pairs} pairs; no gain can be claimed on fewer than {MIN_PAIRS}")
        noisy = sum(r["stamp"]["noisy"] for r in parents + changes)
        if noisy:
            print(f"# {workload}: {noisy} of {len(parents) + len(changes)} runs were marked noisy")
        if any(r["stamp"]["quick"] for r in parents + changes):
            print(f"# {workload}: --quick runs are not for comparison")
        failed_p = sum(r["failed"] for r in parents[:pairs])
        failed_c = sum(r["failed"] for r in changes[:pairs])
        print(f"# {workload}: failed operations parent {failed_p}, change {failed_c}")
        columns_p = [values(r) for r in parents[:pairs]]
        columns_c = [values(r) for r in changes[:pairs]]
        for metric in columns_p[0]:
            if not all(metric in col for col in columns_p + columns_c):
                continue
            unit = columns_p[0][metric][1]
            better, bound = metrics.get(metric, ("lower", PHASE_BOUND))
            p = [col[metric][0] for col in columns_p]
            c = [col[metric][0] for col in columns_c]
            word, wins = verdict(p, c, better, bound, failed_c > failed_p)
            status = status or (word == "regressed")
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            ratio = f"{cm / pm:.4f} of {pm:.5g} {unit}" if pm else "parent median is 0"
            print(f"{workload:13s} {metric:42s} {f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>36s} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>36s} {ratio:>24s} {wins:3d}/{pairs:<2d}  {word}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
