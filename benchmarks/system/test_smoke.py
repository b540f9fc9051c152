"""Smoke test of the system benchmark (``pytest benchmarks/system``; ~90 s).

Not part of the tier-1 suite (``testpaths = ["tests"]``).  Checks that
``BENCHMARK.json`` stays inside the contract's limits, that ``--quick`` runs
emit every metric it names, that each per-layer metric says what it should
move, and that a perturbed tally makes the run exit non-zero.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def names(section: str) -> list[str]:
    return [entry["name"] for entry in BENCH[section]]


def quick(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_inside_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/system"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert tuple(names("workloads")) == run.WORKLOAD_NAMES
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    assert all(NAME.fullmatch(name) for name in every)
    for entry in BENCH["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in BENCH["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCH["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in BENCH["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in BENCH["end_to_end"])


def test_each_per_layer_metric_names_what_it_should_move():
    run.import_repro()
    import probes

    assert {e["name"]: (e["unit"], e["better"]) for e in BENCH["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in probes.MOVES.items()
    }
    for name, (_, _, (metric, workload)) in probes.MOVES.items():
        assert metric in names("end_to_end") + ["none"], name
        assert workload in names("workloads") + ["all", "none"], name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_quick_run_emits_every_end_to_end_metric(workload):
    code, result = quick(workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == names("end_to_end")
    units = {e["name"]: e["unit"] for e in BENCH["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    code, result = quick("sweep_derive", trace=1)
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(names("per_layer"))
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert result["metrics"]["trace.overhead_ratio"]["value"] <= 1.03


def test_a_perturbed_tally_fails_the_run(monkeypatch, capsys):
    run.import_repro()
    import workloads

    simulate = workloads.ColdHead.simulate

    def corrupted(self):
        report = simulate(self)
        report.tally.diffuse_reflectance_weight *= 1.5
        return report

    monkeypatch.setattr(workloads.ColdHead, "simulate", corrupted)
    code = run.main(["--workload", "cold_head", "--seed", "5", "--seconds", "20", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and not result["correct"] and result["failed"] >= 1


def test_outside_a_full_checkout_the_run_refuses(tmp_path):
    bench = tmp_path / "benchmarks" / "system"
    bench.mkdir(parents=True)
    for source in run.HERE.glob("*.py"):
        (bench / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    done = subprocess.run(
        [sys.executable, "benchmarks/system/run.py", "--workload", "cold_head", "--seed", "1",
         "--seconds", "20", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()
