"""Smoke tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.model == "adult_head"
        assert args.kernel == "vector"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "bone"])

    def test_run_reduction_flags(self):
        args = build_parser().parse_args(["run"])
        assert args.retain_task_tallies is True
        assert args.compress is False
        args = build_parser().parse_args(
            ["run", "--no-retain-task-tallies", "--compress"]
        )
        assert args.retain_task_tallies is False
        assert args.compress is True

    def test_serve_retain_flag(self):
        args = build_parser().parse_args(["serve", "--no-retain-task-tallies"])
        assert args.retain_task_tallies is False

    def test_span_and_sub_batch_flags(self):
        for command in ("run", "serve"):
            args = build_parser().parse_args([command])
            assert args.span_size is None
            assert args.sub_batch is None
            args = build_parser().parse_args(
                [command, "--span-size", "8", "--sub-batch", "256"]
            )
            assert args.span_size == 8
            assert args.sub_batch == 256

    def test_serve_http_defaults(self):
        args = build_parser().parse_args(["serve-http"])
        assert args.port == 8080
        assert args.store == "tally-store"
        assert args.job_workers == 2
        assert args.timeout is None


#: ``run`` / ``serve`` options -> (default, choices, nargs, const), as the
#: flags stood before they were derived from the request schema.
_MODELS = ("white_matter", "adult_head", "neonatal_head")
_SHARED = {
    "--model": ("adult_head", _MODELS, None, None),
    "--seed": (0, None, None, None),
    "--task-size": (10000, None, None, None),
    "--span-size": (None, None, None, None),
    "--sub-batch": (None, None, None, None),
    "--checkpoint": (None, None, None, None),
    "--resume": (False, None, 0, True),
    "--task-deadline": (None, None, None, None),
    "--no-retain-task-tallies": (True, None, 0, False),
    "--compress": (False, None, 0, True),
    "--metrics": (None, None, None, None),
    "--progress": (False, None, 0, True),
}
OPTIONS = {
    "run": dict(
        _SHARED,
        **{
            "--photons": (20000, None, None, None),
            "--kernel": ("vector", ("vector", "scalar"), None, None),
            "--boundary-mode": ("probabilistic", ("probabilistic", "classical"), None, None),
            "--detector-spacing": (None, None, None, None),
            "--gate": (None, None, 2, None),
            "--workers": (1, None, None, None),
            "--backend": ("auto", ("auto", "serial", "thread", "process"), None, None),
            "--task-range": (None, None, 2, None),
            "--capture-frontier": (False, None, 0, True),
            "--capture-paths": (False, None, 0, True),
            "--extend-from": (None, None, None, None),
            "--save": (None, None, None, None),
        },
    ),
    "serve": dict(
        _SHARED,
        **{
            "--photons": (100000, None, None, None),
            "--host": ("127.0.0.1", None, None, None),
            "--port": (0, None, None, None),
            "--timeout": (3600.0, None, None, None),
            "--heartbeat-timeout": (30.0, None, None, None),
        },
    ),
}


class TestRequestFlags:
    """The run/serve flags are derived from the request schema."""

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_options_and_defaults_are_pinned(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.choices and command in a.choices)
        actual = {
            action.option_strings[0]: (
                action.default, action.choices and tuple(action.choices),
                action.nargs, action.const,
            )
            for action in sub.choices[command]._actions
            if action.option_strings != ["-h", "--help"]
        }
        assert actual == OPTIONS[command]

    def _request(self, monkeypatch, argv):
        """The RunRequest ``main(argv)`` hands to ``api.run``."""
        import repro.api

        seen = []

        def capture(request):
            seen.append(request)
            raise KeyboardInterrupt  # stop before anything runs

        monkeypatch.setattr(repro.api, "run", capture)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        return seen[0]

    @pytest.mark.parametrize("model", _MODELS)
    def test_serve_and_run_build_the_same_physics(self, monkeypatch, model):
        from repro.service import physics_fingerprint, request_fingerprint

        flags = ["--model", model, "--photons", "3000", "--seed", "4",
                 "--task-size", "500"]
        run = self._request(monkeypatch, ["run", *flags])
        serve = self._request(monkeypatch, ["serve", *flags, "--heartbeat-timeout", "0"])
        assert serve.mode == "serve" and serve.heartbeat_timeout is None
        assert physics_fingerprint(serve) == physics_fingerprint(run)
        assert request_fingerprint(serve) == request_fingerprint(run)

    def test_serve_default_physics_matches_run(self, monkeypatch):
        from repro.service import physics_fingerprint

        serve = self._request(monkeypatch, ["serve"])
        assert physics_fingerprint(serve) == (
            "10ccda4c05a0b259ce699ab3f241bd70462fded4c4ed0a50a51a373a9a4d3fff"
        )
        assert serve.n_photons == 100_000

    def test_bad_flag_value_refused_before_running(self, monkeypatch):
        with pytest.raises(ValueError, match="task_size"):
            self._request(monkeypatch, ["run", "--task-size", "0"])


class TestCommands:
    def test_run_white_matter(self, capsys):
        code = main([
            "run", "--model", "white_matter", "--photons", "300",
            "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "diffuse_reflectance" in out
        assert "energy_balance" in out

    def test_run_with_detector_gate_and_save(self, tmp_path, capsys):
        out_file = tmp_path / "tally.npz"
        code = main([
            "run", "--model", "white_matter", "--photons", "300",
            "--detector-spacing", "2.0", "--gate", "0", "50",
            "--save", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        from repro.io import load_tally

        tally = load_tally(out_file)
        assert tally.n_launched == 300

    def test_run_distributed(self, capsys):
        code = main([
            "run", "--model", "white_matter", "--photons", "400",
            "--workers", "2", "--task-size", "200",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "distributed over 2 workers" in out

    def test_speedup(self, capsys):
        code = main(["speedup", "--max-k", "10", "--photons", "10000000",
                     "--task-size", "100000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "efficiency" in out

    def test_table2(self, capsys):
        code = main(["table2", "--photons", "100000000", "--dedicated"])
        out = capsys.readouterr().out
        assert code == 0
        assert "150 machines" in out
        assert "P4 2.4GHz" in out

    def test_head(self, capsys):
        code = main(["head", "--photons", "500", "--spacing", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "white_matter" in out

    def test_banana(self, capsys, tmp_path):
        pgm = tmp_path / "b.pgm"
        code = main([
            "banana", "--photons", "1500", "--spacing", "2.5",
            "--granularity", "16", "--pgm", str(pgm),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "banana" in out
        assert pgm.exists()

    def test_serve_and_client(self, capsys):
        """End-to-end TCP run through the CLI entry points."""
        import threading

        from repro.core import SimulationConfig
        from repro.distributed import NetworkServer
        from repro.sources import PencilBeam
        from repro.tissue import white_matter

        # Start a tiny server directly (the CLI path for 'serve' blocks),
        # then drive the 'client' subcommand against it.
        config = SimulationConfig(stack=white_matter(), source=PencilBeam())
        server = NetworkServer(config, n_photons=300, seed=1, task_size=100).start()
        client = threading.Thread(
            target=main, args=(["client", "--port", str(server.port)],), daemon=True
        )
        client.start()
        report = server.wait(timeout=120)
        client.join(timeout=30)
        assert report.tally.n_launched == 300
        out = capsys.readouterr().out
        assert "completed" in out

    def test_fit(self, capsys):
        code = main(["fit", "--photons", "30000", "--mu-a", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered" in out


class TestCheckpointCli:
    def run_args(self, ck_dir):
        return [
            "run", "--model", "white_matter", "--photons", "300",
            "--task-size", "100", "--seed", "1", "--checkpoint", str(ck_dir),
        ]

    def test_checkpoint_recorded_then_resumed(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(self.run_args(ck)) == 0
        assert "checkpoint" in capsys.readouterr().out
        assert (ck / "checkpoint.json").exists()

        # Re-running over an existing checkpoint without --resume is refused
        # (it would silently extend a different invocation's run).
        with pytest.raises(SystemExit, match="--resume"):
            main(self.run_args(ck))

        # With --resume everything is already recorded: instant completion.
        assert main(self.run_args(ck) + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "3 tasks recorded" in out

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["run", "--model", "white_matter", "--photons", "100", "--resume"])

    def test_task_deadline_flag(self, capsys):
        code = main([
            "run", "--model", "white_matter", "--photons", "200",
            "--workers", "2", "--task-size", "100", "--task-deadline", "30",
        ])
        assert code == 0
        assert "distributed over 2 workers" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_run_with_metrics_and_backend(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "events.jsonl"
        code = main([
            "run", "--model", "white_matter", "--photons", "200",
            "--seed", "1", "--task-size", "100",
            "--backend", "thread", "--workers", "2",
            "--metrics", str(metrics),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry events written" in out
        assert "photons.traced" in out  # final metrics block
        events = [json.loads(line) for line in metrics.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "metrics"
        times = [e["t"] for e in events]
        assert times == sorted(times)

    def test_run_progress_flag(self, capsys):
        code = main([
            "run", "--model", "white_matter", "--photons", "200",
            "--seed", "1", "--task-size", "100", "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "2/2" in captured.err  # progress bar on stderr

    def test_save_embeds_provenance(self, tmp_path):
        out_file = tmp_path / "tally.npz"
        code = main([
            "run", "--model", "white_matter", "--photons", "200",
            "--seed", "6", "--save", str(out_file),
        ])
        assert code == 0
        from repro.io import load_tally

        tally = load_tally(out_file)
        assert tally.provenance["model"] == "white_matter"
        assert tally.provenance["seed"] == 6
        assert tally.provenance["n_photons"] == 200

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "gpu"])


class TestServiceCli:
    def test_run_with_no_retain_task_tallies(self, capsys):
        code = main([
            "run", "--model", "white_matter", "--photons", "400",
            "--workers", "2", "--backend", "thread", "--task-size", "200",
            "--no-retain-task-tallies",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "diffuse_reflectance" in out

    def test_save_embeds_request_fingerprint(self, tmp_path):
        out_file = tmp_path / "tally.npz"
        code = main([
            "run", "--model", "white_matter", "--photons", "200",
            "--seed", "6", "--save", str(out_file),
        ])
        assert code == 0
        from repro.api import RunRequest
        from repro.io import load_tally
        from repro.service import request_fingerprint

        expected = request_fingerprint(
            RunRequest(model="white_matter", n_photons=200, seed=6, task_size=10_000)
        )
        tally = load_tally(out_file, expected_fingerprint=expected)
        assert tally.provenance["fingerprint"] == expected
        with pytest.raises(ValueError, match="different request"):
            load_tally(out_file, expected_fingerprint="0" * 64)

    def test_serve_http_runs_and_exits(self, tmp_path, capsys):
        code = main([
            "serve-http", "--port", "0", "--store", str(tmp_path / "store"),
            "--timeout", "0.2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "simulation service listening on http://127.0.0.1:" in out
        assert "result store" in out
