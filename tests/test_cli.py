"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.__main__ import _serve_config, build_parser, main
from repro.serving.config import _BACKENDS, ClusterConfig, ServerConfig

COMMANDS = ["list", "run", "monitor", "serve", "cluster", "client", "replay",
            "trace", "report"]


def _subparsers() -> dict:
    """Command name -> its subparser, in ``--help`` order."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _option(command: str, dest: str) -> argparse.Action:
    """The ``dest`` argument of ``python -m repro <command>``."""
    return next(a for a in _subparsers()[command]._actions if a.dest == dest)


class TestParser:
    def test_commands_registered(self):
        assert list(_subparsers()) == COMMANDS
        parser = build_parser()
        for argv in (["list"], ["run", "--app", "fft"], ["report"],
                     ["cluster"], ["trace", "--log", "f"]):
            assert parser.parse_args(argv).command == argv[0]

    def test_run_requires_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "doom"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", ["summary", "survey"])
    def test_deleted_commands_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    @pytest.mark.parametrize("argv", [
        ["serve", "--app", "fft", "--elements", "0"],
        ["run", "--app", "fft", "--elements", "-3"],
        ["client", "--connect", "h:1", "--elements", "0"],
        ["trace", "--log", "f", "--tail", "-1"],
    ])
    def test_out_of_range_counts_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err


class TestConfigDefaults:
    """The serve and cluster flags default to the config leaves they set."""

    def test_serve_defaults_build_the_default_config(self):
        args = build_parser().parse_args(["serve", "--app", "fft"])
        assert _serve_config(args) == ServerConfig(app="fft")

    def test_cluster_defaults_build_the_default_config(self, monkeypatch):
        import repro.serving as serving

        class Built(Exception):
            pass

        class Fleet:
            addresses = ["127.0.0.1:1", "127.0.0.1:2"]

            def stop(self):
                pass

        spawned = {}

        def spawn(n, **kwargs):
            spawned.update(kwargs, n=n)
            return Fleet()

        def serve_cluster(addresses, config, **_):
            raise Built(config)

        monkeypatch.setattr(serving, "spawn_local_fleet", spawn)
        monkeypatch.setattr(serving, "serve_cluster", serve_cluster)
        with pytest.raises(Built) as built:
            main(["cluster"])
        assert built.value.args[0] == ClusterConfig()
        default = ServerConfig()
        assert (spawned["app"], spawned["scheme"]) == (default.app,
                                                       default.scheme)

    def test_backend_choices_are_the_configs(self):
        assert _option("serve", "backend").choices is _BACKENDS
        assert tuple(_option("replay", "backend").choices) == ("", *_BACKENDS)


class TestErrors:
    """A bad value the parser cannot check ends in one stderr line and
    exit status 2, not a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["serve", "--app", "fft", "--workers", "0"],
         "n_workers must be >= 1"),
        (["report", "--apps", "doom"], "unknown application 'doom'"),
    ])
    def test_error_is_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {message}")
        assert err.count("\n") == 1


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out and "9->8->1" in out

    def test_run_fft(self, capsys):
        assert main(["run", "--app", "fft", "--elements", "1000"]) == 0
        out = capsys.readouterr().out
        assert "Rumba error" in out
        assert "energy savings" in out


class TestMonitor:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["monitor", "--app", "sobel"])
        assert args.command == "monitor"
        assert args.invocations == 20
        assert args.export == ""

    def test_monitor_requires_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["monitor"])

    def test_monitor_exports_prometheus(self, capsys, tmp_path):
        export = str(tmp_path / "metrics.prom")
        trace = str(tmp_path / "invocations.flight")
        assert main([
            "monitor", "--app", "fft", "--invocations", "3",
            "--elements", "400", "--export", export, "--trace", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "fire rate" in out
        with open(export) as handle:
            text = handle.read()
        assert "# TYPE rumba_fire_rate gauge" in text
        assert "rumba_invocation_latency_seconds_bucket" in text
        assert "rumba_phase_spans_total" in text
        from repro.observability import read_flight_log
        from repro.observability.reqtrace import segments

        records = read_flight_log(trace)
        assert [r["request_id"] for r in records] == [1, 2, 3]
        for record in records:
            assert record["elements"] == 400
            assert [stage for stage, _ in record["stages"]] == [
                "invoke", "compute", "detect", "recover", "tune"
            ]
            assert sum(d for _, d in segments(record["stages"])) == \
                pytest.approx(record["latency_s"])
        # The log is the format ``trace`` reads: aggregate and waterfall.
        assert main(["trace", "--log", trace]) == 0
        out = capsys.readouterr().out
        assert "3 flight records" in out
        assert all(stage in out for stage in ("compute", "detect",
                                              "recover", "tune"))
        assert main(["trace", "2", "--log", trace]) == 0
        assert "covers 100.0% of end-to-end latency" in capsys.readouterr().out

    def test_run_with_telemetry_snapshot(self, capsys, tmp_path):
        snapshot = str(tmp_path / "telemetry.json")
        assert main([
            "run", "--app", "fft", "--elements", "500",
            "--telemetry", snapshot,
        ]) == 0
        import json

        with open(snapshot) as handle:
            data = json.load(handle)
        assert "rumba_invocations_total" in data["metrics"]


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--app", "fft"])
        assert args.command == "serve"
        assert args.workers == 2
        assert not hasattr(args, "recovery_workers")
        assert args.requests == 100
        assert args.batch_requests == 8
        assert args.export == ""

    def test_serve_requires_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize("flag", [
        "--recovery-workers", "--recovery-capacity",
    ])
    def test_recovery_pool_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--app", "fft", flag, "1"])

    def test_serve_session(self, capsys, tmp_path):
        snapshot = str(tmp_path / "serve.json")
        assert main([
            "serve", "--app", "fft", "--requests", "16", "--workers", "2",
            "--elements", "64", "--flush-ms", "2", "--export", snapshot,
        ]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "throughput" in out
        assert "w0" in out and "w1" in out
        import json

        with open(snapshot) as handle:
            data = json.load(handle)
        assert "rumba_serve_requests_total" in data["metrics"]
