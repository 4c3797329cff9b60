"""Unit tests for the CLI."""

import pytest

from repro.cli import build_parser, build_workload, main
from repro.datasets.nyu import build_nyu


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "table2", "table9", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.seed == 7
        assert args.nyu_scale == 0.05

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table42"])

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["table4", "--epochs", "3", "--train-pairs", "99", "--nyu-scale", "0.02"]
        )
        assert args.epochs == 3
        assert args.train_pairs == 99
        assert args.nyu_scale == pytest.approx(0.02)

    def test_engine_flags_parsed(self):
        args = build_parser().parse_args(
            ["engine", "--workers", "4", "--backend", "process", "--no-cache", "--timings"]
        )
        assert args.workers == 4
        assert args.backend == "process"
        assert args.no_cache is True
        assert args.timings is True

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.workers is None  # falls back to REPRO_WORKERS / sequential
        assert args.no_cache is False
        assert args.timings is False

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--backend", "fibers"])

    def test_fault_tolerance_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "engine",
                "--max-attempts", "3",
                "--chunk-timeout", "2.5",
                "--max-failures", "10",
                "--fail-fast",
                "--fallback", "most-frequent",
                "--fault-rate", "0.1",
                "--fault-seed", "42",
            ]
        )
        assert args.max_attempts == 3
        assert args.chunk_timeout == pytest.approx(2.5)
        assert args.max_failures == 10
        assert args.fail_fast is True
        assert args.fallback == "most-frequent"
        assert args.fault_rate == pytest.approx(0.1)
        assert args.fault_seed == 42

    def test_fault_tolerance_flag_defaults(self):
        args = build_parser().parse_args(["engine"])
        assert args.max_attempts is None
        assert args.chunk_timeout is None
        assert args.max_failures is None
        assert args.fail_fast is False
        assert args.fallback is None
        assert args.fault_rate == 0.0

    def test_rejects_unknown_fallback(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--fallback", "guesswork"])


class TestServingFlags:
    def test_serve_command_known(self):
        assert build_parser().parse_args(["serve"]).command == "serve"

    def test_serving_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--pipeline", "shape-only",
                "--requests", "64",
                "--clients", "16",
                "--max-batch-size", "16",
                "--max-wait-ms", "1.5",
                "--max-queue-depth", "99",
                "--deadline-ms", "40",
                "--fallback", "most-frequent",
                "--workers", "2",
                "--store-dir", "store",
            ]
        )
        assert args.pipeline == "shape-only"
        assert args.requests == 64
        assert args.clients == 16
        assert args.max_batch_size == 16
        assert args.max_wait_ms == pytest.approx(1.5)
        assert args.max_queue_depth == 99
        assert args.deadline_ms == pytest.approx(40.0)
        assert args.fallback == "most-frequent"
        assert args.workers == 2
        assert args.store_dir == "store"

    def test_serving_flag_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.pipeline == "hybrid"
        assert args.requests == 120
        assert args.clients == 32
        # None means "fall back to REPRO_SERVE_* / ServingSettings defaults".
        assert args.max_batch_size is None
        assert args.max_wait_ms is None
        assert args.max_queue_depth is None
        assert args.deadline_ms is None
        assert args.serve is False

    def test_rejects_unknown_serving_pipeline(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--pipeline", "telepathy"])


class TestMain:
    def test_table1_prints(self, capsys):
        code = main(["table1", "--nyu-scale", "0.005"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Chair" in out and "Total" in out
        assert "82" in out and "100" in out


class TestEngineCommand:
    def test_engine_smoke_with_workers_and_timings(self, capsys):
        # A 4-query synthetic run exercising the parallel path end to end.
        code = main(
            ["engine", "--refs", "12", "--queries", "4", "--workers", "2", "--timings"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "TIMINGS" in out
        assert "accuracy" in out
        assert "workers=2" in out

    def test_engine_smoke_without_cache(self, capsys):
        code = main(["engine", "--refs", "8", "--queries", "4", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        # With caching disabled every run reports a 0% hit rate.
        assert "cache=off" in out
        assert "cache hit rate 0%" in out


class TestEngineFaultTolerance:
    def test_fault_injection_reports_failures(self, capsys):
        code = main(
            [
                "engine",
                "--refs", "8",
                "--queries", "6",
                "--fault-rate", "0.4",
                "--fault-seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== FAILURES ==" in out
        assert "InjectedFault" in out
        assert "failed" in out  # the RunStats summary counts them

    def test_fallback_degrades_instead_of_failing(self, capsys):
        code = main(
            [
                "engine",
                "--refs", "8",
                "--queries", "6",
                "--fault-rate", "0.4",
                "--fault-seed", "3",
                "--fallback", "most-frequent",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fallback(" in out
        assert "(no failures)" in out
        assert "degraded" in out

    def test_max_failures_aborts_cleanly(self, capsys):
        code = main(
            [
                "engine",
                "--refs", "8",
                "--queries", "6",
                "--fault-rate", "0.4",
                "--fault-seed", "3",
                "--max-failures", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ABORTED" in out

    def test_clean_run_shows_no_failures(self, capsys):
        code = main(["engine", "--refs", "8", "--queries", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(no failures)" in out


class TestPatrol:
    def test_patrol_prints_summary(self, capsys):
        code = main(["patrol", "--nyu-scale", "0.005", "--objects-per-room", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "patrol:" in out
        assert "semantic map:" in out
        assert "Q:" in out and "A:" in out

    def test_patrol_through_service(self, capsys):
        code = main(
            [
                "patrol",
                "--serve",
                "--nyu-scale", "0.005",
                "--objects-per-room", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "patrol:" in out
        assert "serving:" in out  # service report line appended


class TestServeCommand:
    def test_serve_smoke(self, capsys):
        code = main(
            [
                "serve",
                "--pipeline", "most-frequent",
                "--nyu-scale", "0.005",
                "--requests", "8",
                "--clients", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serve: serving(most-frequent) ready" in out
        assert "8/8 served" in out
        assert "accuracy" in out


class TestBuildWorkload:
    def test_seeded_and_deterministic(self, config):
        first = build_workload(config, requests=10)
        second = build_workload(config, requests=10)
        assert [item.view_id for item in first] == [item.view_id for item in second]

    def test_cycles_when_requests_exceed_the_set(self, config):
        crops = len(build_nyu(config))
        workload = build_workload(config, requests=crops + 5)
        assert len(workload) == crops + 5
