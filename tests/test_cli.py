"""Command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestColdStart:
    def test_import_loads_no_scipy(self):
        # scipy is imported inside the functions that use it, so commands
        # that need none of them (list, serve) start on numpy alone.
        code = (
            "import repro, repro.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.stdout.strip() == "[]"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "TAB1" in output and "FIG12" in output and "ABL3" in output

    def test_list_prints_titles_not_module_names(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        # real experiment titles, not module filenames
        assert "token and bubble propagation (paper Fig. 4)" in output
        assert "fault-injection campaign over the supervised runtime" in output
        assert "fig04_propagation" not in output
        assert "ext10_fault_recovery" not in output

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        output = capsys.readouterr().out
        assert "lut_delay_ps" in output
        assert "charlie_penalty_ps_L96" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "FIG4"]) == 0
        output = capsys.readouterr().out
        assert "[FIG4]" in output
        assert "PASS" in output

    def test_run_multiple(self, capsys):
        assert main(["run", "FIG4", "FIG7"]) == 0
        output = capsys.readouterr().out
        assert "[FIG4]" in output and "[FIG7]" in output

    def test_run_backend_flag(self, capsys):
        # One simulation engine: the old --backend flag is a usage error.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "FIG11", "--backend", "batch"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_run_backend_rejects_unknown_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "FIG11", "--backend", "gpu"])

    def test_campaign_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "iro:3", "--periods", "256", "--backend", "batch"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_campaign_backend_matches_event_rows_for_iro(self, capsys, monkeypatch):
        # The campaign's IRO rows are bit-identical to a run whose segments
        # go through the per-event oracle instead of the batch kernel.
        from repro.rings.iro import InverterRingOscillator

        args = [
            "campaign", "iro:3", "--periods", "256", "--boards", "2", "--json",
            "--no-cache",
        ]
        assert main(args) == 0
        kernel = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(
            InverterRingOscillator, "simulate", InverterRingOscillator.simulate_reference
        )
        assert main(args) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert kernel == oracle

    def test_run_unknown_id(self):
        with pytest.raises(KeyError):
            main(["run", "FIG99"])

    def test_report(self, capsys):
        assert main(["report", "--periods", "256", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "delta F" in output
        assert "STR more robust to voltage" in output


class TestFaultsCommand:
    def test_brownout_failover(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--fault",
                    "brownout",
                    "--severity",
                    "0.95",
                    "--seed",
                    "11",
                    "--bits",
                    "6144",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "voltage_brownout" in output
        assert "alarm" in output and "failover" in output
        assert "final state:       online" in output

    def test_stuck_no_backup_total_failure(self, capsys):
        assert (
            main(
                ["faults", "--fault", "stuck", "--no-backup", "--seed", "7"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "total_failure" in output
        assert "backups: none" in output

    def test_demo_schedule_runs(self, capsys):
        assert main(["faults", "--bits", "4096"]) == 0
        output = capsys.readouterr().out
        assert "demo_composite" in output
        assert "startup" in output and "online" in output

    def test_matrix_mode(self, capsys):
        assert main(["faults", "--matrix"]) == 0
        output = capsys.readouterr().out
        assert "[EXT10]" in output
        assert "deepest recovery" in output

    def test_matrix_jobs_no_cache_round_trip(self, capsys):
        assert main(["faults", "--matrix", "--jobs", "2", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["faults", "--matrix", "--no-cache"]) == 0
        assert capsys.readouterr().out == serial


class TestRunParallelFlags:
    def test_jobs_no_cache_round_trip(self, capsys):
        assert main(["run", "TAB2", "--json", "--jobs", "2", "--no-cache"]) == 0
        parallel = capsys.readouterr().out
        assert main(["run", "TAB2", "--json"]) == 0
        assert capsys.readouterr().out == parallel

    def test_flags_ignored_by_non_grid_experiments(self, capsys):
        # FIG4 takes neither jobs nor cache; the flags must be inert.
        assert main(["run", "FIG4", "--jobs", "4"]) == 0
        assert "[FIG4]" in capsys.readouterr().out

    def test_run_populates_default_cache(self, capsys, tmp_path, monkeypatch):
        from repro.parallel import ResultCache
        from repro.parallel.cache import ENV_CACHE_DIR

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cli_cache"))
        assert main(["run", "FIG8", "--json"]) == 0
        capsys.readouterr()
        assert ResultCache().stats().entry_count == 0  # analytic path: no grid tasks
        assert main(["faults", "--matrix"]) == 0
        capsys.readouterr()
        assert ResultCache().stats().entry_count > 0


class TestCampaignCommand:
    def test_explicit_specs(self, capsys):
        assert main(["campaign", "iro:3", "str:8", "--periods", "192"]) == 0
        output = capsys.readouterr().out
        assert "IRO 3C" in output and "STR 8C" in output
        assert "sigma_p [ps]" in output

    def test_default_grid_is_table2(self, capsys):
        assert main(["campaign", "--periods", "128", "--boards", "3"]) == 0
        output = capsys.readouterr().out
        for label in ("IRO 3C", "IRO 5C", "STR 4C", "STR 96C"):
            assert label in output

    def test_parallel_json_round_trip(self, capsys):
        argv = ["campaign", "iro:3", "str:8", "--periods", "192", "--json"]
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(argv + ["--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert parallel == serial

    def test_token_count_spec(self, capsys):
        assert main(["campaign", "str:16:6", "--periods", "128"]) == 0
        assert "STR 16C" in capsys.readouterr().out

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "ring:5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "iro:five"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "iro"])


class TestCacheCommand:
    def test_stats_then_clear(self, capsys):
        assert main(["campaign", "iro:3", "--periods", "128"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        stats = capsys.readouterr().out
        assert "cache root:" in stats
        assert "entries:        0" not in stats
        assert "session hits:" in stats
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:        0" in capsys.readouterr().out

    def test_explicit_dir(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path / "elsewhere")]) == 0
        output = capsys.readouterr().out
        assert "elsewhere" in output
        assert "entries:        0" in output

    def test_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestTelemetryFlags:
    def test_trace_writes_valid_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        assert main(["run", "FIG4", "--trace", str(trace)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines() if line]
        types = {record["type"] for record in records}
        assert "span" in types
        assert "metrics" in types  # final registry snapshot is appended
        spans = [r for r in records if r["type"] == "span"]
        experiment = next(r for r in spans if r["name"] == "experiment")
        assert experiment["attrs"]["id"] == "FIG4"
        assert experiment["status"] == "ok"

    def test_metrics_flag_prints_totals(self, capsys):
        assert main(["run", "FIG4", "--metrics"]) == 0
        output = capsys.readouterr().out
        assert "metric totals:" in output
        assert "repro.experiments.runs" in output

    def test_campaign_trace_has_grid_spans(self, capsys, tmp_path):
        trace = tmp_path / "campaign.jsonl"
        assert main(
            ["campaign", "iro:3", "--periods", "128", "--no-cache",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines() if line]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"campaign", "run_grid", "grid_point"} <= names

    def test_trace_summarize_renders(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        assert main(["run", "FIG4", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "records" in output
        assert "experiment" in output

    def test_trace_summarize_missing_file_fails(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "absent.jsonl")]) == 1
        assert capsys.readouterr().err != ""

    def test_trace_summarize_bad_json_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summarize", str(bad)]) == 1
        assert ":1:" in capsys.readouterr().err


class TestTraceSummarizeErrorPaths:
    def test_empty_trace_is_not_an_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_blank_lines_only_counts_zero_records(self, capsys, tmp_path):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n  \n")
        assert main(["trace", "summarize", str(blank)]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_directory_instead_of_file_fails_gracefully(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path)]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_non_object_record_fails_with_line_number(self, capsys, tmp_path):
        bad = tmp_path / "array.jsonl"
        bad.write_text('{"type": "event", "name": "x"}\n[1, 2, 3]\n')
        assert main(["trace", "summarize", str(bad)]) == 1
        err = capsys.readouterr().err
        assert ":2:" in err and "objects" in err

    def test_corrupt_mid_file_json_reports_its_line(self, capsys, tmp_path):
        bad = tmp_path / "truncated.jsonl"
        bad.write_text('{"type": "event", "name": "x"}\n{"type": "span", "nam\n')
        assert main(["trace", "summarize", str(bad)]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_malformed_metrics_record_fails_gracefully(self, capsys, tmp_path):
        bad = tmp_path / "metrics.jsonl"
        bad.write_text('{"type": "metrics", "metrics": {"counters": [1, 2]}}\n')
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "malformed metrics record (record 1)" in capsys.readouterr().err

    def test_metrics_record_with_broken_histogram_fails_gracefully(
        self, capsys, tmp_path
    ):
        bad = tmp_path / "histo.jsonl"
        bad.write_text(
            '{"type": "metrics", "metrics": {"histograms": {"h": {"edges": [1.0]}}}}\n'
        )
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "malformed metrics record" in capsys.readouterr().err


class TestCacheCommandErrorPaths:
    def test_stats_on_missing_dir_reports_empty(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path / "nowhere")]) == 0
        assert "entries:        0" in capsys.readouterr().out

    def test_stats_on_a_file_path_reports_empty(self, capsys, tmp_path):
        file_path = tmp_path / "not_a_dir"
        file_path.write_text("hello")
        assert main(["cache", "stats", "--dir", str(file_path)]) == 0
        assert "entries:        0" in capsys.readouterr().out

    def test_clear_on_missing_dir_removes_nothing(self, capsys, tmp_path):
        assert main(["cache", "clear", "--dir", str(tmp_path / "nowhere")]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_stats_ignores_foreign_files(self, capsys, tmp_path):
        # Non-shard junk in the cache root must not crash or be counted.
        root = tmp_path / "cache"
        (root / "ab").mkdir(parents=True)
        (root / "ab" / "entry.json").write_text("{}")
        (root / "README.txt").write_text("not a shard")
        (root / "ab" / "notes.md").write_text("not an entry")
        assert main(["cache", "stats", "--dir", str(root)]) == 0
        assert "entries:        1" in capsys.readouterr().out


class TestVerifyCommand:
    # Claims whose quick-tier estimators run in well under a second.
    CHEAP = ["C6", "EXT-FAILOVER", "EXT-FAILSAFE"]

    def test_list_claims(self, capsys):
        assert main(["verify", "--list"]) == 0
        output = capsys.readouterr().out
        for claim_id in ("C1", "C7", "EQ4", "GAUSS", "EXT-FAILSAFE"):
            assert claim_id in output

    def test_cheap_claims_pass(self, capsys):
        assert main(["verify", "--claims", *self.CHEAP, "--seeds", "2"]) == 0
        output = capsys.readouterr().out
        assert "overall: PASS" in output
        assert "Wilson" in output

    def test_json_report(self, capsys):
        assert main(
            ["verify", "--claims", "C6", "--seeds", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["claims"][0]["claim_id"] == "C6"
        assert payload["claims"][0]["trials"] == 2

    def test_unknown_claim_fails_fast(self, capsys):
        assert main(["verify", "--claims", "C99"]) == 1
        assert "unknown claim" in capsys.readouterr().err

    def test_bad_injection_syntax_fails_fast(self, capsys):
        assert main(["verify", "--claims", "C6", "--inject", "nonsense"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_injected_regression_fails_and_replays(self, capsys, tmp_path):
        bundle_dir = tmp_path / "bundles"
        assert (
            main(
                [
                    "verify",
                    "--claims",
                    "C6",
                    "--seeds",
                    "1",
                    "--inject",
                    "sigma_g_scale=20.0",
                    "--inject",
                    "max_ratio=0.0001",
                    "--bundle-dir",
                    str(bundle_dir),
                ]
            )
            == 1
        )
        output = capsys.readouterr().out
        assert "overall: FAIL" in output
        bundles = sorted(bundle_dir.glob("*.json"))
        assert len(bundles) == 1
        capsys.readouterr()
        assert main(["verify", "--replay", str(bundles[0])]) == 1
        replay_out = capsys.readouterr().out
        assert "FAIL" in replay_out and "C6" in replay_out

    def test_replay_missing_bundle_fails(self, capsys, tmp_path):
        assert main(["verify", "--replay", str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_replay_corrupt_bundle_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["verify", "--replay", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_trace_flag_records_claim_spans(self, capsys, tmp_path):
        trace = tmp_path / "verify.jsonl"
        assert main(
            ["verify", "--claims", "C6", "--seeds", "1", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines() if line]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"verify_sweep", "verify_claim"} <= names
        metrics = next(r for r in records if r["type"] == "metrics")
        assert metrics["metrics"]["counters"]["repro.verify.pass"] >= 1


class TestServeCommands:
    def test_serve_parser_roundtrip(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "9999",
                "--channels",
                "iro:5",
                "str:48",
                "--min-healthy",
                "1",
                "--fault",
                "brownout",
                "--severity",
                "0.9",
                "--seed",
                "3",
            ]
        )
        assert args.port == 9999
        assert [(spec.kind, spec.stage_count) for spec in args.channels] == [
            ("iro", 5),
            ("str", 48),
        ]
        assert args.min_healthy == 1
        assert args.fault == "brownout"

    def test_serve_default_pool_and_clean_scenario(self):
        from repro.cli import _serve_scenario

        args = build_parser().parse_args(["serve"])
        assert args.channels is None  # reference pool
        assert args.port == 0  # ephemeral
        assert _serve_scenario(args) is None

    def test_serve_scenario_mapping(self):
        from repro.cli import _serve_scenario

        chaos = _serve_scenario(build_parser().parse_args(["serve", "--fault", "chaos"]))
        assert len(chaos.entries) == 2  # brownout + glitch window
        brownout = _serve_scenario(
            build_parser().parse_args(
                ["serve", "--fault", "brownout", "--severity", "0.8", "--onset", "1.5"]
            )
        )
        assert len(brownout.entries) == 1
        assert brownout.entries[0].start_s == 1.5
        assert brownout.entries[0].fault.severity == 0.8

    def test_serve_load_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-load"])

    def test_serve_chaos_drill_passes_slo(self, capsys):
        assert (
            main(
                [
                    "serve-chaos",
                    "--clients",
                    "8",
                    "--requests",
                    "4",
                    "--bytes",
                    "512",
                    "--seed",
                    "1234",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "chaos SLO" in output and "PASS" in output
        assert "unhealthy emitted:    0" in output


class TestDashCommand:
    def test_dash_parser_roundtrip(self):
        args = build_parser().parse_args(
            [
                "dash",
                "--host",
                "10.0.0.1",
                "--port",
                "9100",
                "--interval",
                "0.5",
                "--frames",
                "3",
                "--once",
            ]
        )
        assert args.host == "10.0.0.1"
        assert args.port == 9100
        assert args.interval == 0.5
        assert args.frames == 3
        assert args.once is True
        assert args.follow is None

    def test_dash_requires_exactly_one_source(self, tmp_path, capsys):
        # Neither source...
        assert main(["dash", "--once"]) == 2
        assert "exactly one source" in capsys.readouterr().err
        # ...and both at once are equally wrong.
        log = tmp_path / "obs.jsonl"
        log.write_text("")
        assert main(["dash", "--port", "9100", "--follow", str(log)]) == 2
        assert "exactly one source" in capsys.readouterr().err

    def test_dash_once_renders_a_followed_log(self, tmp_path, capsys):
        from repro.telemetry import MetricsSnapshot

        snapshot = MetricsSnapshot(
            counters={"repro.serve.bytes_served": 4096},
            gauges={"repro.serve.pool.healthy": 2.0},
        )
        log = tmp_path / "obs.jsonl"
        log.write_text(
            json.dumps({"type": "metrics", "t_s": 1.0, "metrics": snapshot.to_dict()})
            + "\n"
        )
        assert main(["dash", "--follow", str(log), "--once"]) == 0
        out = capsys.readouterr().out
        assert "4,096 bytes served" in out

    def test_dash_once_fails_cleanly_without_data(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["dash", "--follow", str(empty), "--once"]) == 1
        assert "FAIL:" in capsys.readouterr().err

    def test_serve_parser_accepts_observability_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--obs-port",
                "0",
                "--obs-interval",
                "0.2",
                "--obs-log",
                "obs.jsonl",
                "--drift",
            ]
        )
        assert args.obs_port == 0
        assert args.obs_interval == 0.2
        assert args.obs_log == "obs.jsonl"
        assert args.drift is True

    def test_serve_observability_disabled_by_default(self):
        args = build_parser().parse_args(["serve"])
        assert args.obs_port is None
        assert args.obs_log is None
        assert args.drift is False


class TestPufCommand:
    def test_enroll_smoke(self, capsys):
        assert main(["puf", "enroll", "--devices", "200", "--rings", "8"]) == 0
        output = capsys.readouterr().out
        assert "enrolled 200 devices" in output
        assert "inter-device HD" in output

    def test_score_smoke(self, capsys):
        assert main(
            ["puf", "score", "--devices", "80", "--rings", "8", "--periods", "512"]
        ) == 0
        output = capsys.readouterr().out
        assert "re-measure" in output
        assert "brownout" in output

    def test_auth_smoke(self, capsys):
        assert main(
            ["puf", "auth", "--devices", "80", "--rings", "8", "--periods", "1024"]
        ) == 0
        output = capsys.readouterr().out
        assert "EER" in output
        assert "FAR" in output

    def test_lehmer_topology_accepted(self, capsys):
        assert main(
            [
                "puf",
                "enroll",
                "--devices",
                "50",
                "--rings",
                "16",
                "--topology",
                "lehmer",
                "--group-size",
                "8",
            ]
        ) == 0
        assert "lehmer" in capsys.readouterr().out

    def test_invalid_design_fails_cleanly(self, capsys):
        assert main(
            ["puf", "enroll", "--devices", "10", "--rings", "10", "--topology", "lehmer"]
        ) == 1
        assert "multiple" in capsys.readouterr().err

    def test_verify_accepts_comma_separated_claims(self, capsys):
        assert main(["verify", "--claims", "C6,EXT-FAILSAFE", "--seeds", "2"]) == 0
        output = capsys.readouterr().out
        assert "C6" in output and "EXT-FAILSAFE" in output


class TestShardingCli:
    """--shard/--shard-dir and the merge command, happy path and errors."""

    CAMPAIGN = ["campaign", "iro:3", "--boards", "2", "--periods", "512", "--seed", "5"]

    def test_shard_out_of_range(self, capsys, tmp_path):
        rc = main(self.CAMPAIGN + ["--shard", "3/2", "--shard-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_shard_zero_count(self, capsys, tmp_path):
        rc = main(self.CAMPAIGN + ["--shard", "0/0", "--shard-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "at least 1" in capsys.readouterr().err

    def test_shard_negative_index(self, capsys, tmp_path):
        rc = main(self.CAMPAIGN + ["--shard=-1/2", "--shard-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "non-negative" in capsys.readouterr().err

    def test_shard_malformed(self, capsys, tmp_path):
        rc = main(self.CAMPAIGN + ["--shard", "nope", "--shard-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "malformed shard address" in capsys.readouterr().err

    def test_shard_requires_shard_dir(self, capsys):
        rc = main(self.CAMPAIGN + ["--shard", "0/2"])
        assert rc == 2
        assert "--shard-dir" in capsys.readouterr().err

    def test_shard_rejects_batch_backend(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                self.CAMPAIGN
                + ["--backend", "batch", "--shard", "0/2", "--shard-dir", str(tmp_path / "s")]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_shard_runs_without_backend_flag(self, capsys, tmp_path):
        rc = main(self.CAMPAIGN + ["--shard", "0/2", "--shard-dir", str(tmp_path / "s")])
        assert rc == 0
        assert "shard 0/2 complete" in capsys.readouterr().out

    def test_merge_missing_shard(self, capsys, tmp_path):
        assert main(self.CAMPAIGN + ["--shard", "0/2", "--shard-dir", str(tmp_path / "s0")]) == 0
        capsys.readouterr()
        rc = main(["merge", str(tmp_path / "s0"), "--out", str(tmp_path / "m")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing from the merge set" in err

    def test_merge_overlapping_shards(self, capsys, tmp_path):
        for index in range(2):
            assert main(
                self.CAMPAIGN
                + ["--shard", f"{index}/2", "--shard-dir", str(tmp_path / f"s{index}")]
            ) == 0
        capsys.readouterr()
        rc = main(
            ["merge", str(tmp_path / "s0"), str(tmp_path / "s0"), str(tmp_path / "s1"),
             "--out", str(tmp_path / "m")]
        )
        assert rc == 2
        assert "overlapping shards" in capsys.readouterr().err

    def test_merge_non_shard_directory(self, capsys, tmp_path):
        (tmp_path / "junk").mkdir()
        rc = main(["merge", str(tmp_path / "junk"), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "not a shard directory" in capsys.readouterr().err

    def test_run_shard_rejects_unshardable_experiment(self, capsys, tmp_path):
        rc = main(["run", "FIG4", "--shard", "0/2", "--shard-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "shardable experiment" in capsys.readouterr().err

    def test_sharded_campaign_merge_matches_single_host(self, capsys, tmp_path):
        for index in range(2):
            assert main(
                self.CAMPAIGN
                + ["--shard", f"{index}/2", "--shard-dir", str(tmp_path / f"s{index}")]
            ) == 0
        capsys.readouterr()
        assert main(
            ["merge", str(tmp_path / "s0"), str(tmp_path / "s1"),
             "--out", str(tmp_path / "m"), "--json"]
        ) == 0
        merged_json = capsys.readouterr().out
        assert main(self.CAMPAIGN + ["--json", "--no-cache"]) == 0
        single_json = capsys.readouterr().out
        assert merged_json == single_json

    def test_campaign_rerun_reports_cache_hits(self, capsys, tmp_path, monkeypatch):
        """Resume regression: the second run must say every grid point
        came from the cache, not silently recompute."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(self.CAMPAIGN) == 0
        first = capsys.readouterr().out
        assert "grid: 1 grid points: 0 cached, 1 executed" in first
        assert main(self.CAMPAIGN) == 0
        second = capsys.readouterr().out
        assert "grid: 1 grid points: 1 cached, 0 executed" in second
