"""CLI commands: every subcommand runs and prints sensible output."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.load == 0.8
        assert args.process == "poisson"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestAnalyze:
    def test_reference_analysis(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "655.4 Tb/s" in out
        assert "12.71 kW" in out
        assert "14.5 MB" in out
        assert "51.2x" in out

    def test_scaled_analysis(self, capsys):
        assert main(["analyze", "--scaled"]) == 0
        out = capsys.readouterr().out
        assert "Design analysis" in out


class TestSimulate:
    def test_default_simulation(self, capsys):
        assert main(["simulate", "--duration-us", "10"]) == 0
        out = capsys.readouterr().out
        assert "delivered" in out
        assert "100.0" in out  # lossless at default load

    def test_fixed_size_and_flags(self, capsys):
        code = main(
            [
                "simulate",
                "--duration-us", "8",
                "--packet-size", "1500",
                "--load", "0.5",
                "--no-bypass",
                "--process", "onoff",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frames written" in out

    def test_speedup_flag(self, capsys):
        assert main(["simulate", "--duration-us", "8", "--speedup", "2.0"]) == 0

    def test_negative_packet_size_exit_2(self, capsys):
        assert main(["simulate", "--duration-us", "2", "--packet-size", "-5"]) == 2
        assert "packet_size" in capsys.readouterr().err


class TestSweep:
    def test_sweep_rows(self, capsys):
        assert main(["sweep", "--loads", "0.4,0.8", "--duration-us", "8"]) == 0
        out = capsys.readouterr().out
        assert "0.40" in out
        assert "0.80" in out

    def test_bad_loads_return_error(self, capsys):
        assert main(["sweep", "--loads", "abc"]) == 2

    @pytest.mark.parametrize("loads", [",", ""])
    def test_empty_loads_exit_2(self, loads, capsys):
        assert main(["sweep", "--loads", loads, "--duration-us", "2"]) == 2
        assert "bad number list" in capsys.readouterr().err


class TestFaults:
    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    def test_zero_intervals_exit_2(self, fidelity, capsys):
        code = main(
            ["faults", "--switches", "2", "--duration-us", "2",
             "--intervals", "0", "--fidelity", fidelity]
        )
        assert code == 2
        assert "n_intervals" in capsys.readouterr().err


class TestExperiments:
    def test_index_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id, _, _ in EXPERIMENTS:
            assert exp_id in out
        assert "E16" in out and "A4" in out

    def test_index_matches_bench_files(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        for _, _, bench in EXPERIMENTS:
            assert (root / bench).exists(), bench


class TestEventsOut:
    def sweep(self, extra):
        return main(
            ["sweep", "--loads", "0.4,0.8", "--duration-us", "8",
             "--fidelity", "flow"] + extra
        )

    def test_sweep_streams_validated_lifecycle(self, tmp_path, capsys):
        from repro.runtime import validate_events

        path = tmp_path / "events.jsonl"
        assert self.sweep(["--events-out", str(path)]) == 0
        kinds = [e["kind"] for e in validate_events(path.read_text())]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_finish"
        assert kinds.count("cell_start") == 2
        assert kinds.count("cell_finish") == 2

    def test_cached_rerun_streams_cell_cached(self, tmp_path, capsys):
        from repro.runtime import validate_events

        cache = str(tmp_path / "cache")
        path = tmp_path / "warm.jsonl"
        assert self.sweep(["--cache-dir", cache]) == 0
        assert self.sweep(
            ["--cache-dir", cache, "--events-out", str(path)]
        ) == 0
        warm = validate_events(path.read_text())
        assert [e["kind"] for e in warm].count("cell_cached") == 2
        assert warm[-1]["n_executed"] == 0


class TestTimeseriesCmd:
    def dump(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        assert main(
            ["sweep", "--loads", "0.6", "--duration-us", "8",
             "--fidelity", "flow", "--metrics-out", str(path)]
        ) == 0
        capsys.readouterr()
        return str(path)

    def test_renders_sparklines(self, tmp_path, capsys):
        assert main(["timeseries", self.dump(tmp_path, capsys)]) == 0
        out = capsys.readouterr().out
        assert "repro_flow_window_bytes" in out
        assert "timeline" in out

    def test_name_filter_and_ewma(self, tmp_path, capsys):
        path = self.dump(tmp_path, capsys)
        assert main(
            ["timeseries", path, "--name", "queue", "--ewma", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_flow_window_queue_bytes" in out
        assert "repro_flow_window_bytes{" not in out
        assert "ewma" in out

    def test_missing_or_corrupt_file_exit_2(self, tmp_path, capsys):
        assert main(["timeseries", str(tmp_path / "absent.jsonl")]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a dump\n")
        assert main(["timeseries", str(bad)]) == 2
        capsys.readouterr()


class TestTimeline:
    def test_renders_banks_and_bus(self, capsys):
        assert main(["timeline", "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "bank" in out
        assert "bus |" in out
        assert "100% busy" in out

    def test_bad_frames(self, capsys):
        assert main(["timeline", "--frames", "0"]) == 2


class TestJsonExport:
    def test_simulate_json_output(self, capsys):
        import json

        assert main(["simulate", "--duration-us", "6", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["delivery_fraction"] == pytest.approx(1.0)
        assert "latency_breakdown" in parsed
        assert parsed["pfi"]["frames_written"] >= 0


class TestAttack:
    ARGS = [
        "attack", "--switches", "4", "--ribbons", "4",
        "--trials", "2", "--duration-us", "2",
    ]

    def test_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.strategy == "known-assignment"
        assert args.splitter == "both"
        assert args.trials == 8
        assert args.switches == 16
        assert args.ribbons == 8

    def test_comparison_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Splitter exposure" in out
        assert "contiguous" in out
        assert "pseudo-random" in out
        assert "exposure ratio" in out

    def test_json_deterministic(self, capsys):
        assert main(self.ARGS + ["--json", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_single_splitter_campaign(self, capsys):
        assert main(self.ARGS + ["--splitter", "contiguous"]) == 0
        out = capsys.readouterr().out
        assert "Attack campaign" in out
        assert "victim_gain" in out

    def test_strategy_variants_run(self, capsys):
        for strategy in ("oblivious-probe", "operator-skew", "burst-sync"):
            assert main(self.ARGS + ["--strategy", strategy]) == 0
            assert capsys.readouterr().out

    def test_composes_with_faults(self, capsys):
        assert main(self.ARGS + ["--failed-switches", "1", "--json"]) == 0
        import json

        document = json.loads(capsys.readouterr().out)
        assert document["contiguous"]["trials"][0]["fault_events"]

    def test_seed_sweep_table(self, capsys):
        assert main(self.ARGS + ["--seed-sweep", "10"]) == 0
        assert "seed sensitivity" in capsys.readouterr().out

    def test_out_and_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "attack.json"
        metrics = tmp_path / "attack.jsonl"
        assert main(
            self.ARGS + ["--out", str(out), "--metrics-out", str(metrics)]
        ) == 0
        import json

        document = json.loads(out.read_text())
        assert "exposure_ratio" in document
        assert metrics.read_text().strip()
        assert "repro_attack_active_window" in metrics.read_text()

    def test_bad_args_exit_2(self, capsys):
        assert main(["attack", "--switches", "0"]) == 2
        assert main(["attack", "--trials", "0", "--switches", "4"]) == 2
        capsys.readouterr()
