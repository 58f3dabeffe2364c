"""Integration tests for the public API surface and the command line."""

from __future__ import annotations

import pytest

import repro
from repro.cli import main


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__

    def test_quickstart_snippet_from_readme_works(self):
        trace = repro.get_workload("compress").trace(scale=0.05)
        result = repro.simulate_trace(trace, ("l", "s2", "fcm3"))
        assert 0.0 <= result.results["fcm3"].accuracy <= 100.0

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_predictor_construction_via_api(self):
        predictor = repro.create_predictor("fcm3")
        assert isinstance(predictor, repro.BlendedFcmPredictor)

    def test_sequence_helpers_via_api(self):
        values = repro.generate_sequence(repro.SequenceClass.REPEATED_STRIDE, 12)
        assert repro.classify_sequence(values) is repro.SequenceClass.REPEATED_STRIDE

    def test_paper_predictor_lineup_exposed(self):
        assert repro.PAPER_PREDICTORS == ("l", "s2", "fcm1", "fcm2", "fcm3")


class TestCli:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        for benchmark in ("compress", "gcc", "xlisp"):
            assert benchmark in output

    def test_predictors_listing(self, capsys):
        assert main(["predictors"]) == 0
        output = capsys.readouterr().out
        assert "s2" in output and "fcm3" in output

    def test_simulate_command(self, capsys):
        assert main(["simulate", "perl", "--scale", "0.05", "--predictors", "l", "s2"]) == 0
        output = capsys.readouterr().out
        assert "perl" in output
        assert "s2" in output

    def test_experiments_command_micro_only(self, capsys):
        assert main(["experiments", "table1", "figure1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "Figure 1" in output

    def test_campaign_command(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        arguments = [
            "campaign",
            "--scale", "0.05",
            "--benchmarks", "compress", "m88ksim",
            "--predictors", "l", "s2",
            "--jobs", "2",
            "--cache-dir", cache_dir,
        ]
        assert main(arguments) == 0
        output = capsys.readouterr().out
        assert "compress" in output and "m88ksim" in output
        assert "simulations: 4 computed, 0 cached" in output
        # Second run against the same cache dir re-simulates nothing.
        assert main(arguments) == 0
        output = capsys.readouterr().out
        assert "simulations: 0 computed, 4 cached" in output
        assert "traces: 0 computed, 2 cached" in output

    def test_campaign_no_cache_recomputes(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        arguments = [
            "campaign",
            "--scale", "0.05",
            "--benchmarks", "compress",
            "--predictors", "l",
            "--cache-dir", cache_dir,
        ]
        assert main(arguments) == 0
        capsys.readouterr()
        assert main(arguments + ["--no-cache"]) == 0
        assert "simulations: 1 computed, 0 cached" in capsys.readouterr().out

    def test_experiments_unknown_name_fails(self, capsys):
        assert main(["experiments", "table99"]) == 2

    def test_simulate_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["simulate", "not-a-benchmark"])

    @pytest.mark.parametrize(
        "command",
        [
            ["reproduce"],
            ["experiments", "table2"],
            ["campaign"],
            ["sweep"],
            ["simulate", "compress"],
        ],
    )
    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_invalid_scale_is_a_usage_error(self, capsys, command, scale):
        # Only positive finite scales trace; anything else is refused by
        # argparse before any work starts, never a traceback mid-run.
        with pytest.raises(SystemExit) as excinfo:
            main(command + [f"--scale={scale}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["campaign"], ["sweep"], ["experiments", "table2"], ["reproduce"]]
    )
    def test_shard_window_flag_is_gone(self, capsys, command):
        # Every (trace, predictor) pair runs as one whole-trace unit; the
        # old intra-trace window size is an unknown flag.
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--shard-window", "400"])
        assert excinfo.value.code == 2
        assert "--shard-window" in capsys.readouterr().err


class TestSweepCli:
    def test_sweep_cold_then_warm(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        arguments = [
            "sweep",
            "--benchmark", "gcc",
            "--inputs", "all",
            "--scale", "0.05",
            "--jobs", "2",
            "--cache-dir", cache_dir,
        ]
        assert main(arguments) == 0
        output = capsys.readouterr().out
        assert "gcc.i" in output and "stmt.i" in output
        assert "traces: 5 computed, 0 cached" in output
        assert "simulations: 5 computed, 0 cached" in output
        # Second run against the same cache is fully warm.
        assert main(arguments) == 0
        output = capsys.readouterr().out
        assert "traces: 0 computed, 5 cached" in output
        assert "simulations: 0 computed, 5 cached" in output

    def test_sweep_orders_axis(self, capsys):
        assert main(["sweep", "--orders", "1", "2", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "fcm1" in output and "fcm2" in output
        # One shared trace for the whole order axis.
        assert "traces: 1 computed" in output

    def test_sweep_json_output(self, capsys):
        import json

        assert main(
            ["sweep", "--benchmark", "compress", "--scale", "0.05", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["benchmark"] == "compress"
        assert payload["points"][0]["predictor"] == "fcm2"
        assert payload["points"][0]["predictions"] > 0
        assert 0.0 <= payload["points"][0]["accuracy"] <= 100.0
        assert payload["stats"]["simulations_computed"] == 1

    def test_sweep_rejects_unknown_predictor(self, capsys):
        assert main(["sweep", "--predictors", "nope", "--scale", "0.05"]) == 2

    def test_sweep_rejects_unknown_input(self, capsys):
        assert main(["sweep", "--inputs", "bogus.i", "--scale", "0.05"]) == 2

    def test_sweep_matches_experiments_table6(self, capsys):
        # The CLI sweep and the table6 experiment are two views of the
        # same engine path; their accuracies must agree exactly.
        from repro.reporting.experiments import table6

        artifact = table6(scale=0.05)
        assert main(
            ["sweep", "--benchmark", "gcc", "--inputs", "all", "--scale", "0.05", "--json"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        cli_points = [(p["input"], p["predictions"], p["accuracy"]) for p in payload["points"]]
        table_points = [(p.setting, p.predictions, p.accuracy) for p in artifact.data]
        assert cli_points == table_points


class TestBackendCli:
    def test_campaign_backend_parity_via_cli(self, capsys, tmp_path):
        outputs = {}
        for backend in ("serial", "pool", "persistent"):
            cache_dir = str(tmp_path / f"cache-{backend}")
            arguments = [
                "campaign",
                "--scale", "0.05",
                "--benchmarks", "compress",
                "--predictors", "l", "s2",
                "--jobs", "2",
                "--backend", backend,
                "--cache-dir", cache_dir,
            ]
            assert main(arguments) == 0
            output = capsys.readouterr().out
            assert "simulations: 2 computed, 0 cached" in output
            # The accuracy table (everything before the stats line) must be
            # bit-identical across backends.
            outputs[backend] = output.rsplit("traces:", 1)[0]
        assert outputs["serial"] == outputs["pool"] == outputs["persistent"]

    def test_sweep_persistent_backend_warm_rerun(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        arguments = [
            "sweep",
            "--benchmark", "compress",
            "--scale", "0.05",
            "--jobs", "2",
            "--backend", "persistent",
            "--cache-dir", cache_dir,
        ]
        assert main(arguments) == 0
        assert "simulations: 1 computed, 0 cached" in capsys.readouterr().out
        assert main(arguments) == 0
        output = capsys.readouterr().out
        assert "traces: 0 computed, 1 cached" in output
        assert "simulations: 0 computed, 1 cached" in output

    def test_backend_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--backend", "bogus"])


class TestMultiBenchmarkSweepCli:
    def test_benchmarks_axis_with_all_inputs(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(
            [
                "sweep",
                "--benchmarks", "compress", "m88ksim",
                "--inputs", "all",
                "--scale", "0.05",
                "--cache-dir", cache_dir,
                "--json",
            ]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["benchmarks"] == ["compress", "m88ksim"]
        benchmarks = {point["benchmark"] for point in payload["points"]}
        assert benchmarks == {"compress", "m88ksim"}

    def test_benchmark_column_in_table(self, capsys):
        assert main(
            ["sweep", "--benchmarks", "compress", "m88ksim", "--scale", "0.05"]
        ) == 0
        output = capsys.readouterr().out
        assert "compress" in output and "m88ksim" in output
        assert "Sweep — compress, m88ksim" in output


class TestCacheCli:
    CAMPAIGN = [
        "campaign",
        "--scale", "0.05",
        "--benchmarks", "compress",
        "--predictors", "l",
    ]

    def _populate(self, cache_dir, extra=()):
        assert main(self.CAMPAIGN + ["--cache-dir", cache_dir, *extra]) == 0

    def test_stats_reports_kinds_and_fails_when_empty(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--fail-if-empty"]) == 1
        capsys.readouterr()
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--fail-if-empty"]) == 0
        output = capsys.readouterr().out
        for kind in ("trace", "simulate", "merge"):
            assert kind in output
        assert "total: 3 entries" in output

    def test_stats_fail_if_over(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--fail-if-over", "1GB"]) == 0
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--fail-if-over", "1B"]) == 1

    def test_gc_bounds_the_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir, "--max-bytes", "0"]) == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--fail-if-empty"]) == 1

    def test_gc_requires_a_bound(self, capsys, tmp_path):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2

    def test_verify_and_clear(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        self._populate(str(cache_dir))
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        assert "all ok" in capsys.readouterr().out
        entry = next(path for path in cache_dir.glob("*/*/*") if path.is_file())
        entry.write_bytes(b"garbage")
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir), "--remove"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

    def test_cache_format_flag_is_gone(self, capsys, tmp_path):
        # .rvpc is the only entry format; the old selector is an unknown flag.
        with pytest.raises(SystemExit) as excinfo:
            self._populate(str(tmp_path / "cache"), extra=["--cache-format", "binary"])
        assert excinfo.value.code == 2
        assert "--cache-format" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_json_entry_from_an_older_version_is_a_miss(self, capsys, tmp_path):
        # Older versions could write plain-JSON entries (<digest>.json).
        # A run treats one as a miss and writes the .rvpc entry, and
        # `cache verify --remove` deletes the leftover.
        import json

        from repro.engine.codecs import decode_cache_entry
        from repro.trace.io import dumps_trace, loads_trace_binary

        cache_dir = tmp_path / "cache"
        self._populate(str(cache_dir))
        (entry,) = cache_dir.glob("trace/*/*.rvpc")
        key, payload = decode_cache_entry(entry.read_bytes())
        payload["trace_text"] = dumps_trace(loads_trace_binary(payload.pop("trace_binary")))
        legacy = entry.with_suffix(".json")
        legacy.write_text(json.dumps({"key": key, "payload": payload}))
        entry.unlink()
        capsys.readouterr()
        self._populate(str(cache_dir))
        assert "traces: 1 computed, 0 cached" in capsys.readouterr().out
        assert entry.exists() and legacy.exists()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir), "--remove"]) == 0
        assert entry.exists() and not legacy.exists()
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        assert "all ok" in capsys.readouterr().out
