"""EngineConfig: one validated, frozen value for every engine setting.

Pins construction-time validation (each bad value fails when the config
is built, never mid-run), immutability and hashing, the CLI building the
same config for every engine-backed subcommand, and the process-wide
defaults being replaced whole by each CLI invocation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import _build_parser, _engine_config, main
from repro.engine import EngineConfig, ExecutionEngine
from repro.simulation.campaign import (
    campaign_defaults,
    clear_campaign_cache,
    reset_campaign_defaults,
    run_campaign,
)


@pytest.fixture(autouse=True)
def _pristine_engine_defaults():
    """CLI invocations replace the process-wide engine defaults; restore them."""
    yield
    reset_campaign_defaults()
    clear_campaign_cache()


class TestValidation:
    @pytest.mark.parametrize("kernel", ["scalar", "vector", "auto"])
    def test_no_kernel_setting(self, kernel):
        # The vector kernel is the only production simulate path; the
        # values the removed setting once accepted are now unknown fields.
        with pytest.raises(TypeError):
            EngineConfig(kernel=kernel)

    @pytest.mark.parametrize("window", [0, 400, "auto"])
    def test_no_shard_window_setting(self, window):
        # Every (trace, predictor) pair runs as one whole-trace unit; the
        # values the removed setting once accepted are now unknown fields.
        with pytest.raises(TypeError):
            EngineConfig(shard_window=window)

    def test_jobs_clamped_to_one(self):
        assert EngineConfig(jobs=0).jobs == 1
        assert EngineConfig(jobs=-3).jobs == 1

    def test_no_cache_format_setting(self):
        with pytest.raises(TypeError):
            EngineConfig(cache_format="binary")


class TestValueSemantics:
    def test_fields_are_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.jobs = 4

    def test_equal_configs_hash_equal(self):
        first = EngineConfig(jobs=2, cache_dir="c", backend="pool", cache_max_bytes=64 * 1024)
        second = EngineConfig(jobs=2, cache_dir="c", backend="pool", cache_max_bytes=65536)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second, EngineConfig()}) == 2

    def test_six_settings(self):
        assert [field.name for field in dataclasses.fields(EngineConfig)] == [
            "jobs",
            "cache_dir",
            "use_cache",
            "cache_max_bytes",
            "cache_max_age",
            "backend",
        ]

    def test_engine_keeps_the_config(self):
        config = EngineConfig(jobs=1, backend="serial", cache_max_bytes=65536)
        engine = ExecutionEngine(config)
        assert engine.config is config
        assert ExecutionEngine().config == EngineConfig()


ENGINE_FLAGS = [
    "--jobs",
    "3",
    "--backend",
    "persistent",
    "--cache-dir",
    "/tmp/engine-config-parity",
    "--cache-max-bytes",
    "64KB",
    "--cache-max-age",
    "30m",
    "--kernel",
    "vector",
]


class TestCliParity:
    @pytest.mark.parametrize(
        "command",
        [["campaign"], ["sweep"], ["reproduce"], ["experiments", "table1"]],
    )
    def test_same_flags_same_config(self, command):
        args = _build_parser().parse_args(command + ENGINE_FLAGS)
        assert _engine_config(args) == EngineConfig(
            jobs=3,
            cache_dir="/tmp/engine-config-parity",
            cache_max_bytes=64 * 1024,
            cache_max_age=1800.0,
            backend="persistent",
        )

    def test_no_cache_and_defaults(self):
        args = _build_parser().parse_args(["campaign", "--no-cache"])
        assert _engine_config(args) == EngineConfig(use_cache=False)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["campaign", "--kernel", "scalar"], "argument --kernel: invalid choice: 'scalar'"),
            (["campaign", "--kernel", "auto"], "argument --kernel: invalid choice: 'auto'"),
            (["simulate", "compress", "--kernel", "vector"], "unrecognized arguments: --kernel"),
        ],
    )
    def test_kernel_flag_accepts_only_vector(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["serial", "pool", "persistent"])
    def test_every_local_backend_is_accepted(self, backend):
        args = _build_parser().parse_args(["campaign", "--backend", backend])
        assert _engine_config(args).backend == backend
        assert ExecutionEngine(_engine_config(args)).backend.name == backend

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--backend", "remote"], "argument --backend: invalid choice: 'remote'"),
            (["--workers", "127.0.0.1:8750"], "unrecognized arguments: --workers"),
        ],
    )
    def test_remote_options_are_usage_errors(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestDefaultsReplacedWhole:
    def test_second_cli_call_carries_none_of_the_first(self, tmp_path, capsys):
        first_cache = tmp_path / "first-cache"
        assert (
            main(
                [
                    "experiments",
                    "table1",
                    "--cache-dir",
                    str(first_cache),
                    "--cache-max-bytes",
                    "1MB",
                ]
            )
            == 0
        )
        assert main(["experiments", "table1"]) == 0
        capsys.readouterr()
        # A later library campaign runs on the second call's defaults, so it
        # must not write into the first call's cache directory.
        before = sorted(first_cache.rglob("*")) if first_cache.exists() else []
        run_campaign(scale=0.05, predictors=("l",), benchmarks=("compress",))
        after = sorted(first_cache.rglob("*")) if first_cache.exists() else []
        assert after == before
        config, telemetry = campaign_defaults()
        assert config == EngineConfig()
        assert telemetry is None
