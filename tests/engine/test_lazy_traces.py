"""Lazy campaign traces and cached Figure 10 tallies.

A campaign result decodes a trace only on its first ``traces[name]``, and
Figure 10 reads each trace's per-PC tallies from a ``profile`` cache
entry, written by that lookup alone.  So a warm ``reproduce`` decodes no
trace and never imports numpy, while every reader of ``traces[name]``
still gets the decoded :class:`ValueTrace` — repaired first if its cached
body is corrupt.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.simulation.campaign as campaign
from repro.artifact import payload_digest
from repro.cli import main
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.codecs import encode_cache_entry, statistics_to_dict
from repro.engine.fingerprint import trace_digest
from repro.engine.scheduler import LazyTrace
from repro.engine.sweeps import clear_sweep_cache
from repro.engine.tasks import TraceTask, profile_cache_key
from repro.isa.opcodes import CATEGORY_OF, Category, Opcode
from repro.reporting.experiments import figure10
from repro.simulation.value_profile import pc_tallies
from repro.trace import io as trace_io
from repro.trace.io import decode_trace, dumps_trace_binary
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace
from repro.workloads.suite import BENCHMARK_ORDER

REPO_ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.05


@pytest.fixture
def decodes(monkeypatch):
    """Counts ``decode_trace`` calls, wherever ``repro`` bound the function."""
    calls: list[bytes] = []
    original = trace_io.decode_trace

    def spy(data):
        calls.append(data)
        return original(data)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            module.__dict__.get("decode_trace") is original
        ):
            monkeypatch.setattr(module, "decode_trace", spy)
    return calls


@pytest.fixture
def fresh_memos():
    """Empty in-process campaign and sweep memos, before and after."""
    campaign.clear_campaign_cache()
    clear_sweep_cache()
    yield
    campaign.clear_campaign_cache()
    clear_sweep_cache()
    campaign.reset_campaign_defaults()


def _hand_built_trace() -> ValueTrace:
    """One PC with repeated values, one single-valued, one whose category changes."""
    triples = [
        (0x10, Opcode.ADD, 1),
        (0x20, Opcode.XOR, 5),
        (0x30, Opcode.LW, 9),
        (0x10, Opcode.ADD, 2),
        (0x30, Opcode.ADD, 9),
        (0x10, Opcode.ADD, 1),
        (0x20, Opcode.XOR, 5),
        (0x30, Opcode.ADD, 4),
        (0x10, Opcode.ADD, 3),
        (0x10, Opcode.ADD, 2),
    ]
    records = [
        TraceRecord(serial=index + 1, pc=pc, opcode=opcode, category=CATEGORY_OF[opcode], value=value)
        for index, (pc, opcode, value) in enumerate(triples)
    ]
    return ValueTrace("hand-built", records)


def _lazy_trace(engine: ExecutionEngine, trace: ValueTrace) -> LazyTrace:
    """A cached-looking :class:`LazyTrace` holding ``trace``'s v3 bytes."""
    payload = {
        "digest": trace_digest(trace),
        "statistics": statistics_to_dict(trace.statistics()),
        "trace_binary": dumps_trace_binary(trace, compress=True),
    }
    return LazyTrace(engine, TraceTask.for_workload("compress", SCALE), "hand", payload)


class TestCachedTallies:
    def test_every_default_trace_at_quick_scale(self, tmp_path, decodes):
        config = EngineConfig(cache_dir=tmp_path / "cache")
        with ExecutionEngine(config) as cold:
            result = cold.run(scale=campaign.QUICK_SCALE, predictors=("l",), benchmarks=BENCHMARK_ORDER)
            for benchmark in BENCHMARK_ORDER:
                result.pc_tallies(benchmark)
        assert len(list((tmp_path / "cache" / "profile").glob("*/*"))) == len(BENCHMARK_ORDER)
        with ExecutionEngine(config) as warm:
            result = warm.run(scale=campaign.QUICK_SCALE, predictors=("l",), benchmarks=BENCHMARK_ORDER)
            cached = {benchmark: result.pc_tallies(benchmark) for benchmark in BENCHMARK_ORDER}
        assert decodes == []
        for benchmark in BENCHMARK_ORDER:
            trace = result.traces[benchmark]
            assert cached[benchmark] == pc_tallies(trace), benchmark

    def test_hand_built_trace(self, tmp_path, decodes):
        trace = _hand_built_trace()
        with ExecutionEngine(EngineConfig(cache_dir=tmp_path / "cache")) as engine:
            computed = _lazy_trace(engine, trace).pc_tallies()
            assert len(decodes) == 1
            cached = _lazy_trace(engine, trace).pc_tallies()
            assert len(decodes) == 1
            assert engine.cache.path_for("profile", profile_cache_key(trace_digest(trace))).exists()
        decoded = decode_trace(dumps_trace_binary(trace))
        assert cached == computed == pc_tallies(decoded) == pc_tallies(trace)
        assert cached.unique == {0x10: 3, 0x20: 1, 0x30: 2}
        assert cached.dynamic == {0x10: 5, 0x20: 2, 0x30: 3}
        assert cached.category == {0x10: Category.ADDSUB, 0x20: Category.LOGIC, 0x30: Category.LOADS}


def _figure10_digest() -> str:
    return payload_digest([grid.to_payload() for grid in figure10(scale=SCALE).grids])


@pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
def test_corrupt_profile_entry_is_a_miss_and_rewritten(tmp_path, decodes, fresh_memos, damage):
    campaign.set_campaign_defaults(EngineConfig(cache_dir=tmp_path / "cache"))
    expected = _figure10_digest()
    entries = sorted((tmp_path / "cache" / "profile").glob("*/*"))
    assert len(entries) == len(BENCHMARK_ORDER)
    victim = entries[0]
    original = victim.read_bytes()
    if damage == "truncated":
        victim.write_bytes(original[: len(original) // 2])
    else:
        flipped = bytearray(original)
        flipped[len(original) * 3 // 4] ^= 0x10  # inside the zlib body
        victim.write_bytes(bytes(flipped))

    campaign.clear_campaign_cache()
    decodes.clear()
    assert _figure10_digest() == expected
    assert len(decodes) == 1  # only the damaged entry's trace
    assert victim.read_bytes() == original

    campaign.clear_campaign_cache()
    decodes.clear()
    assert _figure10_digest() == expected
    assert decodes == []


def test_campaign_and_sweep_write_no_profile_entries(tmp_path, decodes, capsys, fresh_memos):
    cache_dir = tmp_path / "cache"
    common = ["--scale", str(SCALE), "--benchmarks", "compress", "m88ksim", "--cache-dir", str(cache_dir)]
    assert main(["campaign", "--predictors", "l", "s2", *common]) == 0
    cold_table = capsys.readouterr().out.splitlines()[:-1]
    assert main(["sweep", "--predictors", "l", *common]) == 0
    assert sorted(path.name for path in cache_dir.iterdir()) == ["merge", "simulate", "trace"]
    # A warm campaign prints the same table without decoding a trace.
    capsys.readouterr()
    decodes.clear()
    assert main(["campaign", "--predictors", "l", "s2", *common]) == 0
    assert decodes == []
    assert capsys.readouterr().out.splitlines()[:-1] == cold_table
    assert not (cache_dir / "profile").exists()


class TestLazyCampaignTraces:
    def test_traces_read_back_decoded(self, tmp_path, decodes):
        config = EngineConfig(cache_dir=tmp_path / "cache")
        with ExecutionEngine(config) as cold:
            cold_result = cold.run(scale=SCALE, predictors=("l",), benchmarks=("compress", "xlisp"))
        with ExecutionEngine(config) as warm:
            result = warm.run(scale=SCALE, predictors=("l",), benchmarks=("compress", "xlisp"))
        assert result.benchmarks() == ("compress", "xlisp")
        assert len(result.traces) == 2 and "xlisp" in result.traces
        assert decodes == []
        trace = result.traces["compress"]
        assert isinstance(trace, ValueTrace)
        assert len(decodes) == 1
        assert result.traces["compress"] is trace  # memoised
        assert list(trace.record_columns().values) == list(
            cold_result.traces["compress"].record_columns().values
        )
        assert len(trace) == result.statistics["compress"].predicted_instructions
        assert dict(result.traces).keys() == {"compress", "xlisp"}
        with pytest.raises(TypeError):
            result.traces["compress"] = trace

    def test_corrupt_trace_first_read_through_traces_is_repaired(self, tmp_path):
        config = EngineConfig(cache_dir=tmp_path / "cache")
        with ExecutionEngine(config) as cold:
            cold_result = cold.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        key = TraceTask.for_workload("compress", SCALE).cache_key()
        entry = cold.cache.get("trace", key)
        entry["trace_binary"] = b"\x00garbage"
        cold.cache.path_for("trace", key).write_bytes(encode_cache_entry(key, entry))

        with ExecutionEngine(config) as warm:
            result = warm.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        # The merge entry satisfied the run, so nothing read the body yet.
        assert (warm.stats.traces_computed, warm.stats.traces_cached) == (0, 1)
        trace = result.traces["compress"]
        assert (warm.stats.traces_computed, warm.stats.traces_cached) == (1, 0)
        assert list(trace.record_columns().values) == list(
            cold_result.traces["compress"].record_columns().values
        )
        assert cold.cache.verify().ok  # the bad entry was overwritten


def test_warm_reproduce_decodes_no_trace_and_imports_no_numpy(tmp_path, decodes, capsys, fresh_memos):
    argv = ["reproduce", "--check", "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out")]
    environment = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    script = (
        "import sys; from repro.cli import main; code = main(sys.argv[1:]); "
        "print('numpy imported:', 'numpy' in sys.modules); sys.exit(code)"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", script, *argv], env=environment, capture_output=True, text=True
        )
        for _ in ("cold", "warm")
    ]
    for run in runs:
        assert run.returncode == 0, run.stdout + run.stderr
        assert "check passed: 15 deliverable(s)" in run.stdout
    assert "traces: 0 computed, 17 cached; simulations: 0 computed, 51 cached" in runs[1].stdout
    assert runs[1].stdout.splitlines()[-1] == "numpy imported: False"

    assert main(argv) == 0
    assert "check passed: 15 deliverable(s)" in capsys.readouterr().out
    assert decodes == []
