"""Self-test of the benchmark harness.

    python3 -m pytest perfbench -q

Runs every workload of ``BENCHMARK.json`` once at a reduced size,
untraced and traced, and checks the result line against the declared
metrics.  Not part of the tier-1 suite (``testpaths`` does not name this
directory); it takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
REDUCED_SCALE = "0.05"


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--scale",
            REDUCED_SCALE,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(workload: str, trace: int) -> dict:
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def assert_declared(metrics: dict, declared: list[dict]) -> None:
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for name, metric in metrics.items():
        assert METRIC_NAME.fullmatch(name), name
        assert metric["unit"], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = result_of(workload, trace=0)["metrics"]
    assert_declared(metrics, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    metrics = result_of(workload, trace=1)["metrics"]
    assert_declared(metrics, SPEC["per_layer"])
    self_times = {name: metrics[name]["value"] for name in harness.SELF_TIME_LAYERS.values()}
    assert min(self_times.values()) >= 0, self_times
    # The self times partition the traced child's wall; the rest is
    # interpreter start-up and tracing overhead.
    assert metrics["bench.unattributed_s"]["value"] >= 0
    assert sum(self_times.values()) <= metrics["bench.traced_wall_s"]["value"]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
