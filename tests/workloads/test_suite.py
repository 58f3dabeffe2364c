"""Tests for the workload registry and whole-suite execution."""

from __future__ import annotations

import pytest

from repro.errors import UnknownWorkloadError, WorkloadError
from repro.workloads.suite import BENCHMARK_ORDER, available_workloads, get_workload, run_suite


class TestRegistry:
    def test_all_seven_spec95int_benchmarks_present(self):
        assert set(BENCHMARK_ORDER) == {
            "compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "xlisp",
        }

    def test_available_workloads_matches_paper_order(self):
        assert available_workloads() == BENCHMARK_ORDER

    def test_lookup_by_name(self):
        assert get_workload("gcc").name == "gcc"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("mcf")   # SPEC2000, not SPEC95


class TestWorkloadParameters:
    def test_invalid_input_set_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("compress").run(scale=0.02, input_name="nonexistent")

    def test_invalid_flags_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("gcc").run(scale=0.02, flags="-O9")

    def test_non_positive_scale_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("perl").run(scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(WorkloadError, match="finite"):
            get_workload("perl").trace(scale=scale)

    def test_gcc_has_the_five_paper_inputs_and_four_flag_sets(self):
        gcc = get_workload("gcc")
        assert set(gcc.input_sets) == {"gcc.i", "jump.i", "emit-rtl.i", "recog.i", "stmt.i"}
        assert set(gcc.flag_sets) == {"ref", "none", "-O1", "-O2"}


class TestRunSuite:
    def test_subset_run(self):
        runs = run_suite(scale=0.03, benchmarks=("compress", "perl"))
        assert set(runs) == {"compress", "perl"}
        for run in runs.values():
            assert run.execution.halted
            assert len(run.trace) > 0

    def test_runs_record_configuration(self):
        runs = run_suite(scale=0.03, benchmarks=("xlisp",))
        run = runs["xlisp"]
        assert run.workload == "xlisp"
        assert run.scale == 0.03
        assert run.input_name == "7-queens"
