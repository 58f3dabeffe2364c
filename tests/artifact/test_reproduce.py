"""Tests for the one-command reproduction artifact (``repro-vp reproduce``).

Most tests drive a tiny manifest of engine-free micro-experiments (Table 1,
Figures 1-2, Table 3) plus one tiny sweep-backed deliverable, so the full
record → check → perturb → diff cycle runs in well under a second; one
integration test reproduces the *committed* manifest end to end and checks
it against the committed goldens, which is the acceptance path CI runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.artifact import (
    ArtifactManifest,
    Deliverable,
    canonical_json,
    diff_payloads,
    load_manifest,
    payload_digest,
    reproduce,
)
from repro.artifact.check import MAX_RENDERED_DIFFS, CheckReport, check_deliverable
from repro.cli import main
from repro.engine.config import EngineConfig
from repro.engine.telemetry import NullTelemetry
from repro.errors import ArtifactError
from repro.simulation.campaign import campaign_defaults, reset_campaign_defaults, set_campaign_defaults

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_MANIFEST = REPO_ROOT / "artifact" / "manifest.json"


@pytest.fixture(autouse=True)
def _pristine_engine_defaults():
    """CLI invocations mutate process-wide engine defaults; restore them."""
    yield
    reset_campaign_defaults()


def micro_manifest(tmp_path: Path) -> ArtifactManifest:
    """A fast manifest: engine-free micro-experiments plus one tiny sweep."""
    manifest = ArtifactManifest(
        paper="test paper",
        deliverables=(
            Deliverable("table1", "table", "Sequence behaviour", "table1", {"length": 16, "period": 4}),
            Deliverable("figure1", "figure", "Finite context models", "figure1", {"sequence": "aabca"}),
            Deliverable("table3", "table", "Instruction categories", "table3", {}),
            Deliverable(
                "figure11", "figure", "fcm order sensitivity", "figure11", {"scale": 0.05, "max_order": 2}
            ),
        ),
    )
    manifest.save(tmp_path / "artifact" / "manifest.json")
    return manifest


def recorded_manifest(tmp_path: Path) -> ArtifactManifest:
    """A micro manifest with goldens recorded under its ``expected/`` dir."""
    manifest = micro_manifest(tmp_path)
    reproduce(manifest, out_dir=tmp_path / "results", update_expected=True)
    return load_manifest(manifest.path)


class TestManifestSchema:
    def test_round_trip(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        reloaded = load_manifest(manifest.path)
        assert reloaded.paper == manifest.paper
        assert reloaded.identifiers() == manifest.identifiers()
        assert reloaded.to_payload() == manifest.to_payload()
        assert reloaded.get("table1").params == {"length": 16, "period": 4}

    def test_digests_survive_round_trip(self, tmp_path):
        manifest = recorded_manifest(tmp_path)
        assert all(d.expected_digest for d in manifest.deliverables)
        reloaded = load_manifest(manifest.path)
        assert reloaded.to_payload() == manifest.to_payload()

    def test_rejects_unknown_version(self, tmp_path):
        path = micro_manifest(tmp_path).path
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="version"):
            load_manifest(path)

    def test_rejects_duplicate_identifiers(self):
        entry = Deliverable("table1", "table", "t", "table1")
        with pytest.raises(ArtifactError, match="duplicate"):
            ArtifactManifest(paper="p", deliverables=(entry, entry))

    def test_rejects_bad_kind(self):
        with pytest.raises(ArtifactError, match="kind"):
            Deliverable("table1", "chart", "t", "table1")

    def test_canonical_json_is_key_order_independent(self):
        assert payload_digest({"a": 1, "b": [1.5, None]}) == payload_digest({"b": [1.5, None], "a": 1})
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestOnlySelection:
    def test_exact_identifier(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        assert [d.identifier for d in manifest.select(["table1"])] == ["table1"]

    def test_groups_and_manifest_order(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        assert [d.identifier for d in manifest.select(["tables"])] == ["table1", "table3"]
        assert [d.identifier for d in manifest.select(["figures"])] == ["figure1", "figure11"]
        # Selection order never reorders deliverables.
        assert [d.identifier for d in manifest.select(["table3", "table1"])] == ["table1", "table3"]

    def test_glob_and_case_insensitive(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        assert [d.identifier for d in manifest.select(["figure*"])] == ["figure1", "figure11"]
        assert [d.identifier for d in manifest.select(["TABLE1"])] == ["table1"]

    def test_unmatched_selector_raises(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        with pytest.raises(ArtifactError, match="matches no deliverable"):
            manifest.select(["table99"])


class TestCellDiffs:
    def _payload(self):
        return {
            "identifier": "table2",
            "title": "t",
            "grids": [
                {
                    "title": "Table 2",
                    "columns": ["Benchmark", "Predicted (%)"],
                    "rows": [["gcc", 93.1], ["compress", 40.2]],
                }
            ],
        }

    def test_identical_payloads_are_ok(self):
        check = diff_payloads("table2", self._payload(), self._payload())
        assert check.ok and not check.diffs

    def test_perturbed_cell_names_table_row_and_column(self):
        actual = self._payload()
        actual["grids"][0]["rows"][0][1] = 92.8
        check = diff_payloads("table2", self._payload(), actual)
        assert not check.ok
        assert len(check.diffs) == 1
        rendered = check.diffs[0].render()
        assert "table2" in rendered and "Table 2" in rendered
        assert "row 'gcc'" in rendered and "column 'Predicted (%)'" in rendered
        assert "expected 93.1" in rendered and "got 92.8" in rendered

    def test_missing_row_reports_absent_cells(self):
        actual = self._payload()
        del actual["grids"][0]["rows"][1]
        check = diff_payloads("table2", self._payload(), actual)
        assert not check.ok
        assert any("compress" in diff.render() and "<absent>" in diff.render() for diff in check.diffs)

    def test_metadata_only_difference_is_still_a_mismatch(self):
        actual = self._payload()
        actual["grids"][0]["title"] = "Table 2 (renamed)"
        check = diff_payloads("table2", self._payload(), actual)
        assert not check.ok

    def test_report_caps_rendered_diffs(self):
        expected = self._payload()
        expected["grids"][0]["rows"] = [[f"row{i}", i] for i in range(MAX_RENDERED_DIFFS + 10)]
        actual = self._payload()
        actual["grids"][0]["rows"] = [[f"row{i}", i + 1] for i in range(MAX_RENDERED_DIFFS + 10)]
        report = CheckReport(checks=[diff_payloads("table2", expected, actual)])
        assert "and 10 more differing cell(s)" in report.render()

    def test_missing_expected_suggests_update_expected(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        check = check_deliverable(manifest.get("table1"), {"identifier": "table1"}, None)
        assert check.status == "missing-expected"
        assert any("--update-expected" in message for message in check.messages)


class TestReproduceRunner:
    def test_results_directory_layout(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        report = reproduce(manifest, out_dir=tmp_path / "results", run_id="layout-test")
        assert report.run_dir == tmp_path / "results" / "layout-test"
        names = sorted(p.relative_to(report.run_dir).as_posix() for p in report.run_dir.rglob("*") if p.is_file())
        expected = ["manifest.json", "metrics.jsonl", "summary.json"]
        for identifier in ("figure1", "figure11", "table1", "table3"):
            expected += [f"tables/{identifier}.csv", f"tables/{identifier}.json", f"tables/{identifier}.md"]
        assert names == sorted(expected)
        summary = json.loads((report.run_dir / "summary.json").read_text())
        assert summary["ok"] is True and summary["checked"] is False
        assert [entry["identifier"] for entry in summary["deliverables"]] == list(manifest.identifiers())
        run_manifest = json.loads((report.run_dir / "manifest.json").read_text())
        assert run_manifest["command"] == "reproduce"
        assert run_manifest["artifact_deliverables"] == list(manifest.identifiers())

    def test_written_payloads_carry_matching_digest(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        report = reproduce(manifest, out_dir=tmp_path / "results")
        payload = json.loads((report.run_dir / "tables" / "table1.json").read_text())
        digest = payload.pop("digest")
        assert digest == payload_digest(payload)

    def test_check_passes_against_recorded_goldens(self, tmp_path):
        manifest = recorded_manifest(tmp_path)
        report = reproduce(manifest, out_dir=tmp_path / "results", check=True)
        assert report.ok
        assert all(check.status == "ok" for check in report.check_report.checks)

    def test_check_fails_on_perturbed_golden_with_cell_diff(self, tmp_path):
        manifest = recorded_manifest(tmp_path)
        golden_path = manifest.expected_dir() / "table1.json"
        golden = json.loads(golden_path.read_text())
        original = golden["grids"][0]["rows"][0][1]
        golden["grids"][0]["rows"][0][1] = original + 1
        golden_path.write_text(json.dumps(golden))
        report = reproduce(manifest, out_dir=tmp_path / "results", check=True)
        assert not report.ok
        failures = report.check_report.failures()
        assert [check.identifier for check in failures] == ["table1"]
        rendered = report.check_report.render()
        assert "table1" in rendered and "row" in rendered and "column" in rendered
        assert repr(original + 1) in rendered and repr(original) in rendered

    def test_missing_golden_fails_check(self, tmp_path):
        manifest = recorded_manifest(tmp_path)
        (manifest.expected_dir() / "table3.json").unlink()
        report = reproduce(manifest, out_dir=tmp_path / "results", check=True)
        assert not report.ok
        assert [check.identifier for check in report.check_report.failures()] == ["table3"]
        assert report.check_report.failures()[0].status == "missing-expected"

    def test_scale_override_refuses_check_modes(self, tmp_path):
        manifest = recorded_manifest(tmp_path)
        with pytest.raises(ArtifactError, match="--scale"):
            reproduce(manifest, out_dir=tmp_path / "results", check=True, scale=0.1)
        with pytest.raises(ArtifactError, match="--scale"):
            reproduce(manifest, out_dir=tmp_path / "results", update_expected=True, scale=0.1)

    def test_reproduce_aggregates_engine_stats(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        report = reproduce(manifest, out_dir=tmp_path / "results")
        # figure11 runs a real sweep through the engine; micro-experiments don't.
        assert report.stats is not None
        assert report.stats.simulations_computed + report.stats.simulations_cached > 0

    def test_default_sink_restored_after_return(self, tmp_path):
        prior_config = EngineConfig(kernel="scalar")
        prior_sink = NullTelemetry()
        set_campaign_defaults(prior_config, telemetry=prior_sink)
        reproduce(micro_manifest(tmp_path), only=["table1"], out_dir=tmp_path / "results")
        config, sink = campaign_defaults()
        assert sink is prior_sink
        assert config == prior_config

    def test_default_sink_restored_after_artifact_error(self, tmp_path):
        manifest = micro_manifest(tmp_path)
        reproduce(manifest, only=["table1"], out_dir=tmp_path / "results", update_expected=True)
        # An unreadable golden raises mid-run, after the run's sink is installed.
        (manifest.expected_dir() / "table1.json").write_text("not json")
        prior_sink = NullTelemetry()
        set_campaign_defaults(EngineConfig(), telemetry=prior_sink)
        with pytest.raises(ArtifactError, match="unreadable golden"):
            reproduce(load_manifest(manifest.path), only=["table1"], out_dir=tmp_path / "results", check=True)
        config, sink = campaign_defaults()
        assert sink is prior_sink
        assert config == EngineConfig()


class TestReproduceCli:
    def test_only_filtering(self, tmp_path, capsys):
        manifest = recorded_manifest(tmp_path)
        code = main(
            [
                "reproduce",
                "--manifest", str(manifest.path),
                "--only", "table1", "figure1",
                "--out", str(tmp_path / "cli-results"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure1" in out and "table3" not in out
        run_dirs = list((tmp_path / "cli-results").iterdir())
        assert len(run_dirs) == 1
        produced = {p.stem for p in (run_dirs[0] / "tables").glob("*.json")}
        assert produced == {"table1", "figure1"}

    def test_check_pass_and_perturbed_fail(self, tmp_path, capsys):
        manifest = recorded_manifest(tmp_path)
        argv = [
            "reproduce",
            "--manifest", str(manifest.path),
            "--only", "table1",
            "--check",
            "--out", str(tmp_path / "cli-results"),
        ]
        assert main(argv) == 0
        assert "check passed" in capsys.readouterr().out
        golden_path = manifest.expected_dir() / "table1.json"
        golden = json.loads(golden_path.read_text())
        golden["grids"][0]["rows"][0][1] = 99999
        golden_path.write_text(json.dumps(golden))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "check failed: table1" in err
        assert "row" in err and "column" in err and "99999" in err

    def test_list_deliverables(self, tmp_path, capsys):
        manifest = micro_manifest(tmp_path)
        assert main(["reproduce", "--manifest", str(manifest.path), "--list"]) == 0
        out = capsys.readouterr().out
        for identifier in manifest.identifiers():
            assert identifier in out

    def test_unknown_selector_exits_2(self, tmp_path, capsys):
        manifest = micro_manifest(tmp_path)
        code = main(["reproduce", "--manifest", str(manifest.path), "--only", "nope"])
        assert code == 2
        assert "matches no deliverable" in capsys.readouterr().err

    def test_telemetry_dir_is_rejected(self, tmp_path, capsys):
        manifest = micro_manifest(tmp_path)
        code = main(
            [
                "reproduce",
                "--manifest", str(manifest.path),
                "--telemetry-dir", str(tmp_path / "telemetry"),
            ]
        )
        assert code == 2
        assert "--telemetry-dir does not apply" in capsys.readouterr().err

    def test_scale_with_check_exits_2(self, tmp_path, capsys):
        manifest = recorded_manifest(tmp_path)
        code = main(
            ["reproduce", "--manifest", str(manifest.path), "--check", "--scale", "0.1"]
        )
        assert code == 2
        assert "--scale" in capsys.readouterr().err


@pytest.mark.slow
class TestCommittedGoldens:
    """The acceptance path: the committed manifest checks out from a clone."""

    def test_committed_manifest_lists_every_experiment(self):
        from repro.reporting.experiments import ALL_EXPERIMENTS

        manifest = load_manifest(COMMITTED_MANIFEST)
        assert sorted(manifest.identifiers()) == sorted(ALL_EXPERIMENTS)
        assert all(d.expected_digest for d in manifest.deliverables)
        assert all(
            (manifest.expected_dir() / f"{d.identifier}.json").is_file()
            for d in manifest.deliverables
        )

    def test_committed_goldens_are_self_consistent(self):
        """Every committed golden's content matches its recorded digests."""
        manifest = load_manifest(COMMITTED_MANIFEST)
        for deliverable in manifest.deliverables:
            payload = json.loads(
                (manifest.expected_dir() / f"{deliverable.identifier}.json").read_text()
            )
            digest = payload.pop("digest")
            assert digest == payload_digest(payload) == deliverable.expected_digest

    def test_reproduce_check_passes_from_clone(self, tmp_path, capsys):
        code = main(
            [
                "reproduce",
                "--manifest", str(COMMITTED_MANIFEST),
                "--check",
                "--out", str(tmp_path / "results"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "check passed: 15 deliverable(s)" in out
