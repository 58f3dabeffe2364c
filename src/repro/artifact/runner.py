"""The reproduction runner: manifest in, isolated results directory out.

:func:`reproduce` drives every selected deliverable of the committed
artifact manifest through the existing experiment entry points — and
therefore through the engine's phase executor, so the configured
``--backend``/``--jobs``/``--kernel``/``--shard-window``/``--cache-dir``
defaults apply and a warm cache makes the whole reproduction ~free — and
writes one isolated results directory per run::

    results/<run-id>/
    ├── manifest.json     run manifest (argv, python/platform/package and
    │                     protocol versions, artifact annotations) — the
    │                     PR-6 telemetry layer's manifest
    ├── metrics.jsonl     telemetry spans/counters for the whole run
    ├── summary.json      per-deliverable digests, timings, check results,
    │                     aggregated engine stats
    └── tables/
        ├── <id>.json     canonical payload + digest (golden format)
        ├── <id>.csv      machine-readable cells, full precision
        └── <id>.md       GitHub-Markdown rendering

With ``check=True`` the regenerated payloads are diffed against the
committed goldens under ``artifact/expected/`` (see
:mod:`repro.artifact.check`); with ``update_expected=True`` the goldens
and the manifest's ``expected_digest`` fields are rewritten from this run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.artifact.check import CheckReport, DeliverableCheck, check_deliverable, load_expected
from repro.artifact.manifest import (
    ArtifactManifest,
    Deliverable,
    load_manifest,
    payload_digest,
)
from repro.errors import ArtifactError
from repro.reporting.experiments import ALL_EXPERIMENTS, ExperimentArtifact, run_experiment

TABLES_DIRNAME = "tables"
SUMMARY_NAME = "summary.json"

#: EngineStats fields summed across the engine runs one reproduction makes
#: (the suite campaign plus one sweep per sensitivity deliverable).
_STATS_FIELDS = (
    "benchmarks",
    "predictors",
    "traces_computed",
    "traces_cached",
    "simulations_computed",
    "simulations_cached",
    "windows_computed",
    "windows_cached",
    "total_seconds",
    "trace_seconds",
    "simulate_seconds",
    "cache_hit_bytes",
    "cache_write_bytes",
)


def result_payload(deliverable: Deliverable, artifact: ExperimentArtifact) -> dict:
    """The canonical (digest-covered) payload of one regenerated deliverable."""
    return {
        "identifier": deliverable.identifier,
        "title": artifact.title,
        "grids": [grid.to_payload() for grid in artifact.grids],
    }


@dataclass
class DeliverableRun:
    """One deliverable's regeneration within a reproduction run."""

    deliverable: Deliverable
    artifact: ExperimentArtifact
    payload: dict
    digest: str
    seconds: float
    files: dict[str, str] = field(default_factory=dict)
    check: DeliverableCheck | None = None

    def to_payload(self) -> dict:
        return {
            "identifier": self.deliverable.identifier,
            "kind": self.deliverable.kind,
            "title": self.artifact.title,
            "experiment": self.deliverable.experiment,
            "params": dict(self.deliverable.params),
            "digest": self.digest,
            "expected_digest": self.deliverable.expected_digest,
            "seconds": self.seconds,
            "files": dict(self.files),
            "check": self.check.to_payload() if self.check is not None else None,
        }


@dataclass
class ReproductionReport:
    """Everything one :func:`reproduce` call produced."""

    run_id: str
    run_dir: Path
    manifest: ArtifactManifest
    manifest_digest: str
    runs: list[DeliverableRun]
    stats: object | None
    check_report: CheckReport | None
    summary: dict

    @property
    def ok(self) -> bool:
        return self.check_report is None or self.check_report.ok


def _allocate_run_dir(out_dir: str | Path, run_id: str | None) -> tuple[Path, str]:
    """Create ``out_dir/<run-id>/`` (suffixing on the rare collision)."""
    from repro.engine.telemetry import default_run_id

    root = Path(out_dir)
    base = run_id or default_run_id()
    candidate, suffix = base, 1
    while (root / candidate).exists():
        suffix += 1
        candidate = f"{base}-{suffix}"
    run_dir = root / candidate
    run_dir.mkdir(parents=True)
    return run_dir, candidate


def _resolved_params(deliverable: Deliverable, scale: float | None) -> dict:
    """The experiment kwargs, with an optional whole-run scale override."""
    factory = ALL_EXPERIMENTS.get(deliverable.experiment)
    if factory is None:
        raise ArtifactError(
            f"deliverable {deliverable.identifier!r} names unknown experiment "
            f"{deliverable.experiment!r}; known: {', '.join(sorted(ALL_EXPERIMENTS))}"
        )
    params = dict(deliverable.params)
    if scale is not None and "scale" in factory.__code__.co_varnames:
        params["scale"] = scale
    return params


def _aggregate_stats(stats_list: Sequence[object]) -> object | None:
    """Sum EngineStats across the distinct engine runs one reproduction made."""
    if not stats_list:
        return None
    from repro.engine.scheduler import EngineStats

    total = EngineStats()
    for stats in stats_list:
        for name in _STATS_FIELDS:
            setattr(total, name, getattr(total, name) + getattr(stats, name, 0))
    return total


def _stats_payload(stats: object | None) -> dict | None:
    if stats is None:
        return None
    return {name: getattr(stats, name) for name in _STATS_FIELDS}


def _write_deliverable_files(
    run_dir: Path, run: DeliverableRun
) -> None:
    """Write tables/<id>.{json,csv,md}; records relative paths on the run."""
    tables_dir = run_dir / TABLES_DIRNAME
    tables_dir.mkdir(exist_ok=True)
    identifier = run.deliverable.identifier
    json_path = tables_dir / f"{identifier}.json"
    json_path.write_text(
        json.dumps({**run.payload, "digest": run.digest}, indent=2) + "\n", encoding="utf-8"
    )
    csv_parts = []
    for grid in run.artifact.grids:
        if grid.title:
            csv_parts.append(f"# {grid.title}\n")
        csv_parts.append(grid.to_csv())
    (tables_dir / f"{identifier}.csv").write_text("".join(csv_parts), encoding="utf-8")
    markdown = "\n\n".join(grid.to_markdown() for grid in run.artifact.grids) + "\n"
    (tables_dir / f"{identifier}.md").write_text(markdown, encoding="utf-8")
    run.files = {
        "json": f"{TABLES_DIRNAME}/{identifier}.json",
        "csv": f"{TABLES_DIRNAME}/{identifier}.csv",
        "markdown": f"{TABLES_DIRNAME}/{identifier}.md",
    }


def _update_expected(manifest: ArtifactManifest, runs: Sequence[DeliverableRun]) -> Path:
    """Rewrite the committed goldens and manifest digests from this run."""
    expected_dir = manifest.expected_dir()
    expected_dir.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}
    for run in runs:
        path = expected_dir / f"{run.deliverable.identifier}.json"
        path.write_text(
            json.dumps({**run.payload, "digest": run.digest}, indent=2) + "\n", encoding="utf-8"
        )
        digests[run.deliverable.identifier] = run.digest
    updated = manifest.with_digests(digests)
    updated.save()
    manifest.deliverables = updated.deliverables
    return expected_dir


def reproduce(
    manifest: ArtifactManifest | str | Path | None = None,
    *,
    only: Sequence[str] | None = None,
    out_dir: str | Path = "results",
    check: bool = False,
    update_expected: bool = False,
    scale: float | None = None,
    run_id: str | None = None,
    argv: list[str] | None = None,
) -> ReproductionReport:
    """Regenerate the manifest's deliverables into ``out_dir/<run-id>/``.

    Engine configuration (backend, jobs, kernel, shard window, cache)
    comes from the process-wide defaults
    (:func:`repro.simulation.campaign.set_campaign_defaults` — the CLI's
    engine flags); telemetry for the run is recorded into the results
    directory itself, never a separate ``--telemetry-dir``.

    ``scale`` overrides every scale-taking deliverable's parameter — for
    exploratory runs only, so it refuses to combine with ``check`` or
    ``update_expected`` (goldens pin the manifest's own parameters).
    """
    import repro.simulation.campaign as campaign
    from repro.engine.telemetry import RunTelemetry

    if scale is not None and (check or update_expected):
        raise ArtifactError("--scale overrides the manifest; it cannot combine with --check or --update-expected")
    if not isinstance(manifest, ArtifactManifest):
        manifest = load_manifest(manifest)
    deliverables = manifest.select(only)
    manifest_digest = payload_digest(manifest.to_payload())

    run_dir, run_id = _allocate_run_dir(out_dir, run_id)
    telemetry = RunTelemetry(run_dir, run_id=run_id, command="reproduce", argv=argv)
    telemetry.annotate(
        artifact_manifest=str(manifest.path) if manifest.path else None,
        artifact_manifest_digest=manifest_digest,
        artifact_deliverables=[d.identifier for d in deliverables],
        artifact_scale_override=scale,
        artifact_check=check,
        # The substrate is fully deterministic: workloads and traces are
        # functions of (benchmark, scale, input, flags) alone, with no
        # free-running RNG seed to record.
        deterministic=True,
    )
    engine_config, prior_telemetry = campaign.campaign_defaults()
    campaign.set_campaign_defaults(engine_config, telemetry=telemetry)

    runs: list[DeliverableRun] = []
    check_report = CheckReport() if check else None
    expected_dir = manifest.expected_dir() if check else None
    stats_seen: list[object] = []
    stats_ids: set[int] = set()
    try:
        with telemetry.span("reproduce", deliverables=len(deliverables)):
            for deliverable in deliverables:
                params = _resolved_params(deliverable, scale)
                started = perf_counter()
                with telemetry.span(
                    "artifact.deliverable",
                    deliverable=deliverable.identifier,
                    experiment=deliverable.experiment,
                ):
                    artifact = run_experiment(deliverable.experiment, **params)
                seconds = perf_counter() - started
                payload = result_payload(deliverable, artifact)
                run = DeliverableRun(
                    deliverable=deliverable,
                    artifact=artifact,
                    payload=payload,
                    digest=payload_digest(payload),
                    seconds=seconds,
                )
                _write_deliverable_files(run_dir, run)
                if check_report is not None:
                    expected = load_expected(expected_dir, deliverable)
                    run.check = check_deliverable(deliverable, payload, expected)
                    check_report.checks.append(run.check)
                telemetry.count("artifact.deliverables")
                runs.append(run)
                stats = campaign.last_engine_stats()
                if stats is not None and id(stats) not in stats_ids:
                    stats_ids.add(id(stats))
                    stats_seen.append(stats)
        if update_expected:
            _update_expected(manifest, runs)
        stats = _aggregate_stats(stats_seen)
        summary = {
            "run_id": run_id,
            "artifact_manifest": str(manifest.path) if manifest.path else None,
            "artifact_manifest_digest": manifest_digest,
            "paper": manifest.paper,
            "scale_override": scale,
            "checked": check,
            "ok": check_report.ok if check_report is not None else True,
            "deliverables": [run.to_payload() for run in runs],
            "engine_stats": _stats_payload(stats),
        }
        (run_dir / SUMMARY_NAME).write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        telemetry.annotate(
            artifact_summary=SUMMARY_NAME,
            artifact_ok=summary["ok"],
        )
    finally:
        telemetry.close()
        # Later engine runs in this process must not write into this run's
        # (now closed) sink — restore whatever default was active before.
        campaign.set_campaign_defaults(engine_config, telemetry=prior_telemetry)

    return ReproductionReport(
        run_id=run_id,
        run_dir=run_dir,
        manifest=manifest,
        manifest_digest=manifest_digest,
        runs=runs,
        stats=stats,
        check_report=check_report,
        summary=summary,
    )
