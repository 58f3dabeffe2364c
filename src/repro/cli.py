"""Command-line front end: ``repro-vp`` / ``python -m repro``.

Subcommands
-----------
``reproduce``
    One-command reproduction artifact: regenerate every paper deliverable
    from the committed ``artifact/manifest.json`` into an isolated
    ``results/<run-id>/`` directory, optionally checking the numbers
    cell-by-cell against the committed goldens (``--check``); see
    ``docs/reproducing.md`` and ``ARTIFACTS.md``.
``experiments``
    Regenerate one, several or all of the paper's tables and figures.
``campaign``
    Run the whole suite-wide campaign through the execution engine, with
    ``--jobs`` worker processes and an optional persistent ``--cache-dir``.
``sweep``
    Run a parameter sweep (inputs × flags × predictors/orders) over one
    benchmark through the same engine and cache (see ``docs/sweeps.md``).
``cache``
    Inspect and manage a persistent result cache: ``stats``, ``gc``,
    ``clear``, ``verify`` (see ``docs/cache-layout.md``).
``inspect``
    Summarize a recorded telemetry run directory (written by
    ``--telemetry-dir``): phase breakdown, slowest tasks, cache hit
    ratio (see ``docs/observability.md``).
``simulate``
    Run a chosen set of predictors over one benchmark and print accuracy.
``workloads`` / ``predictors``
    List the available benchmarks and predictor configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Sequence

from repro.core.registry import PAPER_PREDICTORS, available_predictors, create_predictor
from repro.engine.backends import BACKEND_NAMES
from repro.engine.cache import ResultCache
from repro.engine.config import EngineConfig
from repro.engine.progress import ConsoleProgress
from repro.errors import DispatchError, UnknownPredictorError, WorkloadError
from repro.engine.scheduler import ExecutionEngine
from repro.engine.sweeps import SweepSpec
from repro.isa.opcodes import REPORTED_CATEGORIES
from repro.reporting.experiments import ALL_EXPERIMENTS, run_experiment
from repro.reporting.tables import format_table
from repro.simulation.campaign import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    set_campaign_defaults,
)
from repro.simulation.simulator import simulate_trace
from repro.workloads.suite import BENCHMARK_ORDER, get_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-vp",
        description="Reproduction of 'The Predictability of Data Values' (MICRO-30, 1997)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    reproduce = subparsers.add_parser(
        "reproduce",
        help="regenerate the paper's deliverables from the committed artifact manifest",
    )
    reproduce.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="SELECTOR",
        help="restrict to matching deliverables: identifiers (table2, figure3), "
        "the groups 'tables'/'figures', or globs like 'table*' "
        "(default: everything in the manifest)",
    )
    reproduce.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="parent directory for the isolated results/<run-id>/ directory "
        "(default: results)",
    )
    reproduce.add_argument(
        "--check",
        action="store_true",
        help="diff the regenerated numbers cell-by-cell against the committed "
        "goldens under artifact/expected/ and exit non-zero on any mismatch",
    )
    reproduce.add_argument(
        "--update-expected",
        action="store_true",
        help="rewrite the committed goldens and the manifest's expected digests "
        "from this run (maintainers only, after a reviewed numbers change)",
    )
    reproduce.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="artifact manifest to reproduce (default: the committed "
        "artifact/manifest.json, located from the working directory upward)",
    )
    reproduce.add_argument(
        "--list",
        action="store_true",
        dest="list_deliverables",
        help="list the manifest's deliverables (after --only filtering) and exit",
    )
    reproduce.add_argument(
        "--scale",
        type=_parse_scale,
        default=None,
        help="override every scale-taking deliverable's workload scale "
        "(exploratory runs only; incompatible with --check/--update-expected)",
    )
    _add_engine_arguments(reproduce)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "names",
        nargs="*",
        default=[],
        help=f"experiment identifiers (default: all of {', '.join(sorted(ALL_EXPERIMENTS))})",
    )
    experiments.add_argument(
        "--scale",
        type=_parse_scale,
        default=None,
        help=f"workload scale factor (default {DEFAULT_SCALE}; --quick uses {QUICK_SCALE})",
    )
    experiments.add_argument(
        "--quick", action="store_true", help="use the reduced quick-run scale"
    )
    _add_engine_arguments(experiments)

    campaign = subparsers.add_parser(
        "campaign",
        help="run the suite-wide campaign through the parallel execution engine",
    )
    campaign.add_argument(
        "--scale",
        type=_parse_scale,
        default=None,
        help=f"workload scale factor (default {DEFAULT_SCALE}; --quick uses {QUICK_SCALE})",
    )
    campaign.add_argument(
        "--quick", action="store_true", help="use the reduced quick-run scale"
    )
    campaign.add_argument(
        "--predictors",
        nargs="+",
        default=list(PAPER_PREDICTORS),
        help="predictor names (see the 'predictors' subcommand)",
    )
    campaign.add_argument(
        "--benchmarks",
        nargs="+",
        default=list(BENCHMARK_ORDER),
        choices=BENCHMARK_ORDER,
        help="benchmarks to run (default: the full suite)",
    )
    campaign.add_argument(
        "--progress", action="store_true", help="print live task progress to stderr"
    )
    _add_engine_arguments(campaign)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a parameter sweep (inputs × flags × predictors) over one benchmark",
    )
    sweep.add_argument(
        "--benchmark",
        default="gcc",
        choices=BENCHMARK_ORDER,
        help="benchmark to sweep (default: gcc, as in the paper's Section 4.4)",
    )
    sweep.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        choices=BENCHMARK_ORDER,
        metavar="NAME",
        help="benchmark axis (multiple benchmarks; overrides --benchmark); "
        "shared traces are deduplicated across the axis",
    )
    sweep.add_argument(
        "--predictors",
        nargs="+",
        default=["fcm2"],
        help="predictor axis (default: fcm2; see the 'predictors' subcommand)",
    )
    sweep.add_argument(
        "--orders",
        nargs="+",
        type=int,
        default=None,
        metavar="N",
        help="fcm-order axis; shorthand for --predictors fcmN... (overrides it)",
    )
    sweep.add_argument(
        "--inputs",
        nargs="+",
        default=None,
        metavar="NAME",
        help="input-set axis; 'all' expands to every input of the benchmark "
        "(default: the benchmark's reference input)",
    )
    sweep.add_argument(
        "--flags",
        nargs="+",
        default=None,
        metavar="NAME",
        help="flag-setting axis; 'all' expands to every flag setting "
        "(default: the benchmark's reference flags)",
    )
    sweep.add_argument(
        "--scale",
        type=_parse_scale,
        default=None,
        help=f"workload scale factor (default {DEFAULT_SCALE}; --quick uses {QUICK_SCALE})",
    )
    sweep.add_argument(
        "--quick", action="store_true", help="use the reduced quick-run scale"
    )
    sweep.add_argument(
        "--progress", action="store_true", help="print live task progress to stderr"
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="emit the sweep points and engine stats as JSON instead of a table",
    )
    _add_engine_arguments(sweep)

    cache = subparsers.add_parser(
        "cache", help="inspect and manage a persistent result cache"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="per-kind entry counts and byte footprints"
    )
    cache_stats.add_argument(
        "--fail-if-empty",
        action="store_true",
        help="exit non-zero when the cache holds no entries (CI assertion)",
    )
    cache_stats.add_argument(
        "--fail-if-over",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="exit non-zero when the cache exceeds SIZE (e.g. 64KB, 10MB)",
    )
    cache_gc = cache_commands.add_parser(
        "gc", help="evict least-recently-used / expired entries"
    )
    cache_gc.add_argument(
        "--max-bytes",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="evict LRU entries until the cache fits SIZE (e.g. 64KB, 10MB)",
    )
    cache_gc.add_argument(
        "--max-age",
        type=_parse_age,
        default=None,
        metavar="AGE",
        help="evict entries idle longer than AGE (e.g. 3600, 30m, 12h, 7d)",
    )
    cache_clear = cache_commands.add_parser("clear", help="remove every cache entry")
    cache_verify = cache_commands.add_parser(
        "verify", help="check every entry decodes and matches its digest"
    )
    cache_verify.add_argument(
        "--remove", action="store_true", help="delete corrupt entries instead of reporting them"
    )
    for sub in (cache_stats, cache_gc, cache_clear, cache_verify):
        sub.add_argument(
            "--cache-dir", required=True, help="result cache directory to operate on"
        )

    inspect = subparsers.add_parser(
        "inspect",
        help="summarize a telemetry run directory written by --telemetry-dir",
    )
    inspect.add_argument(
        "run_dir",
        help="run directory holding manifest.json and metrics.jsonl",
    )
    inspect.add_argument(
        "--json",
        action="store_true",
        help="emit the full summary as JSON instead of tables",
    )
    inspect.add_argument(
        "--slowest",
        type=int,
        default=10,
        metavar="N",
        help="number of slowest tasks to list (default 10)",
    )

    simulate = subparsers.add_parser("simulate", help="simulate predictors over one benchmark")
    simulate.add_argument("benchmark", choices=BENCHMARK_ORDER)
    simulate.add_argument(
        "--predictors",
        nargs="+",
        default=list(PAPER_PREDICTORS),
        help="predictor names (see the 'predictors' subcommand)",
    )
    simulate.add_argument("--scale", type=_parse_scale, default=QUICK_SCALE)
    simulate.add_argument("--input", default=None, help="named input set for the benchmark")

    subparsers.add_parser("workloads", help="list the available benchmarks")
    subparsers.add_parser("predictors", help="list the available predictor configurations")
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Engine options shared by the campaign-backed subcommands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for tracing/simulation (default 1: in-process)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="executor backend: 'serial' runs in-process (no pickling), 'pool' "
        "starts a fresh worker pool per dispatch, 'persistent' keeps warm "
        "worker processes across phases and runs (default: serial when "
        "--jobs is 1, pool otherwise); results are identical across backends",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache directory (default: no on-disk cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore all caches and recompute every work unit",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="auto-GC the cache down to SIZE after the run (e.g. 64KB, 10MB); "
        "entries produced by the run itself are never evicted",
    )
    parser.add_argument(
        "--cache-max-age",
        type=_parse_age,
        default=None,
        metavar="AGE",
        help="auto-GC entries idle longer than AGE after the run (e.g. 30m, 7d)",
    )
    # Parsed and ignored: the benchmark harness under perfbench/ still
    # passes "--kernel vector"; the benchmark-only change that drops the
    # flag from perfbench/ deletes this option.
    parser.add_argument("--kernel", choices=("vector",), help=argparse.SUPPRESS)
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="record run telemetry (manifest.json + metrics.jsonl) into DIR; "
        "summarize it later with 'repro-vp inspect DIR' "
        "(results are identical with or without telemetry)",
    )


_SIZE_UNITS = {"": 1, "B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3}
_AGE_UNITS = {"": 1, "S": 1, "M": 60, "H": 3600, "D": 86400}


def _parse_size(text: str) -> int:
    """Parse a byte size like ``"65536"``, ``"64KB"`` or ``"1.5MB"``."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([A-Za-z]*)\s*", text)
    unit = match.group(2).upper() if match else None
    if match is None or unit not in _SIZE_UNITS:
        raise argparse.ArgumentTypeError(f"invalid size {text!r} (expected e.g. 64KB, 10MB)")
    return int(float(match.group(1)) * _SIZE_UNITS[unit])


def _parse_age(text: str) -> float:
    """Parse an age like ``"3600"``, ``"30m"``, ``"12h"`` or ``"7d"`` into seconds."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([A-Za-z]*)\s*", text)
    unit = match.group(2).upper() if match else None
    if match is None or unit not in _AGE_UNITS:
        raise argparse.ArgumentTypeError(f"invalid age {text!r} (expected e.g. 3600, 30m, 12h)")
    return float(match.group(1)) * _AGE_UNITS[unit]


def _parse_scale(text: str) -> float:
    """Parse ``--scale``: a positive, finite workload scale factor."""
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise argparse.ArgumentTypeError(
            f"invalid scale {text!r} (expected a positive finite number)"
        )
    return scale


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """Build the engine configuration from the shared engine flags.

    The one place ``reproduce``, ``experiments``, ``campaign`` and
    ``sweep`` turn their flags into an :class:`EngineConfig`.
    """
    return EngineConfig(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        cache_max_bytes=args.cache_max_bytes,
        cache_max_age=args.cache_max_age,
        backend=args.backend,
    )


def _telemetry_from_arguments(args: argparse.Namespace, command: str):
    """Build the run's telemetry sink from ``--telemetry-dir`` (or ``None``).

    The caller owns the sink's lifetime: close it after the run so the
    counters flush and the manifest gets its ``finished_wall`` stamp.
    """
    if getattr(args, "telemetry_dir", None) is None:
        return None
    from repro.engine.telemetry import RunTelemetry

    return RunTelemetry(args.telemetry_dir, command=command)


def _command_reproduce(args: argparse.Namespace, argv: Sequence[str] | None) -> int:
    from repro.artifact import reproduce
    from repro.artifact.manifest import load_manifest
    from repro.errors import ArtifactError

    config = _engine_config(args)
    if args.telemetry_dir is not None:
        print(
            "reproduce records telemetry into the results directory itself "
            "(results/<run-id>/manifest.json + metrics.jsonl); --telemetry-dir does not apply",
            file=sys.stderr,
        )
        return 2
    try:
        manifest = load_manifest(args.manifest)
        deliverables = manifest.select(args.only)
    except ArtifactError as error:
        print(error, file=sys.stderr)
        return 2
    if args.list_deliverables:
        rows = [
            [d.identifier, d.kind, d.experiment, "yes" if d.expected_digest else "no", d.title]
            for d in deliverables
        ]
        print(
            format_table(
                ["deliverable", "kind", "experiment", "golden", "title"],
                rows,
                title=f"Artifact manifest — {manifest.paper} ({manifest.path})",
            )
        )
        return 0
    set_campaign_defaults(config)
    try:
        report = reproduce(
            manifest,
            only=args.only,
            out_dir=args.out,
            check=args.check,
            update_expected=args.update_expected,
            scale=args.scale,
            argv=list(argv) if argv is not None else sys.argv[1:],
        )
    except ArtifactError as error:
        print(error, file=sys.stderr)
        return 2
    except DispatchError as error:
        # Backend infrastructure failed; completed units are cached, so a
        # rerun resumes where this one stopped (same surface as campaign).
        print(error, file=sys.stderr)
        return 1
    headers = ["deliverable", "kind", "digest", "seconds"]
    if report.check_report is not None:
        headers.append("check")
    rows = []
    for run in report.runs:
        row: list[object] = [
            run.deliverable.identifier,
            run.deliverable.kind,
            run.digest[:12],
            f"{run.seconds:.2f}",
        ]
        if report.check_report is not None:
            row.append(run.check.status if run.check is not None else "?")
        rows.append(row)
    print(
        format_table(
            headers,
            rows,
            title=f"Reproduce — {len(report.runs)} deliverable(s) → {report.run_dir}",
        )
    )
    if report.stats is not None:
        print(_stats_line(report.stats))
    if args.update_expected:
        print(
            f"updated goldens under {manifest.expected_dir()} "
            f"and expected digests in {manifest.path}"
        )
    if report.check_report is not None:
        if not report.check_report.ok:
            print(report.check_report.render(), file=sys.stderr)
            return 1
        print(report.check_report.render())
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    names = args.names or sorted(ALL_EXPERIMENTS)
    config = _engine_config(args)
    telemetry = _telemetry_from_arguments(args, "experiments")
    set_campaign_defaults(config, telemetry=telemetry)
    scale = QUICK_SCALE if args.quick and args.scale is None else args.scale
    try:
        for name in names:
            kwargs = {}
            factory = ALL_EXPERIMENTS.get(name)
            if factory is None:
                print(f"unknown experiment {name!r}", file=sys.stderr)
                return 2
            if "scale" in factory.__code__.co_varnames and scale is not None:
                kwargs["scale"] = scale
            try:
                artifact = run_experiment(name, **kwargs)
            except DispatchError as error:
                # Same surface as campaign/sweep: a dead worker is an
                # operational error, not a crash; completed units are cached.
                print(error, file=sys.stderr)
                return 1
            print(artifact.render())
            print()
    finally:
        if telemetry is not None:
            telemetry.close()
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    try:
        for name in args.predictors:
            create_predictor(name)
    except UnknownPredictorError as error:
        print(error, file=sys.stderr)
        return 2
    scale = args.scale
    if scale is None:
        scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    telemetry = _telemetry_from_arguments(args, "campaign")
    try:
        with ExecutionEngine(
            config,
            telemetry=telemetry,
            progress=ConsoleProgress() if args.progress else None,
        ) as engine:
            try:
                result = engine.run(
                    scale=scale, predictors=tuple(args.predictors), benchmarks=tuple(args.benchmarks)
                )
            except DispatchError as error:
                # Backend infrastructure failed (a worker process died);
                # completed units are already cached, so a rerun resumes
                # where this one stopped.
                print(error, file=sys.stderr)
                return 1
    finally:
        if telemetry is not None:
            telemetry.close()
    rows = []
    for benchmark in result.benchmarks():
        simulation = result.simulations[benchmark]
        rows.append(
            [benchmark, result.statistics[benchmark].predicted_instructions]
            + [simulation.results[name].accuracy for name in result.predictor_names]
        )
    print(
        format_table(
            ["benchmark", "predicted instr."] + list(result.predictor_names),
            rows,
            title=f"Campaign — overall accuracy (%) at scale {scale}, jobs={config.jobs}",
        )
    )
    print(_stats_line(engine.stats))
    return 0


def _stats_line(stats) -> str:
    """The one-line run summary CI greps for (shared across subcommands).

    Extensions append after the greppable prefix — the ``traces: ...;
    simulations: ...`` phrasing is load-bearing for CI's cache-reuse
    assertions and must not change shape.
    """
    line = (
        f"traces: {stats.traces_computed} computed, {stats.traces_cached} cached; "
        f"simulations: {stats.simulations_computed} computed, "
        f"{stats.simulations_cached} cached"
    )
    line += f"; wall time {stats.total_seconds:.2f}s"
    line += (
        f" (trace {stats.trace_seconds:.2f}s, simulate {stats.simulate_seconds:.2f}s)"
    )
    if stats.cache_hit_bytes or stats.cache_write_bytes:
        line += (
            f"; cache {stats.cache_hit_bytes} B read, "
            f"{stats.cache_write_bytes} B written"
        )
    return line


def _command_sweep(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    predictors = (
        tuple(f"fcm{order}" for order in args.orders)
        if args.orders
        else tuple(args.predictors)
    )
    try:
        for name in predictors:
            create_predictor(name)
    except UnknownPredictorError as error:
        print(error, file=sys.stderr)
        return 2
    scale = args.scale
    if scale is None:
        scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    spec = SweepSpec(
        benchmark=args.benchmark,
        scale=scale,
        inputs=_resolve_axis(args.inputs),
        flags=_resolve_axis(args.flags),
        predictors=predictors,
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
    )
    telemetry = _telemetry_from_arguments(args, "sweep")
    try:
        with ExecutionEngine(
            config,
            telemetry=telemetry,
            progress=ConsoleProgress() if args.progress else None,
        ) as engine:
            try:
                result = engine.run_sweep(spec)
            except WorkloadError as error:
                print(error, file=sys.stderr)
                return 2
            except DispatchError as error:
                print(error, file=sys.stderr)
                return 1
    finally:
        if telemetry is not None:
            telemetry.close()
    if args.json:
        print(json.dumps(_sweep_as_json(result), indent=2))
        return 0
    rows = [
        [
            entry.point.benchmark,
            entry.point.input_name,
            entry.point.flags,
            entry.point.predictor,
            entry.record_count,
            entry.accuracy,
        ]
        for entry in result.points
    ]
    print(
        format_table(
            ["benchmark", "input", "flags", "predictor", "predictions", "accuracy (%)"],
            rows,
            title=(
                f"Sweep — {', '.join(spec.benchmark_axis())} at scale {scale}, "
                f"jobs={config.jobs} ({len(result.points)} points)"
            ),
        )
    )
    print(_stats_line(engine.stats))
    return 0


def _resolve_axis(requested: list[str] | None) -> tuple[str | None, ...]:
    """Map a CLI axis argument to spec values (absent means the default).

    The literal ``all`` passes through: :meth:`SweepSpec.points` expands it
    against each benchmark's own declared sets, which is what makes
    ``--benchmarks a b --inputs all`` mean "every input of each".
    """
    if requested is None:
        return (None,)
    return tuple(requested)


def _sweep_as_json(result) -> dict:
    spec, stats = result.spec, result.stats
    return {
        "spec": {
            "benchmark": spec.benchmark,
            "benchmarks": list(spec.benchmark_axis()),
            "scale": spec.scale,
            "inputs": list(spec.inputs),
            "flags": list(spec.flags),
            "predictors": list(spec.predictors),
        },
        "points": [
            {
                "benchmark": entry.point.benchmark,
                "input": entry.point.input_name,
                "flags": entry.point.flags,
                "predictor": entry.point.predictor,
                "predictions": entry.record_count,
                "accuracy": entry.accuracy,
            }
            for entry in result.points
        ],
        "stats": {
            "traces_computed": stats.traces_computed,
            "traces_cached": stats.traces_cached,
            "simulations_computed": stats.simulations_computed,
            "simulations_cached": stats.simulations_cached,
            "total_seconds": stats.total_seconds,
            "trace_seconds": stats.trace_seconds,
            "simulate_seconds": stats.simulate_seconds,
            "cache_hit_bytes": stats.cache_hit_bytes,
            "cache_write_bytes": stats.cache_write_bytes,
        },
    }


def _command_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        return _cache_stats(cache, args)
    if args.cache_command == "gc":
        return _cache_gc(cache, args)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0
    if args.cache_command == "verify":
        return _cache_verify(cache, args)
    return 2


def _cache_stats(cache: ResultCache, args: argparse.Namespace) -> int:
    stats = cache.stats()
    rows = [
        [kind, kind_stats.entries, kind_stats.bytes]
        for kind, kind_stats in sorted(stats.kinds.items())
    ]
    print(format_table(["kind", "entries", "bytes"], rows, title=f"Cache {cache.root}"))
    print(f"total: {stats.entries} entries, {stats.bytes} bytes")
    if args.fail_if_empty and stats.entries == 0:
        print("cache is empty", file=sys.stderr)
        return 1
    if args.fail_if_over is not None and stats.bytes > args.fail_if_over:
        print(f"cache exceeds {args.fail_if_over} bytes ({stats.bytes} stored)", file=sys.stderr)
        return 1
    return 0


def _cache_gc(cache: ResultCache, args: argparse.Namespace) -> int:
    if args.max_bytes is None and args.max_age is None:
        print("cache gc: pass --max-bytes and/or --max-age", file=sys.stderr)
        return 2
    report = cache.gc(max_bytes=args.max_bytes, max_age=args.max_age)
    print(
        f"removed {report.removed_entries} entries, freed {report.freed_bytes} bytes; "
        f"{report.remaining_entries} entries, {report.remaining_bytes} bytes remain"
    )
    return 0


def _cache_verify(cache: ResultCache, args: argparse.Namespace) -> int:
    report = cache.verify(remove=args.remove)
    if report.ok:
        print(f"checked {report.checked} entries: all ok")
        return 0
    for path in report.corrupt:
        action = "removed" if args.remove else "corrupt"
        print(f"{action}: {path}", file=sys.stderr)
    print(
        f"checked {report.checked} entries: {len(report.corrupt)} corrupt"
        + (" (removed)" if args.remove else "")
    )
    return 0 if args.remove else 1


def _command_inspect(args: argparse.Namespace) -> int:
    from repro.engine.telemetry import STAGE_KEYS, summarize_run

    try:
        summary = summarize_run(args.run_dir)
    except FileNotFoundError as error:
        print(f"not a telemetry run directory: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        print(f"unreadable telemetry run: {error}", file=sys.stderr)
        return 2
    # Tolerated damage (missing manifest, truncated metrics) is reported
    # one line per problem; the partial summary still renders below and
    # the exit code flags the run as incomplete.
    problems = summary.get("problems", ())
    for problem in problems:
        print(f"inspect: {problem}", file=sys.stderr)
    status = 1 if problems else 0
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
        return status

    manifest = summary["manifest"]
    print(f"run {manifest.get('run_id')} — {manifest.get('command') or 'unknown command'}")
    for field in ("created", "backend", "jobs", "cache_dir", "package_version"):
        value = manifest.get(field)
        if value is not None:
            print(f"  {field}: {value}")

    if summary["phases"]:
        rows = [
            [
                phase.get("phase", "?"),
                phase.get("backend", "?"),
                phase.get("total", 0),
                phase.get("cached", 0),
                phase.get("computed", 0),
                phase.get("seconds", 0.0),
            ]
            for phase in summary["phases"]
        ]
        print()
        print(
            format_table(
                ["phase", "backend", "total", "cached", "computed", "seconds"],
                rows,
                title="Phases",
            )
        )

    slowest = summary["tasks"][: max(0, args.slowest)]
    if slowest:
        rows = [
            [
                task.get("phase", "?"),
                task.get("label", "?"),
                task.get("worker_pid", ""),
                task.get("seconds", 0.0),
                *(task.get(stage, "") for stage in STAGE_KEYS),
            ]
            for task in slowest
        ]
        print()
        print(
            format_table(
                ["phase", "task", "worker pid", "execute seconds", "trace s", "simulate s", "merge s"],
                rows,
                title=f"Slowest tasks (top {len(slowest)} of {len(summary['tasks'])})",
            )
        )

    cache = summary["cache"]
    print()
    if cache["hits"] or cache["misses"] or cache["writes"]:
        ratio = cache["hit_ratio"]
        print(
            f"cache: {cache['hits']} hit(s) / {cache['misses']} miss(es)"
            + (f" ({ratio:.0%} hit ratio)" if ratio is not None else "")
            + f", {cache['hit_bytes']} B read, {cache['writes']} write(s), "
            f"{cache['write_bytes']} B written"
        )
        if cache["gc_removed"]:
            print(
                f"cache gc: {cache['gc_removed']} entries removed, "
                f"{cache['gc_freed_bytes']} B freed"
            )
    else:
        print("cache: no activity recorded")
    return status


def _command_simulate(args: argparse.Namespace) -> int:
    workload = get_workload(args.benchmark)
    trace = workload.trace(scale=args.scale, input_name=args.input)
    result = simulate_trace(trace, tuple(args.predictors))
    rows = []
    for name in result.predictor_names:
        predictor_result = result.results[name]
        row: list[object] = [name, predictor_result.accuracy]
        for category in REPORTED_CATEGORIES:
            row.append(predictor_result.category_accuracy(category))
        rows.append(row)
    headers = ["predictor", "overall (%)"] + [category.value for category in REPORTED_CATEGORIES]
    print(
        format_table(
            headers,
            rows,
            title=f"{args.benchmark}: {len(trace)} predicted instructions (scale {args.scale})",
        )
    )
    return 0


def _command_workloads() -> int:
    rows = []
    for name in BENCHMARK_ORDER:
        workload = get_workload(name)
        rows.append([name, ", ".join(workload.input_sets), workload.description])
    print(format_table(["benchmark", "inputs", "description"], rows, title="Synthetic SPEC95int suite"))
    return 0


def _command_predictors() -> int:
    rows = [[name, "paper line-up" if name in PAPER_PREDICTORS else ""] for name in available_predictors()]
    print(format_table(["predictor", "note"], rows, title="Registered predictors"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by both the console script and ``python -m repro``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce":
        return _command_reproduce(args, argv)
    if args.command == "experiments":
        return _command_experiments(args)
    if args.command == "campaign":
        return _command_campaign(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "inspect":
        return _command_inspect(args)
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "workloads":
        return _command_workloads()
    if args.command == "predictors":
        return _command_predictors()
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
