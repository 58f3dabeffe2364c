"""The repro-vp benchmark: one workload per call, each run a fresh child.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the harness starts one ``repro-vp`` child
process, waits for it to exit, checks its outputs and starts the next,
until ``--seconds`` have passed and at least ``MIN_CHILDREN`` children
have run.  Every child gets fresh scratch cache and output directories
(warm workloads get a fresh copy of a cache filled during set-up), so no
in-process memo or worker pool carries state from one child to the next.

``--trace 0`` prints the end-to-end metrics: medians over the children.
``--trace 1`` also runs one child under ``perfbench/layers.py`` and prints
the per-layer metrics.  Either way the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record (environment, every child's sample) is
written under ``.perfbench/results/``.  See ``perfbench/README.md``.

The substrate is deterministic and has no random inputs, so ``--seed``
only decides where the traced child runs among the untraced ones: after
``seed % (MIN_CHILDREN + 1)`` of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "artifact" / "manifest.json"
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = ROOT / ".perfbench"

#: Children measured per run at the least, however short ``--seconds`` is.
MIN_CHILDREN = 4
#: No child starts once a run has spent this long, so a run ends in time.
RUN_DEADLINE_S = 150.0
#: Fresh interpreters importing ``repro.cli`` during set-up; they also warm
#: the page cache and the bytecode cache before the first measured child.
IMPORT_PROBES = 3

ALL_PREDICTORS = (
    "fcm0 fcm1 fcm2 fcm3 fcm4 fcm5 fcm6 fcm7 fcm8 hybrid-oracle hybrid-s2-fcm3 "
    "hybrid-type-s2-fcm3 l last-value lv-consecutive lv-counter s s2 stride stride-counter"
).split()

STATS_LINE = re.compile(
    r"traces: (\d+) computed, (\d+) cached; simulations: (\d+) computed, (\d+) cached"
)
STATS_FIELDS = ("traces_computed", "traces_cached", "simulations_computed", "simulations_cached")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "cache_disk_bytes": "bytes",
    "setup_s": "s",
}

#: Ledger layer -> per-layer metric, for every self-time layer.
SELF_TIME_LAYERS = {
    "isa.interpret": "isa.interpret_s",
    "trace.collect": "trace.collect_s",
    "trace.text_digest": "trace.text_digest_s",
    "trace.encode": "trace.encode_s",
    "trace.decode_records": "trace.decode_records_s",
    "trace.decode_columns": "trace.decode_columns_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "engine.scheduler": "engine.scheduler_s",
    "engine.trace_phase": "engine.trace_phase_s",
    "engine.simulate_phase": "engine.simulate_phase_s",
    "sweeps.execute": "sweeps.execute_s",
    "backends.map": "backends.map_s",
    "worker.self": "worker.self_s",
    "simulation.kernel": "simulation.kernel_s",
    "simulation.merge": "simulation.merge_s",
    "reporting.self": "reporting.self_s",
    "artifact.self": "artifact.self_s",
    "artifact.check": "artifact.check_s",
    "artifact.write": "artifact.write_s",
    "cli.self": "cli.self_s",
}
COUNT_UNITS = {
    "isa.instructions": "count",
    "trace.records": "count",
    "trace.records_decoded": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.read_bytes": "bytes",
    "cache.write_bytes": "bytes",
    "engine.units_computed": "count",
    "engine.units_cached": "count",
    "backends.dispatches": "count",
    "backends.worker_busy_s": "s",
    "simulation.units": "count",
    "simulation.kernel_fallbacks": "count",
}


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@dataclass
class Workload:
    """One benchmark workload: the command a child runs and how to check it.

    ``template`` names the cache set-up fills once per run and every
    child starts from a copy of (``None``: children start empty).
    """

    name: str
    kind: str  # "reproduce" or "campaign"
    arguments: tuple[str, ...]
    template: str | None = None


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Cold paper reproduction: interpretation and trace collection dominate.
        Workload("reproduce_cold", "reproduce", ("reproduce",)),
        # Warm reproduction: cache reads, trace decode, reporting, start-up.
        Workload("reproduce_warm", "reproduce", ("reproduce",), template="reproduce"),
        # Every registered predictor over cached traces: simulate kernel and merge.
        Workload(
            "predictor_sweep",
            "campaign",
            ("campaign", "--predictors", *ALL_PREDICTORS),
            template="traces",
        ),
        # Cold paper campaign on two persistent workers: process dispatch.
        Workload(
            "campaign_cold_jobs2", "campaign", ("campaign", "--jobs", "2", "--backend", "persistent")
        ),
    )
}


def child_argv(workload: Workload, cache_dir: Path, out_dir: Path, scale: float) -> list[str]:
    argv = [*workload.arguments, "--kernel", "vector", "--cache-dir", str(cache_dir)]
    if workload.kind == "reproduce":
        argv += ["--manifest", str(MANIFEST), "--out", str(out_dir)]
        # --check pins the manifest's own scale; a reduced scale (the
        # harness self-test) regenerates without comparing to goldens.
        argv += ["--check"] if scale == 1.0 else ["--scale", repr(scale)]
    elif scale != 1.0:
        argv += ["--scale", repr(scale)]
    return argv


# --------------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------------- #
@dataclass
class Child:
    """One finished child process and what the harness measured of it."""

    directory: Path
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    cache_disk_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    deliverable_seconds: dict[str, float] = field(default_factory=dict)

    def sample(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "cache_disk_bytes": self.cache_disk_bytes,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
        }


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(command: list[str], directory: Path) -> Child:
    """Run one child to completion; time it and read its own rusage.

    ``os.wait4`` returns the usage of this child and the workers it
    reaped, so peak RSS is per child, not the running maximum that
    ``RUSAGE_CHILDREN`` keeps over every child so far.
    """
    directory.mkdir(parents=True, exist_ok=True)
    stdout_path, stderr_path = directory / "stdout.txt", directory / "stderr.txt"
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(
            command,
            cwd=directory,
            env=child_environment(),
            stdout=stdout,
            stderr=stderr,
            start_new_session=True,
        )
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            # The harness is stopping (SIGTERM, Ctrl-C): take the child and
            # any workers it forked down with it.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        directory=directory,
        exit_code=process.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
    )


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def tree_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def parse_stats(stdout: str) -> dict[str, int] | None:
    match = STATS_LINE.search(stdout)
    if match is None:
        return None
    return dict(zip(STATS_FIELDS, map(int, match.groups())))


def parse_table(stdout: str) -> dict[str, list[str]]:
    """Rows of the campaign's accuracy table, keyed by benchmark."""
    rows = {}
    for line in stdout.splitlines():
        if line.startswith("| ") and not line.startswith("| benchmark "):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return rows


def load_reference(workload: Workload, scale: float) -> dict | None:
    """The committed reference outputs; only the paper scale has one."""
    if scale != 1.0:
        return None
    path = REFERENCE_DIR / f"{workload.name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_child(workload: Workload, child: Child, reference: dict | None, goldens: dict) -> None:
    """Fill in ``attempted``/``failed`` and what went wrong.

    Reproduce: an operation is one deliverable, failed unless ``--check``
    passed it and its digest equals the committed manifest's.  Campaign:
    an operation is one cache entry (trace, simulate or merge unit),
    failed unless its bytes equal the committed reference.  A non-zero
    exit, unexpected computed/cached counts or a wrong accuracy table
    fail every operation of the child.
    """
    cache_dir = child.directory / "cache"
    child.cache_disk_bytes = tree_bytes(cache_dir) if cache_dir.exists() else 0
    if workload.kind == "reproduce":
        child.attempted = len(goldens)
        passed = set()
        summaries = sorted((child.directory / "out").glob("*/summary.json"))
        if len(summaries) == 1:
            summary = json.loads(summaries[0].read_text(encoding="utf-8"))
            for entry in summary["deliverables"]:
                identifier = entry["identifier"]
                child.deliverable_seconds[identifier] = entry["seconds"]
                if reference is None:
                    ok = bool(entry.get("digest"))
                else:
                    ok = (entry.get("check") or {}).get("status") == "ok" and entry[
                        "digest"
                    ] == goldens.get(identifier)
                if ok:
                    passed.add(identifier)
                else:
                    child.problems.append(f"deliverable {identifier} failed its check")
        else:
            child.problems.append(f"expected one summary.json, found {len(summaries)}")
        child.failed = child.attempted - len(passed & set(goldens))
    else:
        entries = tree_digests(cache_dir) if cache_dir.exists() else {}
        if reference is None:
            child.attempted = max(1, len(entries))
        else:
            expected = reference["entries"]
            child.attempted = len(expected)
            wrong = [name for name, digest in expected.items() if entries.get(name) != digest]
            extra = sorted(set(entries) - set(expected))
            child.problems += [f"cache entry {name} differs or is missing" for name in wrong]
            child.problems += [f"unexpected cache entry {name}" for name in extra]
            child.failed = min(child.attempted, len(wrong) + len(extra))
            if parse_table(child.stdout) != reference["table"]:
                child.problems.append("accuracy table differs from the reference")
                child.failed = child.attempted
    if reference is not None:
        stats = parse_stats(child.stdout)
        if stats != reference["stats"]:
            child.problems.append(f"stats line {stats} != expected {reference['stats']}")
            child.failed = child.attempted
    if child.exit_code != 0:
        child.problems.append(f"exit code {child.exit_code}: {child.stderr.strip()[-500:]}")
        child.failed = child.attempted


# --------------------------------------------------------------------------- #
# One benchmark run
# --------------------------------------------------------------------------- #
class Run:
    """Set-up, the measured children and the result of one harness call."""

    def __init__(self, workload: Workload, scale: float, reference: dict | None) -> None:
        self.workload = workload
        self.scale = scale
        self.started = time.perf_counter()
        self.work = WORK_ROOT / "work" / f"{os.getpid()}"
        self.template = self.work / "template"
        self.reference = reference
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        self.goldens = {
            entry["identifier"]: entry.get("expected_digest")
            for entry in manifest["deliverables"]
        }
        self.children: list[Child] = []
        self.traced: Child | None = None
        self.ledger: dict | None = None
        self.import_s: list[float] = []
        self.probe: dict = {}
        self.setup_s = 0.0

    # -- set-up ---------------------------------------------------------- #
    def set_up(self) -> None:
        started = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for index in range(IMPORT_PROBES):
            probe = spawn([sys.executable, "-c", PROBE], self.work / f"probe{index}")
            if probe.exit_code != 0:
                raise SystemExit(f"cannot import repro from {SRC}: {probe.stderr.strip()}")
            self.probe = json.loads(probe.stdout.strip().splitlines()[-1])
            self.import_s.append(self.probe["import_s"])
        if self.workload.template == "reproduce":
            self._fill_template(WORKLOADS["reproduce_cold"])
        elif self.workload.template == "traces":
            filler = Workload("traces", "campaign", ("campaign", "--predictors", "l"))
            self._fill_template(filler)
            for kind in ("simulate", "merge"):
                shutil.rmtree(self.template / kind)
        self.setup_s += time.perf_counter() - started

    def _fill_template(self, filler: Workload) -> None:
        directory = self.work / "template-run"
        argv = child_argv(filler, self.template, directory / "out", self.scale)
        child = spawn([sys.executable, "-m", "repro", *argv], directory)
        if child.exit_code != 0:
            raise SystemExit(f"set-up run failed: {child.stderr.strip()[-2000:]}")
        shutil.rmtree(directory)

    def _prepare(self, index: int) -> tuple[Path, list[str]]:
        """A fresh directory for one child (set-up time, not measured)."""
        started = time.perf_counter()
        directory = self.work / f"child{index}"
        directory.mkdir()
        if self.workload.template is not None:
            shutil.copytree(self.template, directory / "cache")
        argv = child_argv(self.workload, directory / "cache", directory / "out", self.scale)
        self.setup_s += time.perf_counter() - started
        return directory, argv

    # -- measurement ------------------------------------------------------ #
    def run_child(self, index: int, traced: bool) -> Child:
        directory, argv = self._prepare(index)
        if traced:
            command = [sys.executable, str(HERE / "layers.py"), str(directory / "ledger.json"), "--"]
        else:
            command = [sys.executable, "-m", "repro"]
        child = spawn(command + argv, directory)
        check_child(self.workload, child, self.reference, self.goldens)
        if traced and child.exit_code == 0:
            self.ledger = json.loads((directory / "ledger.json").read_text(encoding="utf-8"))
        shutil.rmtree(directory)
        return child

    def measure(self, seconds: float, trace: bool, seed: int) -> None:
        traced_after = seed % (MIN_CHILDREN + 1) if trace else None
        started = time.perf_counter()
        longest = 0.0
        while len(self.children) < MIN_CHILDREN or time.perf_counter() - started < seconds:
            if len(self.children) == traced_after and self.traced is None:
                self.traced = self.run_child(0, traced=True)
            if time.perf_counter() - self.started + longest > RUN_DEADLINE_S and self.children:
                break
            child = self.run_child(len(self.children) + 1, traced=False)
            self.children.append(child)
            longest = max(longest, child.wall_s)
        if trace and self.traced is None:
            self.traced = self.run_child(0, traced=True)

    def clean_up(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        for parent in (self.work.parent, WORK_ROOT):
            try:
                parent.rmdir()
            except OSError:
                pass

    # -- results ---------------------------------------------------------- #
    @property
    def all_children(self) -> list[Child]:
        return self.children + ([self.traced] if self.traced is not None else [])

    def good(self) -> list[Child]:
        """Children whose outputs passed every check (the only ones timed)."""
        return [child for child in self.children if child.failed == 0]

    def end_to_end(self) -> dict:
        good = self.good()

        def median(attribute):
            values = [getattr(child, attribute) for child in good]
            return statistics.median(values) if values else None

        values = {name: median(name) for name in ("wall_s", "cpu_s", "peak_rss_mb", "cache_disk_bytes")}
        values["setup_s"] = self.setup_s
        return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}

    def per_layer(self) -> dict:
        """Per-layer metrics: the traced child's ledger plus untraced medians."""
        ledger = self.ledger if self.traced is not None and self.traced.failed == 0 else None
        seconds, busy, counts = (ledger[table] if ledger else {} for table in ("seconds", "busy", "counts"))
        metrics = {name: (seconds.get(layer, 0.0), "s") for layer, name in SELF_TIME_LAYERS.items()}
        metrics.update({name: (counts.get(name, 0.0), unit) for name, unit in COUNT_UNITS.items()})
        lookups = counts.get("cache.hits", 0.0) + counts.get("cache.misses", 0.0)
        slot_s = counts.get("backends.slot_s", 0.0)
        kernel_busy = busy.get("simulation.kernel", 0.0)
        metrics["cache.hit_ratio"] = (counts.get("cache.hits", 0.0) / lookups if lookups else 0.0, "ratio")
        metrics["backends.utilization"] = (
            counts.get("backends.worker_busy_s", 0.0) / slot_s if slot_s else 0.0,
            "ratio",
        )
        metrics["simulation.record_visits_per_s"] = (
            counts.get("simulation.record_visits", 0.0) / kernel_busy if kernel_busy else 0.0,
            "1/s",
        )
        for identifier in self.goldens:
            values = [
                child.deliverable_seconds[identifier]
                for child in self.good()
                if identifier in child.deliverable_seconds
            ]
            metrics[f"artifact.deliverable.{identifier}_s"] = (
                statistics.median(values) if values else 0.0,
                "s",
            )
        metrics["startup.import_s"] = (statistics.median(self.import_s), "s")
        traced_wall = self.traced.wall_s if ledger else 0.0
        untraced_wall = self.end_to_end()["wall_s"]["value"] or 0.0
        metrics["bench.traced_wall_s"] = (traced_wall, "s")
        metrics["bench.unattributed_s"] = (
            traced_wall - sum(seconds.get(layer, 0.0) for layer in SELF_TIME_LAYERS),
            "s",
        )
        metrics["bench.tracing_overhead_s"] = (traced_wall - untraced_wall, "s")
        # A failed check is never reported as a measurement.
        return {
            name: {"value": value if ledger else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        }

    def result(self, trace: bool) -> dict:
        children = self.all_children
        attempted = sum(child.attempted for child in children)
        failed = sum(child.failed for child in children)
        return {
            "correct": failed == 0 and bool(self.good()),
            "attempted": max(1, attempted),
            "failed": failed,
            "metrics": self.per_layer() if trace else self.end_to_end(),
        }


PROBE = """\
import json, time
started = time.perf_counter()
import repro.cli
imported = time.perf_counter() - started
import numpy
from repro.simulation.vectorized import resolve_kernel
print(json.dumps({"import_s": imported, "numpy": numpy.__version__, "kernel": resolve_kernel("vector")}))
"""


def source_digest() -> str:
    """SHA-256 over the program's sources and goldens (a commit without git)."""
    digest = hashlib.sha256()
    for base in (SRC, ROOT / "artifact"):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src", "artifact"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return commit, bool(status.strip())


def environment(run: Run) -> dict:
    commit, dirty = git_state()
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": run.probe.get("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel": run.probe.get("kernel"),
        "scale": run.scale,
        "platform": platform.platform(),
    }


def write_record(run: Run, arguments: argparse.Namespace, result: dict) -> Path:
    directory = WORK_ROOT / "results"
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = directory / (
        f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}-{stamp}-{os.getpid()}.json"
    )
    record = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "command": ["repro-vp", *run.workload.arguments],
        "environment": environment(run),
        "setup_s": run.setup_s,
        "import_s": run.import_s,
        "children": [child.sample() for child in run.children],
        "traced_child": run.traced.sample() if run.traced is not None else None,
        "ledger": run.ledger,
        "result": result,
    }
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def write_reference(workload: Workload) -> None:
    """Record the committed reference from one child at the paper scale.

    For maintainers, after a reviewed change of the program's numbers;
    campaign workloads only (reproduce checks against the artifact goldens).
    """
    run = Run(workload, 1.0, reference=None)
    try:
        run.set_up()
        directory, argv = run._prepare(1)
        child = spawn([sys.executable, "-m", "repro", *argv], directory)
        if child.exit_code != 0:
            raise SystemExit(child.stderr)
        reference = {"stats": parse_stats(child.stdout)}
        if workload.kind == "campaign":
            reference["table"] = parse_table(child.stdout)
            reference["entries"] = tree_digests(directory / "cache")
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    finally:
        run.clean_up()


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale; anything but 1.0 skips the reference checks "
        "(for the harness self-test only)",
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record this workload's reference outputs instead of measuring",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    arguments = parse_arguments(argv)
    # Unwind through the clean-up code when stopped from outside.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir() or not MANIFEST.is_file():
        print(f"no repro-vp sources under {ROOT}: run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[arguments.workload]
    if arguments.write_reference:
        write_reference(workload)
        return 0
    run = Run(workload, arguments.scale, load_reference(workload, arguments.scale))
    try:
        run.set_up()
        run.measure(arguments.seconds, bool(arguments.trace), arguments.seed)
    finally:
        run.clean_up()
    result = run.result(bool(arguments.trace))
    record = write_record(run, arguments, result)
    for child in run.all_children:
        for problem in child.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
