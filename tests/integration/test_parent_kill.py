"""``kill -9`` of the ``reproduce`` parent at a seeded cache write, then a resume.

The parent runs under ``kill_after_puts.py``, which SIGKILLs it right
after its Nth result-cache put.  N is drawn from a seed drawn per run and
printed, among the puts of an uninterrupted run, so a failing run names
the seed that reproduces its kill point.  A resume into the killed run's
cache must render the same deliverables and leave the same
trace/simulate/merge/profile trees as the uninterrupted run, under
serial and under two persistent workers.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SCALE = "0.25"
KINDS = ("trace", "simulate", "merge", "profile")
WRAPPER = Path(__file__).with_name("kill_after_puts.py")
BACKENDS = {"serial": [], "persistent": ["--jobs", "2", "--backend", "persistent"]}
#: ``(backend, kill point)``; ``None`` draws the kill point from a logged
#: seed.  A failing drawn point is kept here as a regression case: after
#: put 5 of a persistent run (seed 2534500520), the first unit's merge
#: entry was on disk and two of its shards were not, so the resume took
#: the merge hit and never wrote them.
CASES = [("serial", None), ("persistent", None), ("persistent", 5)]


def _reproduce(tmp: Path, name: str, limit: int, engine_args: list[str]) -> tuple[int, str]:
    """One ``reproduce`` into ``tmp/name-cache``, killed after ``limit`` puts (0: never).

    Returns its exit status and its stderr.
    """
    source = Path(repro.__file__).resolve().parents[1]
    argv = [
        sys.executable,
        str(WRAPPER),
        str(limit),
        "--",
        "reproduce",
        "--scale",
        SCALE,
        "--cache-dir",
        str(tmp / f"{name}-cache"),
        "--out",
        str(tmp / f"{name}-out-{limit}"),
        *engine_args,
    ]
    # Output goes to files and the run gets its own session: workers that
    # a killed parent leaves behind would hold output pipes open, and are
    # killed with their session.
    log = tmp / f"{name}-{limit}.log"
    with open(log, "w") as output:
        process = subprocess.Popen(
            argv,
            env={**os.environ, "PYTHONPATH": str(source)},
            cwd=tmp,
            stdout=subprocess.DEVNULL,
            stderr=output,
            start_new_session=True,
        )
        try:
            process.wait(timeout=120)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return process.returncode, log.read_text()


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _outputs(tmp: Path, name: str, limit: int) -> dict[str, bytes]:
    """The deliverable files of one run (``summary.json`` holds its timings)."""
    (run_dir,) = (tmp / f"{name}-out-{limit}").iterdir()
    return _tree(run_dir / "tables")


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """An uninterrupted serial run: its put count, outputs and cache trees."""
    tmp = tmp_path_factory.mktemp("uninterrupted")
    status, stderr = _reproduce(tmp, "reference", 0, [])
    assert status == 0, stderr
    puts = int(re.search(r"^puts: (\d+)$", stderr, re.MULTILINE).group(1))
    trees = {kind: _tree(tmp / "reference-cache" / kind) for kind in KINDS}
    return puts, _outputs(tmp, "reference", 0), trees


@pytest.mark.parametrize("backend, limit", CASES)
def test_resume_after_a_parent_kill_matches_an_uninterrupted_run(tmp_path, uninterrupted, backend, limit):
    puts, outputs, trees = uninterrupted
    if limit is None:
        seed = random.SystemRandom().randrange(2**32)
        limit = random.Random(seed).randrange(1, puts)
        print(f"parent kill seed: {seed} (kill after put {limit} of {puts})")
        context = f"seed {seed}: killed after put {limit} of {puts}"
    else:
        context = f"killed after put {limit} of {puts}"

    status, stderr = _reproduce(tmp_path, backend, limit, BACKENDS[backend])
    assert status == -signal.SIGKILL, (context, stderr)
    status, stderr = _reproduce(tmp_path, backend, 0, BACKENDS[backend])
    assert status == 0, (context, stderr)

    assert _outputs(tmp_path, backend, 0) == outputs, context
    for kind in KINDS:
        assert _tree(tmp_path / f"{backend}-cache" / kind) == trees[kind], (context, kind)
