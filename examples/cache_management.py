"""Cache management: size accounting, garbage collection, verification.

Run with::

    python examples/cache_management.py

The example populates a persistent result cache with a small campaign
(``.rvpc`` entries), then walks the management surface that
``repro-vp cache`` exposes on the command line:

1. per-kind size accounting with :meth:`ResultCache.stats`,
2. a bit-identical warm rerun that performs zero work,
3. LRU garbage collection down to a byte budget with
   :meth:`ResultCache.gc`,
4. integrity checking with :meth:`ResultCache.verify`.

See ``docs/cache-layout.md`` for the on-disk contract.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

# Allow running from a fresh clone without installing: put src/ on the path.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import EngineConfig, ExecutionEngine
from repro.reporting.tables import format_table

SCALE = 0.1
BENCHMARKS = ("compress", "m88ksim", "perl")
PREDICTORS = ("l", "s2", "fcm2")


def populate(cache_dir: Path) -> ExecutionEngine:
    """Run a small campaign into ``cache_dir`` and return its engine."""
    print("=== 1. Cold campaign populating the cache ===")
    engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
    engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    stats = engine.stats
    print(
        f"computed {stats.traces_computed} traces and "
        f"{stats.simulations_computed} simulations in {stats.total_seconds:.2f}s"
    )
    print()
    return engine


def show_stats(engine: ExecutionEngine, title: str) -> None:
    """Render the equivalent of ``repro-vp cache stats``."""
    stats = engine.cache.stats()
    rows = [
        [kind, kind_stats.entries, kind_stats.bytes]
        for kind, kind_stats in sorted(stats.kinds.items())
    ]
    print(format_table(["kind", "entries", "bytes"], rows, title=title))
    print(f"total: {stats.entries} entries, {stats.bytes} bytes")
    print()


def warm_rerun(cache_dir: Path) -> None:
    """A second engine sees every result in the cache."""
    print("=== 2. Warm rerun: everything served from the cache ===")
    engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
    engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    stats = engine.stats
    print(
        f"computed {stats.tasks_computed} tasks, served {stats.tasks_cached} "
        f"from cache in {stats.total_seconds:.2f}s"
    )
    print()


def collect_garbage(engine: ExecutionEngine) -> None:
    """Bound the cache to half its current footprint, LRU-first."""
    print("=== 3. Garbage collection down to a byte budget ===")
    budget = engine.cache.stats().bytes // 2
    report = engine.cache.gc(max_bytes=budget)
    print(
        f"gc --max-bytes {budget}: removed {report.removed_entries} entries, "
        f"freed {report.freed_bytes} bytes; "
        f"{report.remaining_entries} entries, {report.remaining_bytes} bytes remain"
    )
    print()


def verify(engine: ExecutionEngine) -> None:
    """Deep-check every surviving entry."""
    print("=== 4. Integrity verification ===")
    report = engine.cache.verify()
    status = "all ok" if report.ok else f"{len(report.corrupt)} corrupt"
    print(f"checked {report.checked} entries: {status}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as directory:
        cache_dir = Path(directory) / "cache"
        engine = populate(cache_dir)
        show_stats(engine, f"Cache after the cold run ({cache_dir})")
        warm_rerun(cache_dir)
        collect_garbage(engine)
        show_stats(engine, "Cache after gc")
        verify(engine)


if __name__ == "__main__":
    main()
