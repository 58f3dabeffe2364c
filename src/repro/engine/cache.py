"""Content-addressed on-disk store for campaign work-unit results.

Layout: ``<root>/<kind>/<digest[:2]>/<digest>.rvpc`` where ``digest`` is
the SHA-256 of the canonical JSON form of the work unit's cache key and
each file is one binary envelope (see :mod:`repro.engine.codecs`).  Each
entry records both the key (for inspectability — ``grep`` a cache dir to
see what produced an entry; the key stays uncompressed) and the payload,
and :meth:`ResultCache.get` compares the embedded key with the requested
one, so a file under another entry's name reads as a miss, never as a
wrong result.  Writes go through a temporary file plus :func:`os.replace`,
so concurrent producers of the same entry race benignly: both write
identical content and the last rename wins atomically.

On top of storage, :class:`ResultCache` carries the cache-management layer:
enumeration of every entry file (``.json`` entries left by older versions
included, so they are counted, evicted and flagged like any other),
per-kind size accounting (:meth:`ResultCache.stats`), LRU/age-based
garbage collection (:meth:`ResultCache.gc` — hits bump an entry's mtime,
so eviction order is least-recently-*used*), integrity checking
(:meth:`ResultCache.verify`) and :meth:`ResultCache.clear`.  The
``repro-vp cache`` CLI subcommand is a thin front end over these methods;
``docs/cache-layout.md`` documents the on-disk contract.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from repro.engine.codecs import decode_cache_entry, encode_cache_entry, payload_trace
from repro.engine.fingerprint import key_digest
from repro.engine.telemetry import NULL_TELEMETRY


@dataclass
class KindStats:
    """Entry count and byte footprint of one cache kind."""

    entries: int = 0
    bytes: int = 0


@dataclass
class CacheStats:
    """Aggregate size accounting of a cache directory."""

    entries: int = 0
    bytes: int = 0
    kinds: dict[str, KindStats] = field(default_factory=dict)


@dataclass
class GCReport:
    """What one :meth:`ResultCache.gc` pass removed and what survives."""

    removed_entries: int = 0
    freed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0


@dataclass
class VerifyReport:
    """Outcome of an integrity sweep over every entry."""

    checked: int = 0
    corrupt: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.corrupt


class ResultCache:
    """Persistent cache of task results, shared by every engine run.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first write).
    max_bytes / max_age:
        Default garbage-collection bounds applied by :meth:`gc` when the
        call site passes none; ``None`` leaves the corresponding axis
        unbounded.  ``max_age`` is in seconds.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = None,
        max_age: float | None = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_age = max_age
        self.hits = 0
        self.misses = 0
        #: Byte traffic served from / written to the store this process.
        self.hit_bytes = 0
        self.write_bytes = 0
        #: Telemetry sink for hit/miss/write/GC accounting; the engine
        #: stamps its own sink here, and the null default keeps standalone
        #: cache use (CLI ``cache`` subcommands, tests) free of overhead.
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def path_for(self, kind: str, key: Mapping) -> Path:
        """Path of the entry for ``key``."""
        digest = key_digest(key)
        return self.root / kind / digest[:2] / f"{digest}.rvpc"

    def get(self, kind: str, key: Mapping) -> dict | None:
        """Return the stored payload for ``key``, or ``None`` on a miss.

        Unreadable, truncated or otherwise corrupt entries (e.g. from a
        killed writer on a filesystem without atomic replace) count as
        misses, so a damaged cache degrades to recomputation rather than
        failure.  So does an entry whose embedded key is not ``key`` — a
        file copied or renamed onto another entry's path — counted as
        ``cache.key_mismatch``: the filename alone never decides what a
        hit returns.  A hit bumps the entry's mtime, making :meth:`gc`
        eviction least-recently-used.
        """
        path = self.path_for(kind, key)
        entry = self._read_entry(path)
        if entry is not None and key_digest(entry[0]) != path.stem:
            self.telemetry.count("cache.key_mismatch")
            entry = None
        if entry is None:
            self.misses += 1
            self.telemetry.count("cache.miss")
            return None
        self.hits += 1
        size = 0
        try:
            size = path.stat().st_size
        except OSError:
            pass
        self.hit_bytes += size
        self.telemetry.count("cache.hit")
        self.telemetry.count("cache.hit_bytes", size)
        try:
            os.utime(path)
        except OSError:
            pass
        return entry[1]

    def put(self, kind: str, key: Mapping, payload: dict) -> Path:
        """Store ``payload`` under ``key`` and return the entry's path."""
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(temporary, "wb") as handle:
            handle.write(encode_cache_entry(dict(key), payload))
        os.replace(temporary, path)
        size = 0
        try:
            size = path.stat().st_size
        except OSError:
            pass
        self.write_bytes += size
        self.telemetry.count("cache.write")
        self.telemetry.count("cache.write_bytes", size)
        return path

    def _read_entry(self, path: Path) -> tuple[dict, dict] | None:
        """``(key, payload)`` of one entry file, or ``None`` if absent or corrupt."""
        try:
            with open(path, "rb") as handle:
                return decode_cache_entry(handle.read())
        except Exception:
            return None

    # ------------------------------------------------------------------ #
    # Enumeration and accounting
    # ------------------------------------------------------------------ #
    def entry_paths(self) -> Iterator[Path]:
        """Every entry file in the store.

        Enumeration is extension-agnostic, so ``.json`` entries older
        versions wrote are listed too and stats, GC and verify see them;
        in-flight ``*.tmp`` files from concurrent writers are skipped.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*/*")):
            if path.is_file() and not path.name.endswith(".tmp"):
                yield path

    def entry_count(self) -> int:
        """Number of entries currently stored (all kinds)."""
        return sum(1 for _ in self.entry_paths())

    def stats(self) -> CacheStats:
        """Per-kind and total entry counts and byte footprints."""
        totals = CacheStats()
        for path in self.entry_paths():
            kind = path.parent.parent.name
            try:
                size = path.stat().st_size
            except OSError:
                continue
            kind_stats = totals.kinds.setdefault(kind, KindStats())
            kind_stats.entries += 1
            kind_stats.bytes += size
            totals.entries += 1
            totals.bytes += size
        return totals

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    def gc(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        protect_since: float | None = None,
    ) -> GCReport:
        """Evict entries until the store fits the given bounds.

        ``max_age`` (seconds) first removes every entry idle longer than
        the cutoff; ``max_bytes`` then removes least-recently-used entries
        until the total footprint fits.  Bounds default to the values the
        cache was constructed with.  Entries written (or used) after the
        GC pass started are never evicted, so a concurrent engine run's
        in-flight results survive even under a tight byte budget — the
        bound is therefore best-effort while writers are active.

        ``protect_since`` widens that protection window backwards: entries
        written or used at/after the given wall-clock time are never
        evicted either.  The engine's post-run auto-GC passes its own start
        time here, so a byte budget smaller than one run's output can never
        cannibalise the results that run just produced (or the warm entries
        it just read — a hit bumps the mtime).
        """
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        max_age = self.max_age if max_age is None else max_age
        started = time.time()
        entries: list[tuple[float, int, Path]] = []
        report = GCReport()
        for path in self.entry_paths():
            try:
                status = path.stat()
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
        total_bytes = sum(size for _, size, _ in entries)

        evictable = sorted(
            (
                entry
                for entry in entries
                if entry[0] <= started
                and (protect_since is None or entry[0] < protect_since)
            ),
            key=lambda entry: entry[0],
        )
        doomed: list[tuple[float, int, Path]] = []
        if max_age is not None:
            cutoff = started - max_age
            while evictable and evictable[0][0] < cutoff:
                doomed.append(evictable.pop(0))
        if max_bytes is not None:
            surviving = total_bytes - sum(size for _, size, _ in doomed)
            while evictable and surviving > max_bytes:
                entry = evictable.pop(0)
                doomed.append(entry)
                surviving -= entry[1]

        for _, size, path in doomed:
            try:
                path.unlink()
            except OSError:
                continue
            report.removed_entries += 1
            report.freed_bytes += size
        self._prune_empty_directories()
        report.remaining_entries = len(entries) - report.removed_entries
        report.remaining_bytes = total_bytes - report.freed_bytes
        if report.removed_entries:
            self.telemetry.event(
                "cache.gc",
                removed=report.removed_entries,
                freed_bytes=report.freed_bytes,
                remaining_entries=report.remaining_entries,
                remaining_bytes=report.remaining_bytes,
            )
            self.telemetry.count("cache.gc_removed", report.removed_entries)
            self.telemetry.count("cache.gc_freed_bytes", report.freed_bytes)
        return report

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        removed = 0
        for path in list(self.entry_paths()):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self._prune_empty_directories()
        return removed

    def verify(self, remove: bool = False) -> VerifyReport:
        """Check that every entry decodes and lives under its key's digest.

        An entry is corrupt when it fails to decode (truncated file, bad
        magic — as for a ``.json`` entry left by an older version —
        undecodable body, an embedded binary trace that no longer parses)
        or when the digest of its embedded key does not match its filename
        — either way the engine would already recompute it;
        ``remove=True`` deletes such entries so they stop occupying space.
        Unlike ``get``, this decodes embedded traces in full, so it is the
        slow, thorough sweep.
        """
        report = VerifyReport()
        for path in self.entry_paths():
            report.checked += 1
            key = self._read_entry_key(path)
            if key is None or key_digest(key) != path.stem:
                report.corrupt.append(path)
                if remove:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        if remove:
            self._prune_empty_directories()
        return report

    def _read_entry_key(self, path: Path) -> dict | None:
        """Deep-decode one entry and return its key, or ``None`` if corrupt."""
        try:
            with open(path, "rb") as handle:
                key, payload = decode_cache_entry(handle.read())
            if "trace_binary" in payload:
                payload_trace(payload)
            return key
        except Exception:
            return None

    def _prune_empty_directories(self) -> None:
        """Drop shard/kind directories emptied by eviction (best effort)."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.glob("*/*")):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        for kind in sorted(self.root.glob("*")):
            if kind.is_dir():
                try:
                    kind.rmdir()
                except OSError:
                    pass
