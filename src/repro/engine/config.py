"""One immutable value holding every execution-engine setting.

:class:`EngineConfig` is the single place the engine's seven settings are
declared and validated.  :class:`~repro.engine.scheduler.ExecutionEngine`
takes one, the process-wide campaign defaults
(:func:`repro.simulation.campaign.set_campaign_defaults`) are one, and
the CLI builds one from its engine flags.  Live resources — a shared
backend instance, a telemetry sink, a progress listener — are not
settings and stay separate keyword arguments of the engine.

The module imports neither the scheduler nor the campaign façade, so
both can import it at module level.  Constructing a config reads the
``REPRO_KERNEL`` environment variable (for ``kernel=None``), so nothing
builds one at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class EngineConfig:
    """Execution-engine settings, validated once at construction.

    Frozen and hashable: equal settings compare and hash equal, so a
    config can key shared resources and memo tables.

    Attributes
    ----------
    jobs:
        Worker process count for the process-based backends (clamped to
        at least 1); with the default backend selection, ``1`` executes
        everything in-process and is the reference serial path.
    cache_dir:
        Root of the persistent :class:`~repro.engine.cache.ResultCache`;
        ``None`` disables on-disk caching.
    use_cache:
        ``False`` ignores ``cache_dir`` entirely (force recompute).
    cache_max_bytes / cache_max_age:
        Garbage-collection bounds for the persistent cache.  When either
        is set, a bounded GC pass runs after every run; entries produced
        or touched by the finishing run are never evicted by that pass.
    backend:
        Executor backend name (``"serial"``, ``"pool"``, ``"persistent"``)
        or ``None`` for the historical default — serial when
        ``jobs == 1``, a per-dispatch pool otherwise.  Results are
        bit-identical across backends; see :mod:`repro.engine.backends`.
    kernel:
        Simulation kernel: ``"scalar"``, ``"vector"``, ``"auto"`` (vector
        when numpy is importable) or ``None`` to defer to the
        ``REPRO_KERNEL`` environment variable.  The *raw* setting travels
        in task payloads so each worker resolves it against its own
        environment; kernels are bit-identical, so it is never part of a
        cache key.  See :mod:`repro.simulation.vectorized`.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    use_cache: bool = True
    cache_max_bytes: int | None = None
    cache_max_age: float | None = None
    backend: str | None = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        # Imported lazily: the module imports the simulation package,
        # whose campaign façade imports this one.  No config is built at
        # import time, so the lazy import never meets a half-initialised
        # module.
        from repro.simulation.vectorized import resolve_kernel

        # A bad kernel name (or a forced "vector" without numpy) fails
        # here, not mid-run.
        resolve_kernel(self.kernel)
        object.__setattr__(self, "jobs", max(1, int(self.jobs)))
