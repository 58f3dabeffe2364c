"""Parallel campaign execution engine with a persistent result cache.

A campaign ("trace every benchmark, simulate every predictor over every
trace") decomposes into independent work units:

* **trace tasks** — run one workload at one scale into a value trace;
* **simulate tasks** — run one predictor over one trace into a
  :class:`~repro.simulation.simulator.PredictorShard`;
* **merge** — recombine the per-predictor shards of one trace into the
  joint :class:`~repro.simulation.simulator.SimulationResult`.

The :class:`ExecutionEngine` schedules those units through the shared
phase executor (:mod:`repro.engine.phases` — one probe → dispatch → put
protocol for campaigns and sweeps alike) onto a pluggable
:class:`ExecutorBackend` (:mod:`repro.engine.backends`: in-process serial,
per-dispatch ``multiprocessing`` pool, or persistent warm workers), and
backs both task kinds with a content-addressed on-disk cache keyed by
(workload, scale, trace digest, predictor configuration), so warm reruns
skip tracing and simulation entirely — across processes, not just within
one.  Entries are stored as ``.rvpc`` envelopes — compressed binary
bodies carrying v3 binary traces (:mod:`repro.engine.codecs`) — and
:class:`ResultCache` provides size accounting, LRU/age garbage
collection and integrity checking over them, surfaced on the command
line as ``repro-vp cache``.  Every engine setting lives in one frozen
:class:`EngineConfig` (:mod:`repro.engine.config`).
``docs/architecture.md`` maps the package;
``repro.simulation.campaign.run_campaign`` is a thin façade over it.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    PersistentWorkerBackend,
    PoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.engine.cache import (
    CacheStats,
    GCReport,
    KindStats,
    ResultCache,
    VerifyReport,
)
from repro.engine.codecs import decode_cache_entry, encode_cache_entry
from repro.engine.config import EngineConfig
from repro.engine.fingerprint import (
    key_digest,
    predictor_signature,
    predictors_fingerprint,
    trace_digest,
)
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.progress import ConsoleProgress, NullProgress, ProgressListener
from repro.engine.remote import RemoteBackend, WorkerServer, parse_worker_address
from repro.engine.scheduler import EngineStats, ExecutionEngine
from repro.engine.sharding import (
    WindowedUnit,
    merge_window_shards,
    normalize_shard_window,
    plan_shard_windows,
    plan_windows,
    resolve_shard_window,
    run_windowed_simulations,
)
from repro.engine.sweeps import (
    SweepPoint,
    SweepPointResult,
    SweepResult,
    SweepSpec,
    clear_sweep_cache,
    execute_sweep,
    run_sweep,
)
from repro.engine.tasks import SimulateTask, SimulateWindowTask, TraceTask
from repro.engine.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_KEY,
    NullTelemetry,
    RunTelemetry,
    Telemetry,
    read_manifest,
    read_metrics,
    summarize_run,
)

__all__ = [
    "BACKEND_NAMES",
    "CacheStats",
    "ConsoleProgress",
    "EngineConfig",
    "EngineStats",
    "ExecutionEngine",
    "ExecutorBackend",
    "GCReport",
    "KindStats",
    "NULL_TELEMETRY",
    "NullProgress",
    "NullTelemetry",
    "PersistentWorkerBackend",
    "PhaseSpec",
    "PhaseTask",
    "PoolBackend",
    "ProgressListener",
    "RemoteBackend",
    "ResultCache",
    "SerialBackend",
    "SimulateTask",
    "SimulateWindowTask",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "SweepSpec",
    "TELEMETRY_KEY",
    "Telemetry",
    "RunTelemetry",
    "TraceTask",
    "VerifyReport",
    "WindowedUnit",
    "WorkerServer",
    "clear_sweep_cache",
    "execute_sweep",
    "merge_window_shards",
    "normalize_shard_window",
    "plan_shard_windows",
    "plan_windows",
    "resolve_shard_window",
    "run_windowed_simulations",
    "parse_worker_address",
    "read_manifest",
    "read_metrics",
    "resolve_backend",
    "run_phase",
    "run_sweep",
    "summarize_run",
    "decode_cache_entry",
    "encode_cache_entry",
    "key_digest",
    "predictor_signature",
    "predictors_fingerprint",
    "trace_digest",
]
