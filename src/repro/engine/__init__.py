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
a per-dispatch process pool, or persistent warm workers), and
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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "backends": (
            "BACKEND_NAMES",
            "ExecutorBackend",
            "PersistentWorkerBackend",
            "PoolBackend",
            "SerialBackend",
            "resolve_backend",
        ),
        "cache": ("CacheStats", "GCReport", "KindStats", "ResultCache", "VerifyReport"),
        "codecs": ("decode_cache_entry", "encode_cache_entry"),
        "config": ("EngineConfig",),
        "fingerprint": ("key_digest", "predictor_signature", "predictors_fingerprint", "trace_digest"),
        "phases": ("PhaseSpec", "PhaseTask", "run_phase"),
        "progress": ("ConsoleProgress", "NullProgress", "ProgressListener"),
        "scheduler": ("EngineStats", "ExecutionEngine"),
        "sweeps": (
            "SweepPoint",
            "SweepPointResult",
            "SweepResult",
            "SweepSpec",
            "clear_sweep_cache",
            "execute_sweep",
            "run_sweep",
        ),
        "tasks": ("SimulateTask", "TraceTask"),
        "telemetry": (
            "NULL_TELEMETRY",
            "TELEMETRY_KEY",
            "NullTelemetry",
            "RunTelemetry",
            "Telemetry",
            "read_manifest",
            "read_metrics",
            "summarize_run",
        ),
    },
)
