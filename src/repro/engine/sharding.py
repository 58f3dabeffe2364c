"""Intra-trace sharding: window planning, state handoff, window merging.

Campaigns and sweeps parallelise across (benchmark, predictor) pairs, so a
single long trace still binds one pair's latency to one core.  This module
splits a trace into fixed-size windows and runs each window as an
independent work unit through the existing phase executor, with the
composed result **bit-identical** to the monolithic simulation:

1. **plan** — :func:`plan_shard_windows` cuts ``[0, len(trace))`` into
   ``[start, stop)`` windows from the engine's ``shard_window`` setting
   (``"auto"`` divides the trace over the backend's parallel slots);
2. **replay** — a window starting at record ``start > 0`` must begin from
   exactly the predictor state records ``[0, start)`` would have produced.
   One *replay task* per pending pair advances a fresh predictor over that
   prefix with update-only replay (:mod:`repro.simulation.state`) and
   snapshots the state at every needed boundary.  Replay runs on the
   engine's backend — pairs replay in parallel — and costs roughly half a
   simulation pass, so the sharded critical path stays well under the
   monolithic one;
3. **windows** — each window runs through the ordinary ``simulate``
   worker function over just its slice, starting from the handed-off
   state, and is cached under its own ``simulate-window`` kind: the vector
   kernel seeds its plan from the restored snapshot
   (:mod:`repro.simulation.vectorized`), the scalar kernel — or a plan
   that declines — runs the one reference observe loop
   (:func:`~repro.simulation.simulator.simulate_shard`);
4. **stitch** — :func:`merge_window_shards` concatenates the window shards
   back into one :class:`~repro.simulation.simulator.PredictorShard`,
   reproducing the unsharded shard exactly — including the dict insertion
   orders the cache serialises — so the pair-level ``simulate`` cache
   entry written for the merged shard is byte-identical to what an
   unsharded run would have written.  A sharded run therefore warms an
   unsharded rerun and vice versa.

Window cache keys carry no state digest: the state at ``start`` is a pure
function of (trace content, predictor configuration, ``start``), all of
which the key already pins — so runs with different window sizes can even
share entries for coinciding boundaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.codecs import shard_from_dict, shard_to_dict
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.tasks import SimulateTask, SimulateWindowTask
from repro.engine.telemetry import TELEMETRY_KEY
from repro.errors import DispatchError
from repro.simulation.simulator import PredictorResult, PredictorShard

#: Progress/telemetry phase names of the sharded simulate path.
REPLAY_PHASE = "replay"
WINDOW_PHASE = "simulate-windows"


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #
def normalize_shard_window(setting) -> "int | str | None":
    """Validate an engine's ``shard_window`` setting at construction time.

    ``None`` (or 0) disables sharding, ``"auto"`` sizes windows from the
    backend's parallel slots at plan time, and a positive integer fixes
    the window length in records.
    """
    if setting is None:
        return None
    if setting == "auto":
        return "auto"
    try:
        window = int(setting)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid shard window {setting!r} (expected a positive integer, 'auto' or None)"
        ) from None
    if window < 0:
        raise ValueError(f"shard window must be non-negative, got {window}")
    return window or None


def resolve_shard_window(setting, length: int, slots: int) -> int | None:
    """Resolve a setting to a concrete window length for one trace.

    Returns ``None`` whenever sharding would not help: the setting is off,
    the trace fits a single window, or (for ``"auto"``) the backend has no
    parallelism to feed.
    """
    setting = normalize_shard_window(setting)
    if setting is None or length <= 1:
        return None
    if setting == "auto":
        if slots <= 1:
            return None
        window = -(-length // slots)  # ceil division
    else:
        window = setting
    if window >= length:
        return None
    return max(1, window)


def plan_windows(length: int, window: int) -> list[tuple[int, int]]:
    """Cut ``[0, length)`` into consecutive ``[start, stop)`` windows."""
    return [(start, min(start + window, length)) for start in range(0, length, window)]


def plan_shard_windows(setting, length: int, slots: int) -> "list[tuple[int, int]] | None":
    """Plan one trace's windows; ``None`` means run unsharded."""
    window = resolve_shard_window(setting, length, slots)
    if window is None:
        return None
    return plan_windows(length, window)


# --------------------------------------------------------------------------- #
# Stitching
# --------------------------------------------------------------------------- #
def concat_packed_bits(chunks: Sequence[tuple[bytes, int]]) -> bytes:
    """Concatenate LSB-first packed bit sequences, as ``(bytes, bit_count)``.

    Equivalent to re-packing the concatenated outcome sequence with
    :func:`~repro.simulation.simulator.pack_outcomes`: safe because that
    packer zero-pads the trailing partial byte, so shifting a chunk in by
    ``filled % 8`` bits never drags stale bits along.
    """
    out = bytearray()
    filled = 0
    for packed, count in chunks:
        if count < 0:
            raise ValueError(f"negative bit count {count}")
        nbytes = (count + 7) >> 3
        shift = filled & 7
        if shift == 0:
            out.extend(packed[:nbytes])
        else:
            low = 8 - shift
            for byte in packed[:nbytes]:
                out[-1] |= (byte << shift) & 0xFF
                out.append(byte >> low)
        filled += count
        del out[(filled + 7) >> 3 :]
    return bytes(out)


def merge_window_shards(
    predictor_name: str, window_shards: Sequence[PredictorShard]
) -> PredictorShard:
    """Stitch consecutive window shards back into the whole-trace shard.

    Aggregates are folded in window order, which reproduces the unsharded
    loop's dict insertion orders exactly: a category (or PC) first seen in
    window *k* cannot appear in any earlier window, so appending window
    *k*'s first-occurrences after window *k-1*'s yields the global
    first-occurrence order the monolithic pass would have produced.
    """
    result = PredictorResult(predictor=predictor_name)
    chunks: list[tuple[bytes, int]] = []
    record_count = 0
    for shard in window_shards:
        part = shard.result
        result.total += part.total
        result.correct += part.correct
        for category, count in part.category_total.items():
            result.category_total[category] = result.category_total.get(category, 0) + count
        for category, count in part.category_correct.items():
            result.category_correct[category] = (
                result.category_correct.get(category, 0) + count
            )
        for pc, count in part.pc_correct.items():
            result.pc_correct[pc] = result.pc_correct.get(pc, 0) + count
        chunks.append((shard.correctness, shard.record_count))
        record_count += shard.record_count
    return PredictorShard(
        result=result,
        correctness=concat_packed_bits(chunks),
        record_count=record_count,
    )


# --------------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WindowedUnit:
    """One (trace, predictor) pair scheduled as windows with state handoff.

    ``get_trace`` defers materialisation: fully warm units (pair-level or
    all-windows cache hits) never decode the trace at all, as the trace
    phase's lazy-with-repair policy intends
    (:class:`~repro.engine.scheduler.LazyTrace`).
    """

    uid: object
    label: str
    benchmark: str
    predictor: str
    trace_digest: str
    predictor_signature: str
    windows: tuple[tuple[int, int], ...]
    get_trace: Callable[[], object]


def run_windowed_simulations(engine, units: Sequence[WindowedUnit]) -> dict:
    """Run windowed units on ``engine``; returns ``{unit.uid: PredictorShard}``.

    The full pass per pending pair: probe the pair-level ``simulate``
    entry (a sharded run is warmed by an unsharded one), probe each
    window's ``simulate-window`` entry, replay boundary states for the
    windows that miss, dispatch those windows through the shared phase
    executor, stitch, and write the pair-level entry back (an unsharded
    rerun is warmed by this sharded one).
    """
    # Imported lazily: the worker module and this one are peers under the
    # engine package, and worker functions must stay importable on their
    # own for every backend to pickle them by reference.
    from repro.engine.worker import execute_simulate_task
    from repro.trace.io import dumps_trace_binary

    stats = engine.stats
    cache = engine.cache
    shards: dict = {}

    # ---- pair-level probe: a warm "simulate" entry satisfies the unit ---- #
    pending: list[WindowedUnit] = []
    warm_pairs: list[WindowedUnit] = []
    for unit in units:
        length = unit.windows[-1][1]
        shard = None
        if cache:
            pair_key = _pair_task(unit).cache_key()
            cached = cache.get("simulate", pair_key)
            if cached is not None:
                try:
                    candidate = shard_from_dict(cached["shard"])
                except Exception:
                    candidate = None
                if candidate is not None and candidate.record_count == length:
                    shard = candidate
        if shard is not None:
            shards[unit.uid] = shard
            stats.record("simulations", cached=True)
            warm_pairs.append(unit)
        else:
            pending.append(unit)

    # ---- window-level probe: stash usable per-window entries ------------- #
    stashed: dict[tuple, PredictorShard] = {}  # (unit.uid, start, stop) -> shard
    stashed_labels: list[str] = []
    needed: list[tuple[WindowedUnit, int, int]] = []
    for unit in pending:
        for start, stop in unit.windows:
            shard = None
            if cache:
                key = _window_task(unit, start, stop).cache_key()
                cached = cache.get("simulate-window", key)
                if cached is not None:
                    try:
                        candidate = shard_from_dict(cached["shard"])
                    except Exception:
                        candidate = None
                    if candidate is not None and candidate.record_count == stop - start:
                        shard = candidate
            if shard is not None:
                stashed[(unit.uid, start, stop)] = shard
                stashed_labels.append(f"{unit.label}[{start}:{stop}]")
                stats.record("windows", cached=True)
            else:
                needed.append((unit, start, stop))

    # ---- replay: boundary states for the windows that actually run ------ #
    boundaries: dict = {}  # unit.uid -> sorted starts > 0
    by_uid: dict = {}
    for unit, start, stop in needed:
        by_uid[unit.uid] = unit
        if start > 0:
            boundaries.setdefault(unit.uid, set()).add(start)
    replay_states = _replay_boundary_states(
        engine, [(by_uid[uid], sorted(starts)) for uid, starts in boundaries.items()]
    )

    # ---- window phase: the shared probe -> dispatch -> put protocol ------ #
    # Encode each distinct window slice for the wire at most once, however
    # many predictors are pending over it.
    slice_bytes: dict[tuple[str, int, int], bytes] = {}

    def build_window_payload(
        unit: WindowedUnit, start: int, stop: int, inline: bool
    ) -> dict:
        state = replay_states.get(unit.uid, {}).get(start) if start > 0 else None
        payload: dict = {
            "predictor": unit.predictor,
            "signature": unit.predictor_signature,
            "window": [start, stop],
            "state": state,
        }
        if engine.config.kernel is not None:
            payload["kernel"] = engine.config.kernel
        if inline:
            payload["trace"] = unit.get_trace()[start:stop]
        else:
            key = (unit.trace_digest, start, stop)
            if key not in slice_bytes:
                slice_bytes[key] = dumps_trace_binary(
                    unit.get_trace()[start:stop], compress=True
                )
            payload["trace_bytes"] = slice_bytes[key]
        return payload

    def accept_window(uid: tuple, payload: dict) -> bool:
        unit_uid, start, stop = uid
        shard = shard_from_dict(payload["shard"])
        if shard.record_count != stop - start:
            return False
        stashed[(unit_uid, start, stop)] = shard
        return True

    run_phase(
        engine,
        PhaseSpec(
            name=WINDOW_PHASE,
            kind="simulate-window",
            counter="windows",
            tasks=[
                PhaseTask(
                    uid=(unit.uid, start, stop),
                    label=f"{unit.label}[{start}:{stop}]",
                    cache_key=_window_task(unit, start, stop).cache_key(),
                    build_payload=lambda inline, unit=unit, start=start, stop=stop: (
                        build_window_payload(unit, start, stop, inline)
                    ),
                )
                for unit, start, stop in needed
            ],
            worker=execute_simulate_task,
            accept_cached=accept_window,
            accept_fresh=accept_window,
            total=sum(len(unit.windows) for unit in pending) + len(warm_pairs),
            presatisfied_count=len(stashed) + len(warm_pairs),
            presatisfied_labels=[f"{unit.label}:*" for unit in warm_pairs]
            + stashed_labels,
        ),
    )

    # ---- stitch + write the pair-level entry back ------------------------ #
    for unit in pending:
        merged = merge_window_shards(
            unit.predictor,
            [stashed[(unit.uid, start, stop)] for start, stop in unit.windows],
        )
        shards[unit.uid] = merged
        stats.record("simulations", cached=False)
        if cache:
            cache.put(
                "simulate",
                _pair_task(unit).cache_key(),
                {"shard": shard_to_dict(merged)},
            )
    return shards


def _pair_task(unit: WindowedUnit) -> SimulateTask:
    return SimulateTask(
        benchmark=unit.benchmark,
        predictor=unit.predictor,
        trace_digest=unit.trace_digest,
        predictor_signature=unit.predictor_signature,
    )


def _window_task(unit: WindowedUnit, start: int, stop: int) -> SimulateWindowTask:
    return SimulateWindowTask(
        benchmark=unit.benchmark,
        predictor=unit.predictor,
        trace_digest=unit.trace_digest,
        predictor_signature=unit.predictor_signature,
        start=start,
        stop=stop,
    )


def _replay_boundary_states(engine, replay_units: list) -> dict:
    """Compute ``{unit.uid: {start: state}}`` for every needed boundary.

    One replay task per pair, dispatched on the engine's backend so pairs
    replay concurrently.  Replay outcomes are derived scratch data — fully
    determined by entries the cache already holds — and are never cached
    themselves.
    """
    from repro.engine.worker import execute_replay_task
    from repro.trace.io import dumps_trace_binary

    if not replay_units:
        return {}
    started_perf = time.perf_counter()
    telemetry = engine.telemetry
    states: dict = {}
    with telemetry.span(
        "phase", phase=REPLAY_PHASE, backend=engine.backend.name
    ) as phase_span:
        phase_span.set(total=len(replay_units), cached=0, computed=len(replay_units))
        engine.progress.phase_started(REPLAY_PHASE, len(replay_units), 0)
        inline = engine.backend.inline_payloads(len(replay_units))
        labels = [unit.label for unit, _ in replay_units]
        payloads = []
        # Encode each distinct replay prefix for the wire at most once.
        prefix_bytes: dict[tuple[str, int], bytes] = {}
        for unit, starts in replay_units:
            payload: dict = {
                "predictor": unit.predictor,
                "signature": unit.predictor_signature,
                "boundaries": list(starts),
            }
            # Only the prefix up to the last boundary is ever replayed.
            longest = starts[-1]
            if inline:
                payload["trace"] = unit.get_trace()[:longest]
            else:
                key = (unit.trace_digest, longest)
                if key not in prefix_bytes:
                    prefix_bytes[key] = dumps_trace_binary(
                        unit.get_trace()[:longest], compress=True
                    )
                payload["trace_bytes"] = prefix_bytes[key]
            payloads.append(payload)
        try:
            outcomes = engine._run_tasks(execute_replay_task, REPLAY_PHASE, labels, payloads)
        except DispatchError as error:
            raise type(error)(
                f"{REPLAY_PHASE} phase failed to dispatch {len(payloads)} pending "
                f"unit(s) on the {engine.backend.name!r} backend: {error}"
            ) from error
        for (unit, _), outcome in zip(replay_units, outcomes):
            sidecar = outcome.pop(TELEMETRY_KEY, None) if isinstance(outcome, dict) else None
            if sidecar:
                telemetry.span_record(
                    "task",
                    sidecar.get("execute_seconds", 0.0),
                    phase=REPLAY_PHASE,
                    label=unit.label,
                    worker_pid=sidecar.get("pid"),
                    function=sidecar.get("function"),
                )
            states[unit.uid] = {
                int(start): state for start, state in outcome["states"].items()
            }
    engine.stats.record_seconds("windows", time.perf_counter() - started_perf)
    return states
