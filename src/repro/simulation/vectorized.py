"""Columnar (numpy) simulation kernel — batched, bit-identical to scalar.

The scalar loop in :mod:`repro.simulation.simulator` is the golden
reference: one :meth:`~repro.core.base.ValuePredictor.observe` call per
record.  This module re-expresses the paper's predictor table walks as
whole-trace array passes over the columnar form of a trace
(:class:`repro.trace.io.TraceColumns`):

* **last value / stride / two-delta** become segmented scans over per-PC
  groups — sort by PC (stable, so program order survives within a group),
  then shifted compares and a forward-fill give every record the table
  state its scalar ``predict`` would have seen;
* **saturating-counter variants** (``lv-counter``, ``lv-consecutive``,
  ``stride-counter``) are feedback state machines with no closed-form
  scan, so each runs as a tight Python loop over every PC's slice of the
  sorted values.  A trace has a few dozen PCs, each hundreds to thousands
  of records deep, so stepping all PCs in lockstep with numpy calls on
  arrays of a few dozen elements costs far more than the loop itself;
* **FCM** becomes a hash-then-scatter pass: records are grouped by their
  exact (PC, context) key, occurrence counts come from a running count of
  (group, value) pairs, and the scalar tie-break of
  :func:`repro.core.fcm.select_maximum_count` — most-recent wins a tie,
  otherwise the first-inserted of the maximal set — is reproduced with a
  segmented cumulative maximum over packed ``count * R + (R - 1 - rank)``
  keys, where ``rank`` is the value's insertion rank within its group.
  The ``counter_max`` halve-on-saturation variant drives the same
  pair/rank tables in lockstep;
* **blended FCM** runs the FCM pass top-down over orders ``k..0``.  Under
  lazy exclusion each order's candidate stream is exactly the records not
  matched at a higher order (which is precisely the set that updates that
  order's table); under full update every gated record feeds every order
  and a record keeps the highest-order match.  Context ids come from one
  per-trace table that grows one order at a time, so ``fcm0``…``fcm8``
  and the hybrids' ``fcm3`` share each order's single factorize pass;
* **hybrids** compose their components' plans and vectorize the chooser:
  ``PcChooser`` scores are a segmented prefix scan over the saturating-add
  monoid ``y -> min(C, max(B, y + A))``, ``CategoryChooser`` is a static
  per-category gather, and ``OracleChooser`` is an OR over component
  correctness.

Every registered configuration (and every dynamic ``fcmN`` /
``fcmN-single`` / ``fcmN-small`` / ``fcmN-full`` spelling) has a plan,
and every plan starts from a fresh predictor and covers the whole trace.
What plans derive from a trace — the per-PC grouping, the context table
and the hybrids' component results — is kept for the current trace only
and released when the kernel moves to another trace or the trace dies.
Cache keys never include the kernel: both kernels produce byte-identical
entries, and the differential parity harness
(``tests/simulation/test_kernel_parity.py``) pins that equivalence.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING, Mapping

from repro.errors import SimulationError

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.simulation.simulator import PredictorShard, SimulationResult
    from repro.trace.io import TraceColumns

#: Valid values of the ``kernel`` parameter / ``--kernel`` flag.
KERNELS = ("scalar", "vector", "auto")

#: Environment variable consulted when no kernel is passed explicitly.
KERNEL_ENV = "REPRO_KERNEL"

_NUMPY_UNSET = object()
_numpy_module = _NUMPY_UNSET


def numpy_or_none():
    """The numpy module, or ``None`` when it is not importable (memoised)."""
    global _numpy_module
    if _numpy_module is _NUMPY_UNSET:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_module = numpy
    return _numpy_module


def resolve_kernel(kernel: str | None) -> str:
    """Resolve a kernel request to ``"scalar"`` or ``"vector"``.

    ``None`` consults :data:`KERNEL_ENV` and defaults to ``"scalar"``;
    ``"auto"`` selects ``"vector"`` exactly when numpy is importable; an
    explicit (or environment-forced) ``"vector"`` without numpy raises a
    clean :class:`SimulationError` instead of an ``ImportError`` deep in
    a worker.
    """
    source = "kernel"
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV) or "scalar"
        source = f"{KERNEL_ENV} environment variable"
    if kernel not in KERNELS:
        raise SimulationError(
            f"unknown simulation kernel {kernel!r} (from {source}); "
            f"expected one of {', '.join(KERNELS)}"
        )
    if kernel == "auto":
        return "vector" if numpy_or_none() is not None else "scalar"
    if kernel == "vector" and numpy_or_none() is None:
        raise SimulationError(
            "the 'vector' simulation kernel requires numpy, which is not "
            "importable here; use '--kernel auto' to fall back automatically"
        )
    return kernel


class _VectorizationUnsupported(Exception):
    """Internal: a size guard tripped; the caller retries on the scalar path."""


# --------------------------------------------------------------------------- #
# Per-PC grouping (shared by every plan over one trace)
# --------------------------------------------------------------------------- #
class _Grouping:
    """Stable per-PC grouping of a trace's columns, plus what plans share.

    ``order`` sorts records by PC (stable, so within each group the
    records keep program order — the axis every predictor table walks).
    ``gid`` is a dense group id per sorted position, ``t`` the occurrence
    index of the record within its PC's stream, ``vs`` the values in the
    sorted domain.  ``starts``/``sizes`` describe the groups themselves
    and ``depth`` is the deepest PC stream.  :meth:`context` holds the
    FCM context table, and ``components`` memoises hybrid component
    results by their predictor's config signature.
    """

    def __init__(self, np, columns) -> None:
        n = len(columns)
        self.n = n
        self.order = np.argsort(columns.pcs, kind="stable")
        self.vs = columns.values[self.order]
        sorted_pcs = columns.pcs[self.order]
        new_group = np.empty(n, dtype=bool)
        if n:
            new_group[0] = True
            new_group[1:] = sorted_pcs[1:] != sorted_pcs[:-1]
        self.gid = np.cumsum(new_group) - 1
        starts = np.flatnonzero(new_group)
        self.t = np.arange(n) - (starts[self.gid] if n else 0)
        self.starts = starts
        self.sizes = np.diff(np.append(starts, n))
        self.depth = int(self.sizes.max()) if n else 0
        self.components: dict = {}
        self._np = np
        self._contexts = [self.gid.astype(np.int32)]

    def context(self, order: int):
        """Dense ids of each position's (PC, last ``order`` values) context.

        Only positions with ``t >= order`` hold an id; the rest hold -1.
        Order ``k`` is built from order ``k - 1`` with one factorize pass
        and kept (four bytes per record), so every plan over the trace
        shares each order's pass.  No stream reaches an order at or past
        ``depth``, so none is built.
        """
        np = self._np
        if order >= self.depth:
            return np.full(self.n, -1, dtype=np.int32)
        contexts = self._contexts
        while len(contexts) <= order:
            back = len(contexts)
            positions = np.flatnonzero(self.t >= back)
            ids = np.full(self.n, -1, dtype=np.int32)
            ids[positions] = _factorize_pairs(
                np, contexts[-1][positions], self.vs[positions - back]
            )
            contexts.append(ids)
        return contexts[order]


#: ``(weakref to TraceColumns, its _Grouping)`` for the trace the kernel
#: ran last, or ``None``.  One slot, so a campaign holds one trace's
#: derived state at a time; the weakref's callback empties the slot as
#: soon as the trace itself dies.
_current_trace: "tuple[weakref.ref, _Grouping] | None" = None


def _release_trace(reference) -> None:
    global _current_trace
    if _current_trace is not None and _current_trace[0] is reference:
        _current_trace = None


def _grouping(np, columns) -> _Grouping:
    """The grouping of ``columns``, built once while it is the current trace."""
    global _current_trace
    current = _current_trace
    if current is not None and current[0]() is columns:
        return current[1]
    _current_trace = None  # free the previous trace's state before building
    group = _Grouping(np, columns)
    _current_trace = (weakref.ref(columns, _release_trace), group)
    return group


def _factorize_pairs(np, a, b):
    """Dense ids for the distinct ``(a[i], b[i])`` pairs (order-arbitrary)."""
    if len(a) == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((b, a))
    a_sorted = a[order]
    b_sorted = b[order]
    boundary = np.empty(len(a), dtype=bool)
    boundary[0] = True
    boundary[1:] = (a_sorted[1:] != a_sorted[:-1]) | (b_sorted[1:] != b_sorted[:-1])
    ids = np.empty(len(a), dtype=np.int64)
    ids[order] = np.cumsum(boundary) - 1
    return ids


def _segmented_cummax(np, gid, keys, key_bound: int):
    """Running maximum of ``keys`` within each contiguous ascending group."""
    if len(gid) and int(gid[-1] + 1) * key_bound >= 2**62:
        raise _VectorizationUnsupported("packed cummax key would overflow int64")
    packed = gid * np.int64(key_bound) + keys
    return np.maximum.accumulate(packed) - gid * np.int64(key_bound)


# --------------------------------------------------------------------------- #
# Lockstep scheduling (feedback state machines: saturating-counter FCM)
# --------------------------------------------------------------------------- #
def _lockstep_schedule(np, sizes, n):
    """Schedule per-group state machines over the group depth.

    Step ``k`` touches the ``k``-th record of every group that has one;
    the active set is a prefix of the groups ordered by descending size,
    so total elementwise work stays O(n).  The guard rejects the
    pathological shape (one dominant group driving thousands of tiny
    steps) where per-step overhead would lose to the scalar loop anyway.
    """
    depth = int(sizes.max()) if len(sizes) else 0
    if depth > 4096 and depth * 32 > n:
        raise _VectorizationUnsupported("dominant group too deep for lockstep")
    by_size = np.argsort(-sizes, kind="stable")
    negative_sizes = -sizes[by_size]
    return by_size, negative_sizes, depth


def _active_groups(np, by_size, negative_sizes, step):
    """Groups whose size exceeds ``step`` (their ``step``-th record exists)."""
    return by_size[: int(np.searchsorted(negative_sizes, -step, side="left"))]


# --------------------------------------------------------------------------- #
# The FCM count/argmax machinery (shared by single-order and blended plans)
# --------------------------------------------------------------------------- #
def _pair_runs(np, gid, y):
    """Positions of a stream sorted by ``(gid, y)`` pair, stably.

    ``gid`` holds dense ids below ``len(y)``, so the id and the value's
    rank pack into one int64 key, and one stable sort lists each pair's
    occurrences in time order.  Returns that order and a mask of where
    each pair's run starts in it.
    """
    m = len(y)
    _, y_rank = np.unique(y, return_inverse=True)
    key = gid * np.int64(m) + y_rank
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.empty(m, dtype=bool)
    start[0] = True
    start[1:] = key[1:] != key[:-1]
    return order, start


def _fcm_stream(np, group_ids, y):
    """Predict each element of a (group, value) stream from its group's past.

    The stream must list observations in time order.  For each element
    returns ``has`` (a previous same-group element exists, i.e. the
    context has non-empty counts) and ``pred`` (the value
    :func:`~repro.core.fcm.select_maximum_count` would pick from the
    counts of the previous same-group elements, with the immediately
    preceding one as the recency tie-breaker).
    """
    m = len(y)
    if m == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    order = np.argsort(group_ids, kind="stable")
    y2 = y[order]
    g_sorted = group_ids[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = g_sorted[1:] != g_sorted[:-1]
    gid = np.cumsum(new_group) - 1
    u = np.arange(m) - np.flatnonzero(new_group)[gid]

    # Running count c of each (group, value) pair at each occurrence.
    pair_order, pair_start = _pair_runs(np, gid, y2)
    pid_sorted = np.cumsum(pair_start) - 1
    pid = np.empty(m, dtype=np.int64)
    pid[pair_order] = pid_sorted
    counts = np.empty(m, dtype=np.int64)
    counts[pair_order] = np.arange(m) - np.flatnonzero(pair_start)[pid_sorted] + 1

    # Running maximum count per group.
    count_bound = int(counts.max()) + 1
    running_max = _segmented_cummax(np, gid, counts, count_bound)

    # Insertion rank of each pair within its group, plus the group-local
    # table decoding (group, rank) back to the pair's value.
    first_pos = pair_order[pair_start]
    pair_count = len(first_pos)
    pair_gid = gid[first_pos]
    rank_order = np.lexsort((first_pos, pair_gid))
    ranked_gid = pair_gid[rank_order]
    rank_start = np.empty(pair_count, dtype=bool)
    rank_start[0] = True
    rank_start[1:] = ranked_gid[1:] != ranked_gid[:-1]
    # Every group holds at least one pair and pair_gid is dense, so the
    # group-change positions double as per-group base offsets.
    group_base = np.flatnonzero(rank_start)
    rank_sorted = np.arange(pair_count) - group_base[np.cumsum(rank_start) - 1]
    rank_of_pair = np.empty(pair_count, dtype=np.int64)
    rank_of_pair[rank_order] = rank_sorted
    value_by_rank = y2[first_pos][rank_order]

    # Leader = first-inserted value among the current maximal-count set.
    # Packing count (major) against inverted insertion rank (minor) makes
    # the running key-max decode to exactly that value: a value's latest
    # occurrence carries its full count, so the maximal key belongs to the
    # max-count value with the smallest rank.
    rank_bound = int(rank_of_pair.max()) + 2
    keys = counts * np.int64(rank_bound) + (
        np.int64(rank_bound - 1) - rank_of_pair[pid]
    )
    key_max = _segmented_cummax(np, gid, keys, count_bound * rank_bound)
    leader_rank = np.int64(rank_bound - 1) - (key_max % np.int64(rank_bound))
    leader = value_by_rank[group_base[gid] + leader_rank]

    # The prediction for element p reads the state after element p-1 of
    # its group: recent value, its count, the running max and the leader.
    has = u >= 1
    recent = np.zeros(m, dtype=np.int64)
    prev_count = np.zeros(m, dtype=np.int64)
    prev_max = np.full(m, -1, dtype=np.int64)
    prev_leader = np.zeros(m, dtype=np.int64)
    if m > 1:
        recent[1:] = y2[:-1]
        prev_count[1:] = counts[:-1]
        prev_max[1:] = running_max[:-1]
        prev_leader[1:] = leader[:-1]
    pred = np.where(prev_count == prev_max, recent, prev_leader)

    has_out = np.empty(m, dtype=bool)
    pred_out = np.empty(m, dtype=np.int64)
    has_out[order] = has
    pred_out[order] = pred
    return has_out, pred_out


# --------------------------------------------------------------------------- #
# Stateless scan plans (segmented scans over the per-PC grouping)
# --------------------------------------------------------------------------- #
def _plan_last_value(np, group):
    has = group.t >= 1
    pred = np.zeros(group.n, dtype=np.int64)
    if group.n > 1:
        pred[1:] = group.vs[:-1]
    return has, pred


def _deltas(np, group):
    """64-bit wrapping value deltas within each PC group (uint64 domain)."""
    values = group.vs.view(np.uint64)
    deltas = np.zeros(group.n, dtype=np.uint64)
    if group.n > 1:
        deltas[1:] = values[1:] - values[:-1]
    return deltas


def _stride_predictions(np, group, strides):
    """``last_value + stride`` with 64-bit wrap, given per-position strides."""
    values = group.vs.view(np.uint64)
    pred = np.zeros(group.n, dtype=np.uint64)
    if group.n > 1:
        pred[1:] = values[:-1] + strides[:-1]
    return group.t >= 1, pred.view(np.int64)


def _plan_simple_stride(np, group):
    deltas = _deltas(np, group)
    # Stride state after each update: the latest delta; zero (i.e. plain
    # last-value) while the entry has seen a single value.
    strides = np.where(group.t >= 1, deltas, np.uint64(0))
    return _stride_predictions(np, group, strides)


def _plan_two_delta(np, group):
    deltas = _deltas(np, group)
    prev_deltas = np.zeros(group.n, dtype=np.uint64)
    if group.n > 1:
        prev_deltas[1:] = deltas[:-1]
    # s2 adopts the observed delta on the first delta ever and whenever it
    # repeats the previous one; otherwise it keeps its old value, which a
    # forward-fill of the last adoption point reproduces.  t == 0 rows are
    # adoption points of stride zero so fills never leak across groups.
    adopt = (group.t <= 1) | ((group.t >= 2) & (deltas == prev_deltas))
    source = np.where(group.t >= 1, deltas, np.uint64(0))
    fill = np.maximum.accumulate(np.where(adopt, np.arange(group.n), -1))
    strides = source[fill] if group.n else source
    return _stride_predictions(np, group, strides)


# --------------------------------------------------------------------------- #
# Counter plans (hysteresis feeds back into the stored value, so no
# closed-form scan exists; each PC's state machine runs as a plain loop)
# --------------------------------------------------------------------------- #
def _pc_slices(group):
    """``(start, stop)`` of each PC's stream in the sorted domain."""
    bounds = group.starts.tolist()
    bounds.append(group.n)
    return zip(bounds, bounds[1:])


def _plan_lv_counter(np, group, counter_max, threshold):
    """``lv-counter``: replace the value only when the counter sags."""
    values = group.vs.tolist()
    pred = []
    emit = pred.append
    for start, stop in _pc_slices(group):
        # Mirror LastValuePredictor._update_counter: bump on a hit, decay
        # on a miss, replace (and zero) when the decayed counter is below
        # the threshold.  A fresh entry stores its value with counter 0.
        stored = values[start]
        counter = 0
        emit(0)
        for actual in values[start + 1 : stop]:
            emit(stored)
            if stored == actual:
                if counter < counter_max:
                    counter += 1
                continue
            if counter:
                counter -= 1
            if counter < threshold:
                stored = actual
                counter = 0
    return group.t >= 1, np.array(pred, dtype=np.int64)


def _plan_lv_consecutive(np, group, required_run):
    """``lv-consecutive``: replace after a run of identical new values."""
    values = group.vs.tolist()
    pred = []
    emit = pred.append
    for start, stop in _pc_slices(group):
        # Mirror LastValuePredictor._update_consecutive: a hit clears the
        # candidate; a miss extends (or restarts) the candidate run, and a
        # long enough run promotes the candidate to the stored value.
        stored = values[start]
        candidate = None
        run = 0
        emit(0)
        for actual in values[start + 1 : stop]:
            emit(stored)
            if stored == actual:
                candidate = None
                run = 0
                continue
            if candidate == actual:
                run += 1
            else:
                candidate = actual
                run = 1
            if run >= required_run:
                stored = actual
                candidate = None
                run = 0
    return group.t >= 1, np.array(pred, dtype=np.int64)


_UINT64_MASK = (1 << 64) - 1


def _plan_stride_counter(np, group, counter_max, threshold):
    """``stride-counter``: replace the stride only when the counter sags."""
    values = group.vs.view(np.uint64).tolist()
    pred = []
    emit = pred.append
    for start, stop in _pc_slices(group):
        # Mirror CounterStridePredictor.update: score the prediction, and
        # only a miss with a sagging counter (or a still-empty stride
        # field) adopts the observed delta.  All arithmetic wraps in the
        # uint64 domain, matching wrap_value.
        last = values[start]
        stride = None
        counter = 0
        emit(0)
        for actual in values[start + 1 : stop]:
            guess = last if stride is None else (last + stride) & _UINT64_MASK
            emit(guess)
            if guess == actual:
                if counter < counter_max:
                    counter += 1
            else:
                if counter:
                    counter -= 1
                if counter < threshold:
                    stride = (actual - last) & _UINT64_MASK
            if stride is None:
                stride = (actual - last) & _UINT64_MASK
            last = actual
    return group.t >= 1, np.array(pred, dtype=np.uint64).view(np.int64)


# --------------------------------------------------------------------------- #
# FCM with saturating counters
# --------------------------------------------------------------------------- #
def _ragged_arange(np, counts):
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated."""
    total = int(counts.sum())
    starts = np.zeros(len(counts), dtype=np.int64)
    if len(counts):
        starts[1:] = np.cumsum(counts)[:-1]
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _fcm_eval(np, group_ids, y, counter_max):
    """(has, pred) for a (context, value) stream in time order.

    The pure scan handles the exact-count case; halve-on-saturation
    counters run the same pair/rank tables in lockstep.
    """
    if counter_max is None:
        return _fcm_stream(np, group_ids, y)
    return _fcm_lockstep(np, group_ids, y, counter_max)


def _fcm_lockstep(np, group_ids, y, counter_max):
    """The FCM count/argmax pass as per-context lockstep state machines.

    Covers the feature the closed-form scan cannot: halve-on-saturation
    counters (``counter_max``).  Predictions mirror
    :func:`~repro.core.fcm.select_maximum_count` exactly — the recent
    value wins a count tie, otherwise the first-inserted of the maximal
    set (its insertion *rank*) is chosen.
    """
    m = len(y)
    if m == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)

    order = np.argsort(group_ids, kind="stable")
    g_sorted = group_ids[order]
    y2 = y[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = g_sorted[1:] != g_sorted[:-1]
    gid = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    group_count = int(gid[-1]) + 1
    sizes = np.diff(np.append(starts, m))

    # One dense id per distinct (context, value) pair; insertion ranks
    # follow first occurrence — exactly the scalar dict order.
    pair_id = _factorize_pairs(np, gid, y2)
    pair_count = int(pair_id.max()) + 1
    by_pair = np.argsort(pair_id, kind="stable")
    pair_sorted = pair_id[by_pair]
    pair_start = np.empty(m, dtype=bool)
    pair_start[0] = True
    pair_start[1:] = pair_sorted[1:] != pair_sorted[:-1]
    first_pos = np.empty(pair_count, dtype=np.int64)
    first_pos[pair_sorted[pair_start]] = by_pair[pair_start]
    pair_gid = gid[first_pos]
    rank_order = np.lexsort((first_pos, pair_gid))
    ranked_gid = pair_gid[rank_order]
    rank_start = np.empty(pair_count, dtype=bool)
    rank_start[0] = True
    rank_start[1:] = ranked_gid[1:] != ranked_gid[:-1]
    # Every dense group has at least one stream element, hence at least
    # one pair, so the group-change positions double as base offsets.
    group_base = np.flatnonzero(rank_start)
    rank_sorted = np.arange(pair_count) - group_base[np.cumsum(rank_start) - 1]
    rank_of_pair = np.empty(pair_count, dtype=np.int64)
    rank_of_pair[rank_order] = rank_sorted
    value_of_pair = y2[first_pos]
    value_by_rank = value_of_pair[rank_order]
    pairs_per_group = np.bincount(pair_gid, minlength=group_count)

    rank_bound = int(rank_of_pair.max()) + 2
    if (m + 1) * rank_bound >= 2**62:
        raise _VectorizationUnsupported("packed count key would overflow int64")

    # Mutable per-pair counts and per-group running state.
    counts = np.zeros(pair_count, dtype=np.int64)
    has_counts = np.zeros(group_count, dtype=bool)
    max_count = np.zeros(group_count, dtype=np.int64)
    leader_rank = np.zeros(group_count, dtype=np.int64)
    recent_pair = np.zeros(group_count, dtype=np.int64)

    by_size, negative_sizes, depth = _lockstep_schedule(np, sizes, m)
    has2 = np.empty(m, dtype=bool)
    pred2 = np.empty(m, dtype=np.int64)
    saturation = np.int64(counter_max)
    for step in range(depth):
        active = _active_groups(np, by_size, negative_sizes, step)
        position = starts[active] + step
        pair = pair_id[position]
        actual = y2[position]
        known = has_counts[active]
        recent = recent_pair[active]
        recent_hot = counts[recent] == max_count[active]
        leader_value = value_by_rank[group_base[active] + leader_rank[active]]
        has2[position] = known
        pred2[position] = np.where(
            known, np.where(recent_hot, value_of_pair[recent], leader_value), 0
        )
        # Update: bump this pair, move the leader if the pair now wins the
        # (count, -rank) order, and mark it recent.
        bumped = counts[pair] + 1
        counts[pair] = bumped
        rank = rank_of_pair[pair]
        promote = ~known | (bumped > max_count[active])
        tie = known & (bumped == max_count[active]) & (rank < leader_rank[active])
        max_count[active] = np.where(promote, bumped, max_count[active])
        leader_rank[active] = np.where(promote | tie, rank, leader_rank[active])
        recent_pair[active] = pair
        has_counts[active] = True
        hot = np.flatnonzero(bumped >= saturation)
        if len(hot):
            _halve_and_rescan(
                np,
                counts,
                active[hot],
                group_base,
                pairs_per_group,
                rank_order,
                rank_bound,
                rank_of_pair,
                max_count,
                leader_rank,
            )

    has_out = np.empty(m, dtype=bool)
    pred_out = np.empty(m, dtype=np.int64)
    has_out[order] = has2
    pred_out[order] = pred2
    return has_out, pred_out


def _halve_and_rescan(
    np,
    counts,
    groups,
    group_base,
    pairs_per_group,
    rank_order,
    rank_bound,
    rank_of_pair,
    max_count,
    leader_rank,
):
    """Halve every live count of the saturated ``groups`` in place.

    A halved count never drops below 1 and never-seen pairs stay at 0
    (mirroring the scalar loop over the live dict only), then each
    group's running max and leader are recomputed from scratch.
    """
    base = group_base[groups]
    width = pairs_per_group[groups]
    segment = np.repeat(base, width) + _ragged_arange(np, width)
    pairs = rank_order[segment]
    live = counts[pairs]
    counts[pairs] = np.where(live > 0, np.maximum(np.int64(1), live // 2), 0)
    keys = counts[pairs] * np.int64(rank_bound) + (
        np.int64(rank_bound - 1) - rank_of_pair[pairs]
    )
    offsets = np.zeros(len(groups), dtype=np.int64)
    offsets[1:] = np.cumsum(width)[:-1]
    best = np.maximum.reduceat(keys, offsets)
    max_count[groups] = best // rank_bound
    leader_rank[groups] = np.int64(rank_bound - 1) - best % rank_bound


# --------------------------------------------------------------------------- #
# FCM plans: context keys, single and blended orders
# --------------------------------------------------------------------------- #
def _context_keys(group, order, positions):
    """Context ids — (group, last ``order`` values) — for ``positions``.

    Ids come from the trace's shared table, so they are dense over every
    position of that order rather than over ``positions``; the FCM passes
    re-densify them, so predictions do not depend on the labelling.
    """
    return group.context(order)[positions]


def _plan_fcm(np, group, order, counter_max):
    """Single fixed-order FCM, with optional saturating counters."""
    stream = np.flatnonzero(group.t >= order)
    stream_has, stream_pred = _fcm_eval(
        np, _context_keys(group, order, stream), group.vs[stream], counter_max
    )
    has = np.zeros(group.n, dtype=bool)
    pred = np.zeros(group.n, dtype=np.int64)
    has[stream] = stream_has
    pred[stream] = stream_pred
    return has, pred


def _plan_blended_fcm(np, group, order, counter_max, update_policy):
    """Blended FCM over orders ``order..0`` under either update policy.

    Lazy exclusion, top-down: the records still unmatched at order o that
    have seen >= o values are exactly the ones that update order o's
    table, so each round's candidate stream doubles as that order's
    updater stream.  Under full update every gated record feeds every
    order's table.  Either way a record keeps the highest order where a
    previous same-context candidate exists.  No record reaches an order at
    or past the deepest PC stream, so the walk starts below it.
    """
    lazy = update_policy == "lazy-exclusion"
    has = np.zeros(group.n, dtype=bool)
    pred = np.zeros(group.n, dtype=np.int64)
    unmatched = np.ones(group.n, dtype=bool)
    for model_order in range(min(order, group.depth - 1), -1, -1):
        gated = group.t >= model_order
        candidates = np.flatnonzero((unmatched & gated) if lazy else gated)
        if candidates.size == 0:
            continue
        stream_has, stream_pred = _fcm_eval(
            np,
            _context_keys(group, model_order, candidates),
            group.vs[candidates],
            counter_max,
        )
        fresh = stream_has & unmatched[candidates]
        chosen = candidates[fresh]
        has[chosen] = True
        pred[chosen] = stream_pred[fresh]
        unmatched[candidates[stream_has]] = False
    return has, pred


# --------------------------------------------------------------------------- #
# Hybrid plans: component composition plus vectorized choosers
# --------------------------------------------------------------------------- #
def _hybrid_components(np, columns, group, components):
    """Every component's (has, pred) pair and correctness.

    ``components`` lists ``(config signature, plan)``.  Results are
    memoised on the grouping by signature, so hybrids sharing a component
    configuration (``s2`` and ``fcm3`` in all three registered hybrids)
    compute it once per trace.
    """
    memo = group.components
    results = []
    for signature, plan in components:
        result = memo.get(signature)
        if result is None:
            result = memo[signature] = plan(np, columns, group)
        results.append(result)
    correct = [has & (pred == group.vs) for has, pred in results]
    return results, correct


def _gather_selected(np, results, selection):
    """Per-record gather of (has, pred) from the selected component.

    Fancy indexing accepts the same negative indices Python list indexing
    does, so exotic chooser mappings behave exactly like the scalar
    ``components[index]`` access.
    """
    all_has = np.stack([has for has, _ in results])
    all_pred = np.stack([pred for _, pred in results])
    index = np.arange(all_has.shape[1])
    return all_has[selection, index], all_pred[selection, index]


def _pc_chooser_select(np, group, correct, score_max):
    """Vectorized :class:`~repro.core.hybrid.PcChooser` selection.

    Each component's per-PC score stream is a prefix composition of
    saturating ±1 steps.  The step ``y -> min(C, max(B, y + A))`` is
    closed under composition, so a segmented Hillis–Steele doubling scan
    yields, per record, the transform of all earlier same-PC records;
    applied to the entry's initial score of 0 that is exactly the score
    the scalar ``select`` reads (``train`` runs after selection).
    """
    n = group.n
    width = len(correct)
    depth = int(group.sizes.max()) if len(group.sizes) else 0
    top = np.int64(score_max)
    scores = []
    for component in range(width):
        shift = np.where(correct[component], np.int64(1), np.int64(-1))
        low = np.zeros(n, dtype=np.int64)
        high = np.full(n, top, dtype=np.int64)
        span = 1
        while span < depth:
            later = np.flatnonzero(group.t >= span)
            earlier = later - span
            shift_early = shift[earlier]
            low_early = low[earlier]
            high_early = high[earlier]
            shift_late = shift[later]
            low_late = low[later]
            high_late = high[later]
            new_high = np.minimum(
                high_late, np.maximum(low_late, high_early + shift_late)
            )
            new_low = np.minimum(
                new_high, np.maximum(low_late, low_early + shift_late)
            )
            shift[later] = shift_early + shift_late
            low[later] = new_low
            high[later] = new_high
            span *= 2
        value = np.zeros(n, dtype=np.int64)
        later = np.flatnonzero(group.t >= 1)
        earlier = later - 1
        value[later] = np.minimum(
            high[earlier], np.maximum(low[earlier], shift[earlier])
        )
        scores.append(value)
    # Argmax with the scalar's earlier-index tie-break; records whose PC
    # has no chooser entry yet (first occurrence) take index 0.
    selection = np.zeros(n, dtype=np.int64)
    best = scores[0]
    for component in range(1, width):
        better = scores[component] > best
        selection = np.where(better, np.int64(component), selection)
        best = np.where(better, scores[component], best)
    return np.where(group.t >= 1, selection, np.int64(0))


def _plan_hybrid(predictor, components):
    """Build the plan closure for one hybrid configuration."""
    from repro.core.hybrid import CategoryChooser, OracleChooser, PcChooser

    chooser = predictor.chooser
    if isinstance(chooser, OracleChooser):

        def plan(np, columns, group):
            _, correct = _hybrid_components(np, columns, group, components)
            combined = np.zeros(group.n, dtype=bool)
            for flags in correct:
                combined |= flags
            # correct == has & (pred == value): emitting the true value as
            # the prediction makes the bitmap exactly "any component hit".
            return combined, group.vs

        return plan
    if isinstance(chooser, CategoryChooser):
        mapping = dict(chooser.mapping)
        default = chooser.default

        def plan(np, columns, group):
            results, _ = _hybrid_components(np, columns, group, components)
            lookup = np.asarray(
                [mapping.get(category, default) for category in columns.categories],
                dtype=np.int64,
            )
            selection = lookup[columns.category_codes[group.order]]
            return _gather_selected(np, results, selection)

        return plan
    if isinstance(chooser, PcChooser):
        if chooser.num_components != len(components):
            return None
        score_max = chooser.score_max

        def plan(np, columns, group):
            results, correct = _hybrid_components(np, columns, group, components)
            selection = _pc_chooser_select(np, group, correct, score_max)
            return _gather_selected(np, results, selection)

        return plan
    return None


# --------------------------------------------------------------------------- #
# Plan resolution (memoised per registry name)
# --------------------------------------------------------------------------- #
def _plan_for(predictor):
    """Build the vector plan for a predictor instance, or ``None``.

    Every plan is a pure closure ``plan(np, columns, group)`` returning
    ``(has, pred)`` in the grouping's sorted domain, for a predictor that
    starts empty.  Dispatch inspects the instantiated
    configuration, so dynamic names and re-bound registry entries select
    the right plan.
    """
    from repro.core.blending import BlendedFcmPredictor
    from repro.core.fcm import FcmPredictor
    from repro.core.hybrid import HybridPredictor
    from repro.core.last_value import LastValuePredictor
    from repro.core.stride import (
        CounterStridePredictor,
        SimpleStridePredictor,
        TwoDeltaStridePredictor,
    )

    kind = type(predictor)
    if kind is LastValuePredictor:
        if predictor.hysteresis == "always":
            return lambda np, columns, group: _plan_last_value(np, group)
        if predictor.hysteresis == "counter":
            maximum = predictor.counter_max
            limit = predictor.counter_threshold
            return lambda np, columns, group: _plan_lv_counter(np, group, maximum, limit)
        required = predictor.required_run
        return lambda np, columns, group: _plan_lv_consecutive(np, group, required)
    if kind is SimpleStridePredictor:
        return lambda np, columns, group: _plan_simple_stride(np, group)
    if kind is TwoDeltaStridePredictor:
        return lambda np, columns, group: _plan_two_delta(np, group)
    if kind is CounterStridePredictor:
        maximum = predictor.counter_max
        limit = predictor.threshold
        return lambda np, columns, group: _plan_stride_counter(np, group, maximum, limit)
    if kind is FcmPredictor:
        order = predictor.order
        saturation = predictor.counter_max
        return lambda np, columns, group: _plan_fcm(np, group, order, saturation)
    if kind is BlendedFcmPredictor:
        order = predictor.order
        saturation = predictor.counter_max
        policy = predictor.update_policy
        return lambda np, columns, group: _plan_blended_fcm(
            np, group, order, saturation, policy
        )
    if kind is HybridPredictor:
        components = [
            (component.predictor.config_signature(), _plan_for(component.predictor))
            for component in predictor.components
        ]
        if any(plan is None for _, plan in components):
            return None
        return _plan_hybrid(predictor, components)
    return None


#: name -> (registered factory at resolution time, plan).  The factory
#: object is the cache validity token: re-registering a name swaps the
#: factory and invalidates the entry, while dynamic ``fcmN*`` spellings
#: (token ``None``) are fixed by construction and cache indefinitely.
_PLAN_CACHE: dict[str, tuple[object, object]] = {}


def vector_plan(predictor_name: str):
    """The vector plan for a registry name, or ``None`` (scalar fallback).

    Resolution is memoised per name: a campaign resolves the same few
    names once per trace otherwise, and instantiating a throwaway
    predictor per resolution is the expensive part.  The cache is
    validated against the registry's current factory object, so
    ``register_predictor(..., overwrite=True)`` takes effect immediately.
    """
    from repro.core.registry import create_predictor, registered_factory

    token = registered_factory(predictor_name)
    cached = _PLAN_CACHE.get(predictor_name)
    if cached is not None and cached[0] is token:
        return cached[1]
    plan = _plan_for(create_predictor(predictor_name))
    _PLAN_CACHE[predictor_name] = (token, plan)
    return plan


# --------------------------------------------------------------------------- #
# Result assembly — dict insertion orders must match the scalar loop's,
# because cache entries are JSON renderings of these dicts and the two
# kernels must produce byte-identical entries.
# --------------------------------------------------------------------------- #
def _first_occurrence_order(np, keys):
    """Unique keys with counts, ordered by first occurrence in ``keys``."""
    unique, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return unique[order], first[order], counts[order]


def _category_counts(np, columns, codes):
    """Category -> count, keyed in first-occurrence order of ``codes``."""
    unique, _, counts = _first_occurrence_order(np, codes)
    return {
        columns.categories[code]: count
        for code, count in zip(unique.tolist(), counts.tolist())
    }


def _category_totals(np, columns):
    """Per-category record counts — identical for every predictor's shard."""
    totals = columns.scratch.get("category_totals")
    if totals is None:
        totals = _category_counts(np, columns, columns.category_codes)
        columns.scratch["category_totals"] = totals
    return totals


def simulate_shard_vector(columns: "TraceColumns", predictor_name: str):
    """Vectorized :func:`~repro.simulation.simulator.simulate_shard`.

    Returns ``None`` when the predictor has no vector plan or a size
    guard trips — callers then run the scalar reference loop.
    """
    from repro.simulation.simulator import (
        SIMULATION_COUNTER,
        PredictorResult,
        PredictorShard,
    )

    np = numpy_or_none()
    if np is None:
        return None
    plan = vector_plan(predictor_name)
    if plan is None:
        return None
    group = _grouping(np, columns)
    try:
        has_sorted, pred_sorted = plan(np, columns, group)
    except _VectorizationUnsupported:
        return None
    SIMULATION_COUNTER.increment()
    n = group.n
    has = np.empty(n, dtype=bool)
    pred = np.empty(n, dtype=np.int64)
    has[group.order] = has_sorted
    pred[group.order] = pred_sorted
    correct = has & (pred == columns.values)

    correct_pcs, _, correct_counts = _first_occurrence_order(np, columns.pcs[correct])
    result = PredictorResult(
        predictor=predictor_name,
        total=n,
        correct=int(correct.sum()),
        category_total=dict(_category_totals(np, columns)),
        category_correct=_category_counts(np, columns, columns.category_codes[correct]),
        pc_correct=dict(zip(correct_pcs.tolist(), correct_counts.tolist())),
    )
    return PredictorShard(
        result=result,
        correctness=np.packbits(correct, bitorder="little").tobytes(),
        record_count=n,
    )


def merge_shards_vector(
    columns: "TraceColumns", shards: Mapping[str, "PredictorShard"]
) -> "SimulationResult | None":
    """Vectorized :func:`~repro.simulation.simulator.merge_shards`.

    The caller validates shard/record counts first; ``None`` means the
    merge is outside the vector path (no numpy, or more than 62
    predictors, whose joint outcomes no longer pack into one int64 key).
    """
    from repro.simulation.simulator import SimulationResult

    np = numpy_or_none()
    names = tuple(shards)
    if np is None or len(names) > 62:
        return None
    n = len(columns)

    key = np.zeros(n, dtype=np.uint64)
    for position, name in enumerate(names):
        bits = np.unpackbits(
            np.frombuffer(shards[name].correctness, dtype=np.uint8),
            count=n,
            bitorder="little",
        )
        key |= bits.astype(np.uint64) << np.uint64(position)

    width = len(names)

    def outcome_tuple(packed: int) -> tuple[bool, ...]:
        return tuple(bool(packed >> position & 1) for position in range(width))

    def subset_dict(keys) -> dict:
        unique, _, counts = _first_occurrence_order(np, keys)
        return {
            outcome_tuple(packed): count
            for packed, count in zip(unique.tolist(), counts.tolist())
        }

    subset_counts = subset_dict(key)
    subset_by_category: dict = {}
    category_codes, _, _ = _first_occurrence_order(np, columns.category_codes)
    for code in category_codes:
        mask = columns.category_codes == code
        subset_by_category[columns.categories[int(code)]] = subset_dict(key[mask])

    unique_pcs, first_seen, pc_counts = _first_occurrence_order(np, columns.pcs)
    pc_total = dict(zip(unique_pcs.tolist(), pc_counts.tolist()))
    first_codes = columns.category_codes[first_seen].tolist()
    pc_category = {
        pc: columns.categories[code]
        for pc, code in zip(unique_pcs.tolist(), first_codes)
    }
    return SimulationResult(
        trace_name=columns.name,
        predictor_names=names,
        total_records=n,
        results={name: shards[name].result for name in names},
        pc_total=pc_total,
        pc_category=pc_category,
        subset_counts=subset_counts,
        subset_counts_by_category=subset_by_category,
    )



