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
* **blended FCM** predicts each record from the deepest order whose
  context occurred earlier in the record's PC stream (its *match
  order*, capped at the top order).  A context's first occurrence is
  never matched at a higher order, so a record that has seen ``o``
  values updates order ``o`` below the top exactly when its match order
  is at most ``o`` under lazy exclusion, and always under full update.
  Neither depends on the top order, so ``fcmN`` runs one stream at its
  own top order and takes the rest from lower-order predictions shared
  by every blended FCM of its configuration.  Context ids and match
  orders come from one per-trace table that grows one order at a time,
  so ``fcm0``…``fcm8`` and the hybrids' ``fcm3`` share each order's
  single factorize pass;
* **hybrids** compose their components' plans and vectorize the chooser:
  ``PcChooser`` scores are per-PC saturating counters run as plain loops
  (like the counter plans) followed by an ``argmax``,
  ``CategoryChooser`` is a static per-category gather, and
  ``OracleChooser`` is an OR over component correctness.

Every registered configuration (and every dynamic ``fcmN`` /
``fcmN-single`` / ``fcmN-small`` / ``fcmN-full`` spelling) has a plan,
and every plan starts from a fresh predictor and covers the whole trace.
What plans derive from a trace — the per-PC grouping, the context table
and match orders, the value ranks, the lower-order FCM predictions and
the hybrids' component results — is kept for the current trace only and
released when the kernel moves to another trace or the trace dies.
Shards tally their per-PC counts from the same grouping.  Cache keys
never include the kernel: both kernels produce byte-identical entries,
and the differential parity harness
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
    ``t`` is the occurrence index of the record within its PC's stream,
    ``vs`` the values in the sorted domain.  ``starts``/``sizes``
    describe the groups and ``depth`` is the deepest PC stream.
    :meth:`context` holds the FCM context table, ``matched`` each
    record's match order and :meth:`ranks` the value ranks.  ``lower``
    and ``components`` memoise, by configuration, the blended FCMs'
    lower-order predictions and the hybrids' component results.
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
        gid = np.cumsum(new_group) - 1
        starts = np.flatnonzero(new_group)
        self.t = (np.arange(n) - (starts[gid] if n else 0)).astype(np.int32)
        self.starts = starts
        self.sizes = np.diff(np.append(starts, n))
        self.depth = int(self.sizes.max()) if n else 0
        # The order-0 context is the PC alone: it occurred earlier exactly
        # when the record is not its PC's first.
        narrow = np.min_scalar_type(-max(self.depth, 1))
        self.matched = np.where(self.t >= 1, 0, -1).astype(narrow)
        self.lower: dict = {}
        self.components: dict = {}
        self._np = np
        self._contexts = [gid.astype(np.int32)]
        self._ranks = None

    def context(self, order: int):
        """Dense ids of each position's (PC, last ``order`` values) context.

        Only positions with ``t >= order`` hold an id; the rest hold -1.
        Order ``k`` is built from order ``k - 1`` with one factorize pass
        and kept (four bytes per record), so every plan over the trace
        shares each order's pass.  The pass also raises ``matched`` to
        ``k`` where the context is a repeat, so ``matched`` is exact below
        the deepest order built.  No stream reaches an order at or past
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
            pair_ids, repeats = _factorize_pairs(
                np, contexts[-1][positions], self.vs[positions - back]
            )
            ids[positions] = pair_ids
            self.matched[positions[repeats]] = back
            contexts.append(ids)
        return contexts[order]

    def ranks(self):
        """Each sorted position's value rank among the trace's distinct values."""
        if self._ranks is None:
            _, inverse = self._np.unique(self.vs, return_inverse=True)
            self._ranks = inverse.astype(self._np.int32)
        return self._ranks


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
    """Dense ids (order-arbitrary) for the distinct ``(a[i], b[i])`` pairs.

    Also returns the indices of the pairs' repeats: the sort is stable,
    so each pair's run starts at its first occurrence.
    """
    if len(a) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort((b, a))
    a_sorted = a[order]
    b_sorted = b[order]
    boundary = np.empty(len(a), dtype=bool)
    boundary[0] = True
    boundary[1:] = (a_sorted[1:] != a_sorted[:-1]) | (b_sorted[1:] != b_sorted[:-1])
    ids = np.empty(len(a), dtype=np.int64)
    ids[order] = np.cumsum(boundary) - 1
    return ids, order[~boundary]


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
def _pair_runs(np, gid, y_rank):
    """Positions of a stream sorted by ``(gid, value)`` pair, stably.

    ``y_rank`` maps values one-to-one onto small non-negative ints, so
    the group id and the rank pack into one int64 key, and one stable
    sort lists each pair's occurrences in time order.  Returns that order
    and a mask of where each pair's run starts in it.
    """
    key = gid * np.int64(int(y_rank.max()) + 1) + y_rank
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.empty(len(key), dtype=bool)
    start[0] = True
    start[1:] = key[1:] != key[:-1]
    return order, start


def _insertion_ranks(np, pair_gid, first_pos):
    """Each pair's insertion rank within its group, by first occurrence.

    Returns the pairs ordered by (group, rank), each group's offset in
    that order and each pair's rank.  Group ids are dense and every group
    holds a pair, so the group-change positions double as the offsets.
    """
    pair_count = len(first_pos)
    rank_order = np.lexsort((first_pos, pair_gid))
    ranked_gid = pair_gid[rank_order]
    rank_start = np.empty(pair_count, dtype=bool)
    rank_start[0] = True
    rank_start[1:] = ranked_gid[1:] != ranked_gid[:-1]
    group_base = np.flatnonzero(rank_start)
    rank_sorted = np.arange(pair_count) - group_base[np.cumsum(rank_start) - 1]
    rank_of_pair = np.empty(pair_count, dtype=np.int64)
    rank_of_pair[rank_order] = rank_sorted
    return rank_order, group_base, rank_of_pair


def _fcm_stream(np, group_ids, y, y_rank):
    """Predict each element of a (group, value) stream from its group's past.

    The stream must list observations in time order; ``y_rank`` maps its
    values one-to-one onto small non-negative ints.  For each element
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

    # Running count c of each (group, value) pair at each occurrence.
    pair_order, pair_start = _pair_runs(np, gid, y_rank[order])
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
    pair_gid = gid[first_pos]
    rank_order, group_base, rank_of_pair = _insertion_ranks(np, pair_gid, first_pos)
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
    has = ~new_group
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


def _fcm_eval(np, group, order, stream, counter_max):
    """(has, pred) of the order-``order`` FCM table fed by ``stream``.

    ``stream`` lists sorted positions with ``t >= order`` in time order;
    the passes re-densify its context ids.  Exact counts run the pure
    scan, halve-on-saturation counters the same tables in lockstep.
    """
    keys = group.context(order)[stream]
    values = group.vs[stream]
    if counter_max is None:
        return _fcm_stream(np, keys, values, group.ranks()[stream])
    return _fcm_lockstep(np, keys, values, counter_max)


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
    pair_id, repeats = _factorize_pairs(np, gid, y2)
    pair_count = int(pair_id.max()) + 1
    first = np.ones(m, dtype=bool)
    first[repeats] = False
    first_pos = np.empty(pair_count, dtype=np.int64)
    first_pos[pair_id[first]] = np.flatnonzero(first)
    pair_gid = gid[first_pos]
    rank_order, group_base, rank_of_pair = _insertion_ranks(np, pair_gid, first_pos)
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
# FCM plans: single and blended orders
# --------------------------------------------------------------------------- #
def _plan_fcm(np, group, order, counter_max):
    """Single fixed-order FCM, with optional saturating counters."""
    stream = np.flatnonzero(group.t >= order)
    stream_has, stream_pred = _fcm_eval(np, group, order, stream, counter_max)
    has = np.zeros(group.n, dtype=bool)
    pred = np.zeros(group.n, dtype=np.int64)
    has[stream] = stream_has
    pred[stream] = stream_pred
    return has, pred


def _plan_blended_fcm(np, group, order, counter_max, update_policy):
    """Blended FCM over orders ``order..0`` under either update policy.

    A record predicts from its ``matched`` order, capped at the top
    order (see the module docstring).  Records that reach the top take
    one stream over every record with ``t >= top``; the rest take the
    shared lower-order predictions.  No record reaches an order at or
    past the deepest PC stream, so the top order stays below it.
    """
    top = min(order, group.depth - 1)
    has = group.t >= 1
    if top < 0:
        return has, np.zeros(group.n, dtype=np.int64)
    stream = np.flatnonzero(group.t >= top)
    _, stream_pred = _fcm_eval(np, group, top, stream, counter_max)
    pred = _lower_order_predictions(np, group, top, counter_max, update_policy).copy()
    deepest = group.matched[stream] >= top
    pred[stream[deepest]] = stream_pred[deepest]
    return has, pred


def _lower_order_predictions(np, group, top, counter_max, update_policy):
    """Each record's prediction from its ``matched`` order, below ``top``.

    Order ``o`` is fed by every record with ``t >= o`` (full update) or
    by those that also have ``matched <= o`` (lazy exclusion), whatever
    the top order.  So each order's stream runs once per trace and
    configuration, memoised for every deeper blended FCM to extend.
    """
    group.context(top)  # makes ``matched`` exact below ``top``
    key = (counter_max, update_policy)
    done, pred = group.lower.get(key) or (0, np.zeros(group.n, dtype=np.int64))
    lazy = update_policy == "lazy-exclusion"
    matched = group.matched
    for model_order in range(done, top):
        gated = group.t >= model_order
        stream = np.flatnonzero((gated & (matched <= model_order)) if lazy else gated)
        _, stream_pred = _fcm_eval(np, group, model_order, stream, counter_max)
        hits = matched[stream] == model_order
        pred[stream[hits]] = stream_pred[hits]
    group.lower[key] = (max(done, top), pred)
    return pred


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


def _pc_scores(group, flags, score_max):
    """One component's :class:`~repro.core.hybrid.PcChooser` score per record.

    It is the score the scalar ``select`` reads: a per-PC counter in
    ``[0, score_max]`` that every earlier same-PC record trained (+1 on
    a hit, -1 on a miss), run as a plain loop over each PC's slice.
    """
    hits = flags.tolist()
    scores = []
    emit = scores.append
    for start, stop in _pc_slices(group):
        score = 0
        emit(0)
        for hit in hits[start : stop - 1]:
            if hit:
                if score < score_max:
                    score += 1
            elif score:
                score -= 1
            emit(score)
    return scores


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
            scores = [_pc_scores(group, flags, score_max) for flags in correct]
            # argmax takes the first maximal score: the scalar's tie-break.
            # A PC's first record has no entry yet and takes component 0,
            # which its all-zero scores select too.
            return _gather_selected(np, results, np.argmax(scores, axis=0))

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
    counts = np.bincount(codes, minlength=len(columns.categories))
    first = np.full(len(counts), len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    present = np.flatnonzero(counts)
    present = present[np.argsort(first[present])]
    return {
        columns.categories[code]: count
        for code, count in zip(present.tolist(), counts[present].tolist())
    }


def _pc_counts(np, columns, group, flags):
    """PC -> number of set ``flags`` (sorted domain), in first-set order.

    Segment reductions over the groups give each PC's count and first
    set record; PCs with none are left out, as in the scalar loop.
    """
    if not group.n:
        return {}
    counts = np.add.reduceat(flags, group.starts, dtype=np.int64)
    first = np.minimum.reduceat(np.where(flags, group.order, group.n), group.starts)
    present = np.flatnonzero(counts)
    present = present[np.argsort(first[present])]
    pcs = columns.pcs[group.order[group.starts[present]]]
    return dict(zip(pcs.tolist(), counts[present].tolist()))


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
    correct_sorted = has_sorted & (pred_sorted == group.vs)
    correct = np.empty(n, dtype=bool)
    correct[group.order] = correct_sorted
    result = PredictorResult(
        predictor=predictor_name,
        total=n,
        correct=int(np.count_nonzero(correct_sorted)),
        category_total=dict(_category_totals(np, columns)),
        category_correct=_category_counts(np, columns, columns.category_codes[correct]),
        pc_correct=_pc_counts(np, columns, group, correct_sorted),
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
        packed = np.frombuffer(shards[name].correctness, dtype=np.uint8)
        bits = np.unpackbits(packed, count=n, bitorder="little")
        key |= bits.astype(np.uint64) << np.uint64(position)

    shifts = np.arange(len(names), dtype=np.uint64)

    def subset_dict(keys) -> dict:
        unique, _, counts = _first_occurrence_order(np, keys)
        outcomes = ((unique[:, None] >> shifts) & np.uint64(1)).astype(bool).tolist()
        return dict(zip(map(tuple, outcomes), counts.tolist()))

    subset_counts = subset_dict(key)
    subset_by_category: dict = {}
    category_codes, _, _ = _first_occurrence_order(np, columns.category_codes)
    for code in category_codes:
        mask = columns.category_codes == code
        subset_by_category[columns.categories[int(code)]] = subset_dict(key[mask])

    unique_pcs, first_seen, pc_counts = _first_occurrence_order(np, columns.pcs)
    pc_total = dict(zip(unique_pcs.tolist(), pc_counts.tolist()))
    first_codes = columns.category_codes[first_seen].tolist()
    first_categories = [columns.categories[code] for code in first_codes]
    pc_category = dict(zip(unique_pcs.tolist(), first_categories))
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
