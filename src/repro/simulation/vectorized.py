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
* **FCM** runs over each context order's sort: the grouping sorts the
  positions by their exact (PC, context) key once per order, so a
  table's feed is that order filtered, with each context's elements
  contiguous and in time order, and no stream sorts.  While a context
  has seen one value it predicts its previous value; only the contexts
  whose value changes run the count machinery.  There, the running
  count of a (context, value) pair comes from the next order's sort,
  whose context at ``p + 1`` is exactly that pair at ``p``; insertion
  ranks are a running count of first occurrences; and the scalar
  tie-break of :func:`repro.core.fcm.select_maximum_count` — most-recent
  wins a tie, otherwise the first-inserted of the maximal set — is
  reproduced with a segmented cumulative maximum over packed
  ``count * R + (R - 1 - rank)`` keys.  The ``counter_max``
  halve-on-saturation variant runs one plain loop per context, like the
  counter plans;
* **blended FCM** predicts each record from the deepest order whose
  context occurred earlier in the record's PC stream (its *match
  order*, capped at the top order).  A context's first occurrence is
  never matched at a higher order, so a record that has seen ``o``
  values updates order ``o`` below the top exactly when its match order
  is at most ``o`` under lazy exclusion, and always under full update.
  Neither depends on the top order, so ``fcmN`` runs one stream at its
  own top order and takes the rest from lower-order predictions shared
  by every blended FCM of its configuration.  Each order's sort is
  built from the one below with one stable sort of packed keys, and
  raises the match orders where its contexts repeat, so ``fcm0``…``fcm8``
  and the hybrids' ``fcm3`` share each order's single pass;
* **hybrids** compose their components' plans and vectorize the chooser:
  ``PcChooser`` scores are per-PC saturating counters run as plain loops
  (like the counter plans) followed by an ``argmax``,
  ``CategoryChooser`` is a static per-category gather, and
  ``OracleChooser`` is an OR over component correctness.

Every registered configuration (and every dynamic ``fcmN`` /
``fcmN-single`` / ``fcmN-small`` / ``fcmN-full`` spelling) has a plan,
and every plan starts from a fresh predictor, covers the whole trace and
runs on any trace the columns hold: no plan declines at runtime.
What plans derive from a trace — the per-PC grouping, each context
order's sort and the match orders, the value ranks, the lower-order FCM
predictions and the hybrids' component results — is kept for the
current trace only and released when the kernel moves to another trace
or the trace dies.
Shards tally their per-PC counts from the same grouping.  A shard is
byte-identical to the scalar loop's, down to the dict insertion orders
the cache serialises; the parity harness
(``tests/simulation/test_kernel_parity.py``) and the kernel fuzz
(``tests/simulation/test_kernel_fuzz.py``) pin that equivalence.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Mapping

from repro.errors import SimulationError

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.simulation.simulator import PredictorShard, SimulationResult
    from repro.trace.io import TraceColumns


def resolve_kernel(kernel: str) -> str:
    """Return ``"vector"``, the one kernel; anything else raises.

    Kept only because the benchmark harness under ``perfbench/`` calls
    it to record the kernel it ran; the benchmark-only change that drops
    that call from ``perfbench/`` deletes this function.
    """
    if kernel != "vector":
        raise SimulationError(f"unknown simulation kernel {kernel!r}; the only kernel is 'vector'")
    return kernel


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
    :meth:`by_context` keeps each FCM context order's sort, ``matched``
    each record's match order and :meth:`ranks` the value ranks.
    ``lower`` and ``components`` memoise, by configuration, the blended
    FCMs' lower-order predictions and the hybrids' component results.
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
        # Order 0 sorts by PC then position: the sorted domain itself.
        self._sorted = [np.arange(n, dtype=np.int32)]
        self._ids = [gid.astype(np.int32)]
        self._ranks = None

    def by_context(self, order: int):
        """``(positions, ids)`` of the order-``order`` contexts, in sort order.

        ``positions`` lists the positions with ``t >= order``, sorted by
        their (PC, last ``order`` values) context and then by position,
        and ``ids`` numbers their contexts densely in that order.  So each
        context's elements form one contiguous run in time order.  Order
        ``k`` is built from order ``k - 1`` with one sort
        (:func:`_sort_pairs`) and kept (eight bytes per record), so every
        plan over the trace shares each order's pass.  The pass also
        raises ``matched`` to ``k`` where the context is a repeat, so
        ``matched`` is exact below the deepest order built.  No position
        reaches an order at or past ``depth``, so none is built.
        """
        np = self._np
        if order >= self.depth:
            return np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
        while len(self._sorted) <= order:
            back = len(self._sorted)
            # The parent order's sort already groups the parents, so the
            # stable sort only orders each context's positions by the
            # rank of the value ``back`` records earlier.
            ranks = self.ranks()
            parents, parent_ids = self._sorted[-1], self._ids[-1]
            kept = self.t[parents] >= back
            positions = parents[kept]
            runs, start = _sort_pairs(
                np, parent_ids[kept], ranks[positions - back], self._rank_bound
            )
            positions = positions[runs]
            self.matched[positions[~start]] = back
            self._sorted.append(positions)
            self._ids.append((np.cumsum(start) - 1).astype(np.int32))
        return self._sorted[order], self._ids[order]

    def ranks(self):
        """Each sorted position's value rank among the trace's distinct values."""
        if self._ranks is None:
            unique, inverse = self._np.unique(self.vs, return_inverse=True)
            self._ranks = inverse.astype(self._np.int32)
            self._rank_bound = len(unique)
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


def _sort_pairs(np, a, b, bound: int):
    """Stable order of the ``(a[i], b[i])`` pairs, and where each pair's run starts.

    ``b`` holds small non-negative ints below ``bound``, so the pair
    packs into one int64 key and one stable sort orders it.
    """
    key = a.astype(np.int64) * np.int64(bound) + b
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.ones(len(key), dtype=bool)
    start[1:] = key[1:] != key[:-1]
    return order, start


def _segmented_cummax(np, gid, starts, keys, scale: int):
    """Running maximum of ``keys`` within each contiguous ascending group.

    ``gid`` numbers each element's group and group ``g`` starts at
    ``starts[g]``; a group of ``size`` elements keeps its keys in
    ``[scale, (size + 1) * scale)``.  Offsetting group ``g`` by
    ``(starts[g] + g) * scale`` then puts every key of a group above
    every key of the groups before it, so one running maximum restarts
    at each group.  Over ``m`` elements the offset keys stay below
    ``2 * m * scale``; at the FCM streams' scales (1 for counts, at most
    ``m + 1`` for packed keys) that fits int64 for any stream under
    2**30 elements.
    """
    offset = (starts[gid] + gid) * np.int64(scale)
    running = offset + keys
    np.maximum.accumulate(running, out=running)
    running -= offset
    return running


# --------------------------------------------------------------------------- #
# The FCM count/argmax machinery (shared by single-order and blended plans)
# --------------------------------------------------------------------------- #
def _fcm_exact(np, group, order, positions, ids):
    """(has, pred) of an exact-count order-``order`` FCM table.

    ``positions`` and ``ids`` are the table's feed in group order: a
    subset of :meth:`_Grouping.by_context` for ``order``, so each
    context's elements are contiguous and in time order.  For each
    element returns ``has`` (a previous same-context element exists,
    i.e. the context has non-empty counts) and ``pred`` (the value
    :func:`~repro.core.fcm.select_maximum_count` would pick from the
    counts of the previous same-context elements, with the immediately
    preceding one as the recency tie-breaker).

    Nothing is sorted.  While a context has seen one value, it predicts
    its previous value; the count machinery runs only over the contexts
    whose value changes somewhere in the feed.
    """
    m = len(positions)
    y = group.vs[positions]
    new_context = np.ones(m, dtype=bool)
    new_context[1:] = ids[1:] != ids[:-1]
    pred = np.zeros(m, dtype=np.int64)
    pred[1:] = y[:-1]
    change = np.zeros(m, dtype=bool)
    change[1:] = (y[1:] != y[:-1]) & ~new_context[1:]
    if change.any():
        varied = np.zeros(int(ids[-1]) + 1, dtype=bool)
        varied[ids[change]] = True
        inside = np.flatnonzero(varied[ids])
        pred[inside[1:]] = _leader_predictions(
            np, group, order, positions[inside], y[inside], new_context[inside]
        )
    return ~new_context, pred


def _leader_predictions(np, group, order, positions, y, new_context):
    """Predictions from the counts, for whole contexts in group order.

    Returns the prediction of every element but the first, read from the
    state after the element before it (a context's first element gets
    the previous context's state; it has no prediction to make).
    """
    m = len(y)
    starts = np.flatnonzero(new_context)
    context_of = np.cumsum(new_context) - 1

    # Running count of each (context, value) pair.  That pair is the
    # order + 1 context of the next position, so the deeper order's sort,
    # shifted back one position, lists each pair's occurrences in time
    # order.  A PC's last record has no next position and keeps count 1:
    # it is the last of its context, so no prediction reads its count.
    slot = np.full(group.n, -1, dtype=np.int32)
    slot[positions] = np.arange(m, dtype=np.int32)
    successors, pairs = group.by_context(order + 1)
    occurrences = slot[successors - 1]
    fed = occurrences >= 0
    occurrences = occurrences[fed]
    pairs = pairs[fed]
    del slot, fed
    run_start = np.ones(len(pairs), dtype=bool)
    run_start[1:] = pairs[1:] != pairs[:-1]
    first_of_run = np.flatnonzero(run_start)
    run_of = np.cumsum(run_start) - 1
    counts = np.ones(m, dtype=np.int64)
    counts[occurrences] = np.arange(len(pairs)) - first_of_run[run_of] + 1

    # Insertion rank of each pair within its context: a running count of
    # first occurrences along the group order.  The first occurrences'
    # values, in that order, decode (context, rank) back to the value.
    first = counts == 1
    seen = np.cumsum(first)
    base = seen[starts] - 1
    rank = seen - 1 - base[context_of]
    rank[occurrences] = rank[occurrences[first_of_run]][run_of]
    value_by_rank = y[first]

    # Running maximum count per context.
    running_max = _segmented_cummax(np, context_of, starts, counts, 1)

    # Leader = first-inserted value among the current maximal-count set.
    # Packing count (major) against inverted insertion rank (minor) makes
    # the running key-max decode to exactly that value: a value's latest
    # occurrence carries its full count, so the maximal key belongs to the
    # max-count value with the smallest rank.
    rank_bound = np.int64(int(rank.max()) + 2)
    key_max = _segmented_cummax(
        np, context_of, starts, counts * rank_bound + (rank_bound - 1 - rank), int(rank_bound)
    )
    leader_rank = rank_bound - 1 - key_max % rank_bound
    leader = value_by_rank[base[context_of] + leader_rank]

    # The recent value wins a count tie, otherwise the leader.
    return np.where(counts[:-1] == running_max[:-1], y[:-1], leader[:-1])


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
def _fcm_counters(np, group_ids, y, counter_max):
    """The FCM count/argmax pass with halve-on-saturation counters.

    Covers the feature the closed-form scan cannot: when a count reaches
    ``counter_max``, every count of its context is halved (never below
    1).  Each context's stream runs as a plain loop, like the counter
    plans, over a dict whose insertion order is the scalar table's.  The
    loop keeps the maximal count and the leader (the first-inserted value
    holding it) as it goes: a bump either raises the maximum or, on a
    tie, takes the lead with a lower insertion rank.  Only a halving
    rescans the context.  Predictions mirror
    :func:`~repro.core.fcm.select_maximum_count`: the recent value wins
    a count tie, otherwise the leader.  ``group_ids`` comes in group
    order, as :meth:`_Grouping.by_context` numbers it: each context is one
    contiguous run, in time order.
    """
    m = len(y)
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = group_ids[1:] != group_ids[:-1]
    bounds = np.flatnonzero(new_group).tolist()
    bounds.append(m)
    values = y.tolist()
    pred = []
    emit = pred.append
    for start, stop in zip(bounds, bounds[1:]):
        leader = recent = values[start]
        counts = {leader: 1}
        rank = {leader: 0}
        best = 1
        emit(0)
        for actual in values[start + 1 : stop]:
            emit(recent if counts[recent] == best else leader)
            count = counts[actual] = counts.get(actual, 0) + 1
            if count == 1:
                rank[actual] = len(rank)
            if count > best:
                best, leader = count, actual
            elif count == best and rank[actual] < rank[leader]:
                leader = actual
            recent = actual
            if count >= counter_max:
                for value, held in counts.items():
                    counts[value] = max(1, held // 2)
                best = max(counts.values())
                leader = next(value for value, held in counts.items() if held == best)
    return ~new_group, np.array(pred, dtype=np.int64)


# --------------------------------------------------------------------------- #
# FCM plans: single and blended orders
# --------------------------------------------------------------------------- #
def _fcm_eval(np, group, order, lazy, counter_max):
    """``(positions, has, pred)`` of the order-``order`` FCM table.

    The table is fed by every position with ``t >= order`` or, under
    lazy exclusion, by those of them with ``matched <= order``; ``positions``
    lists them in group order, straight from the order's sort.  Exact
    counts run the sort-free scan, halve-on-saturation counters one loop
    per context.
    """
    positions, ids = group.by_context(order)
    if lazy:
        fed = group.matched[positions] <= order
        positions, ids = positions[fed], ids[fed]
    if counter_max is None:
        has, pred = _fcm_exact(np, group, order, positions, ids)
    else:
        has, pred = _fcm_counters(np, ids, group.vs[positions], counter_max)
    return positions, has, pred


def _plan_fcm(np, group, order, counter_max):
    """Single fixed-order FCM, with optional saturating counters."""
    positions, stream_has, stream_pred = _fcm_eval(np, group, order, False, counter_max)
    has = np.zeros(group.n, dtype=bool)
    pred = np.zeros(group.n, dtype=np.int64)
    has[positions] = stream_has
    pred[positions] = stream_pred
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
    positions, _, stream_pred = _fcm_eval(np, group, top, False, counter_max)
    pred = _lower_order_predictions(np, group, top, counter_max, update_policy).copy()
    deepest = group.matched[positions] >= top
    pred[positions[deepest]] = stream_pred[deepest]
    return has, pred


def _lower_order_predictions(np, group, top, counter_max, update_policy):
    """Each record's prediction from its ``matched`` order, below ``top``.

    Order ``o`` is fed by every record with ``t >= o`` (full update) or
    by those that also have ``matched <= o`` (lazy exclusion), whatever
    the top order.  So each order's stream runs once per trace and
    configuration, memoised for every deeper blended FCM to extend.
    """
    group.by_context(top)  # makes ``matched`` exact below ``top``
    key = (counter_max, update_policy)
    done, pred = group.lower.get(key) or (0, np.zeros(group.n, dtype=np.int64))
    lazy = update_policy == "lazy-exclusion"
    matched = group.matched
    for model_order in range(done, top):
        positions, _, stream_pred = _fcm_eval(np, group, model_order, lazy, counter_max)
        hits = matched[positions] == model_order
        pred[positions[hits]] = stream_pred[hits]
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

    Returns ``None`` only when the predictor has no vector plan (a
    predictor class registered from outside the package); the caller
    then runs the scalar reference loop.
    """
    import numpy as np

    from repro.simulation.simulator import (
        SIMULATION_COUNTER,
        PredictorResult,
        PredictorShard,
    )

    plan = vector_plan(predictor_name)
    if plan is None:
        return None
    group = _grouping(np, columns)
    has_sorted, pred_sorted = plan(np, columns, group)
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
    merge is outside the vector path: more than 62 predictors, whose
    joint outcomes no longer pack into one int64 key.
    """
    import numpy as np

    from repro.simulation.simulator import SimulationResult

    names = tuple(shards)
    if len(names) > 62:
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
