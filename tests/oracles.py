"""Brute-force oracles and batch helpers that the tests compare the library
against: batch slot assignment, the minimum-l1 and minimum-linf
assignments, feasibility and displacement of an assignment, and the
partition tree's window test straight from divider priorities and a
window's span, an element's liveness on a day read from a schedule, an
engine's state in comparable form, an engine that repairs each moved
record's span on its own, the live windows that differ from a fresh
top-down compute, and records of the window computes that run after the
window's last day and of those a retrigger runs."""

from __future__ import annotations

import random
from contextlib import contextmanager

import numpy as np

from predlift.engine import Engine, WindowCtx
from predlift.model import DELETE, INSERT, Prediction
from predlift.problems import ConnectivityContract, MsfGraph
from predlift.scheduling import Assignment, SlotLine
from predlift.timetree import PartitionTree

# -- slot assignment ----------------------------------------------------------


def assign_greedy(line: SlotLine, t: int) -> int:
    """Deterministic nearest free slot, ties toward the earlier day."""
    t = max(1, min(t, line.T))
    if not line.assigned[t]:
        return line.take(t)
    lt, rt = line.neighbors(t)
    if lt <= 0:
        return line.take(rt)
    return line.take(lt if t - lt <= rt - t else rt)


def harmonic_assign(predictions: list[Prediction], T: int, seed: int) -> Assignment:
    rng = random.Random(seed)
    line = SlotLine(T)
    days = [line.assign_harmonic(p.predicted_day, rng) for p in predictions]
    return Assignment(list(predictions), days, T)


def greedy_assign(predictions: list[Prediction], T: int) -> Assignment:
    line = SlotLine(T)
    days = [assign_greedy(line, p.predicted_day) for p in predictions]
    return Assignment(list(predictions), days, T)


def displacement(a: Assignment) -> int:
    """Total |assigned - requested| over non-overflow requests."""
    return sum(
        abs(d - min(max(p.predicted_day, 1), a.T)) for p, d in zip(a.predictions, a.days)
    )


def is_feasible(a: Assignment) -> bool:
    """At most one insertion and one deletion per day inside the horizon,
    and no deletion strictly before its element's insertion."""
    per_day: dict[tuple[int, str], int] = {}
    for p, d in zip(a.predictions, a.days):
        if d > a.T:
            continue
        per_day[(d, p.event.kind)] = per_day.get((d, p.event.kind), 0) + 1
        if per_day[(d, p.event.kind)] > 1:
            return False
    ins: dict[str, list[int]] = {}
    dels: dict[str, list[int]] = {}
    for p, d in zip(a.predictions, a.days):
        (ins if p.event.kind == INSERT else dels).setdefault(p.event.element, []).append(d)
    for element, dl in dels.items():
        il = sorted(ins.get(element, ()))
        for k, dd in enumerate(sorted(dl)):
            if k < len(il) and dd < il[k]:
                return False
    return True


def optimal_offline_assign(predictions: list[Prediction], T: int) -> Assignment:
    """The minimum-l1 feasible assignment.

    Per kind, requests are matched to distinct days of [1, T] minimizing
    total displacement.  The optimal matching on a line is order-preserving,
    so a dynamic program over (sorted requests) x (days) suffices:
    dp[i][j] = cost of placing the first i requests on days <= j.
    """
    new_days = list(0 for _ in predictions)
    for kind in (INSERT, DELETE):
        items = [
            (min(max(p.predicted_day, 1), T), idx)
            for idx, p in enumerate(predictions)
            if p.event.kind == kind
        ]
        if not items:
            continue
        items.sort()
        n = len(items)
        width = max(T, n)
        reqs = np.array([d for d, _ in items], dtype=np.int64)
        days_axis = np.arange(1, width + 1, dtype=np.int64)
        cost = np.abs(reqs[:, None] - days_axis[None, :]).astype(np.float64)
        dp = np.empty((n, width))
        dp[0] = np.minimum.accumulate(cost[0])
        for i in range(1, n):
            shifted = np.empty(width)
            shifted[0] = np.inf
            shifted[1:] = dp[i - 1][:-1]
            dp[i] = np.minimum.accumulate(shifted + cost[i])
        # backtrack the lowest-day optimal choice for each request
        j = int(np.argmin(dp[n - 1]))
        choice = [0] * n
        for i in range(n - 1, -1, -1):
            while j > 0 and i <= j - 1 and dp[i][j - 1] <= dp[i][j]:
                j -= 1
            choice[i] = j + 1
            j -= 1
        for (d, idx), day in zip(items, choice):
            new_days[idx] = day
    return Assignment(list(predictions), new_days, T)


def min_linf_error(predictions: list[Prediction], T: int) -> int:
    """Smallest max displacement of any assignment of the requested days to
    distinct slots (single line, both kinds together).  Binary search over
    the answer with a greedy feasibility check."""
    reqs = sorted(min(max(p.predicted_day, 1), T) for p in predictions)
    if not reqs:
        return 0

    def feasible(D: int) -> bool:
        slot = 0
        for r in reqs:
            slot = max(slot + 1, r - D)
            if slot > r + D:
                return False
        return True

    lo, hi = 0, max(T, len(reqs))
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- partition tree -------------------------------------------------------------


def span(tree: PartitionTree, nid: int) -> tuple[int, int]:
    """First and last day of window ``nid``."""
    return tree.start[nid], tree.end[nid]


def is_window_interval(priorities: np.ndarray, a: int, b: int) -> bool:
    """[a, b] is a window iff its bordering dividers rank strictly below all
    dividers inside it (range boundaries count as rank minus-infinity)."""
    T = len(priorities) + 1
    if a == 1 and b == T:
        return True
    inner = priorities[a - 1 : b - 1]
    if len(inner) == 0:
        return True  # single day: always a leaf window
    m = float(inner.min())
    lo = priorities[a - 2] if a >= 2 else -np.inf
    hi = priorities[b - 1] if b <= T - 1 else -np.inf
    return lo < m and hi < m


def smallest_window_size(priorities: np.ndarray, t1: int, t2: int) -> int:
    """Size in days of the smallest window containing both t1 and t2,
    straight from divider priorities (no tree build).

    The separator is the minimum-priority divider between the two days; the
    window extends left and right to the first dividers ranking below it.
    """
    T = len(priorities) + 1
    lo, hi = min(t1, t2), max(t1, t2)
    if lo == hi:
        return 1
    # interior dividers of [lo, hi] are divider numbers lo..hi-1 (0-based lo-1..hi-2)
    m = float(priorities[lo - 1 : hi - 1].min())
    # expand left: last divider index j in [0, lo-2] with priority < m
    a = 1
    left_region = priorities[: lo - 1]
    idx = np.flatnonzero(left_region < m)
    if idx.size:
        a = int(idx[-1]) + 2
    # expand right: first divider index j in [hi-1, T-2] with priority < m
    b = T
    right_region = priorities[hi - 1 :]
    idx = np.flatnonzero(right_region < m)
    if idx.size:
        b = hi + int(idx[0])
    return b - a + 1


# -- engine state -----------------------------------------------------------------


def alive_on(schedule, element: str, day: int) -> bool:
    """Whether ``element`` is active on ``day`` under the schedule's current
    insertion and deletion days (no deletion day means never deleted)."""
    ins = schedule.ins_day.get(element)
    return ins is not None and ins <= day < schedule.del_day.get(element, schedule.T + 1)


def engine_state(eng) -> tuple:
    """What a day of ``Engine.process_day`` may change, in comparable form:
    the day, the outputs, the counters, every schedule record by day and
    by key with the lookups beside them, and the window memories."""
    sched = eng.schedule
    return (
        eng.current_day,
        list(eng.outputs),
        eng.counters.as_dict(),
        [[repr(rec) for rec in recs] for recs in sched.days],
        {key: repr(rec) for key, rec in sched.by_key.items()},
        (dict(sched.payloads), dict(sched.ins_day), dict(sched.del_day)),
        repr(eng.memory),
    )


class PerSpanEngine(Engine):
    """The engine with one repair walk per moved record: each span of a day
    is walked on its own, so a window below several spans is recomputed
    once for each.  The reference the day's shared walk is checked against:
    the same outputs, for at least as many units.  Its window memories
    answer the same but need not be equal: a connectivity window that one
    walk recomputes and the other keeps holds the same components in a
    union-find of another shape."""

    def retrigger(self, spans):
        for span in spans:
            yield from Engine.retrigger(self, [span])


def comparable(problem, memory):
    """A window memory of ``problem`` in a form that compares by value: an
    MSF window by its edges, forced weight and forced ids, a connectivity
    state by its components (their union is its vertex set), since the
    shape of its union-find depends on the order of its insertions, and
    any other contract state as it is."""
    if isinstance(memory, MsfGraph):
        return memory.edges, memory.acc_weight, memory.acc_ids
    if isinstance(getattr(problem, "contract", None), ConnectivityContract):
        parent, _ = memory
        components: dict = {}
        for v in parent:
            root = v
            while parent[root] != root:
                root = parent[root]
            components.setdefault(root, set()).add(v)
        return frozenset(frozenset(c) for c in components.values())
    return memory


def stale_windows(eng) -> list[tuple[int, int]]:
    """Spans of the live windows of ``eng`` whose last day has not passed and
    whose memory differs from a fresh compute, top-down from the root, on
    the current schedule, the memories compared as ``comparable`` gives
    them."""
    tree = eng.tree
    fresh, stale = {}, []
    for nid in range(tree.n_nodes()):
        if eng.memory[nid] is None or tree.end[nid] < eng.current_day:
            continue
        parent = tree.parent[nid]
        pmem = fresh[parent] if parent != -1 else None
        fresh[nid] = eng.problem.compute_window(WindowCtx(eng, nid), pmem)[0]
        if comparable(eng.problem, fresh[nid]) != comparable(eng.problem, eng.memory[nid]):
            stale.append(span(tree, nid))
    return stale


@contextmanager
def retrigger_recomputes():
    """Record, while the block runs, every window recompute a retrigger of
    any engine makes: a list of (engine, day, window) triples.
    ``Engine._recompute`` is restored on exit."""
    seen: list[tuple[Engine, int, int]] = []
    recompute = Engine._recompute

    def recording(eng, nid, bucket):
        if bucket == "retrigger":
            seen.append((eng, eng.current_day, nid))
        return recompute(eng, nid, bucket)

    Engine._recompute = recording
    try:
        yield seen
    finally:
        Engine._recompute = recompute


@contextmanager
def ended_window_computes():
    """Record, while the block runs, every window compute of any engine that
    happens after the window's last day: a list of (window span, day)
    pairs.  ``Engine._recompute`` is restored on exit."""
    ended: list[tuple[tuple[int, int], int]] = []
    recompute = Engine._recompute

    def recording(eng, nid, bucket):
        if eng.tree.end[nid] < eng.current_day:
            ended.append((span(eng.tree, nid), eng.current_day))
        return recompute(eng, nid, bucket)

    Engine._recompute = recording
    try:
        yield ended
    finally:
        Engine._recompute = recompute
