"""Brute-force oracles and batch helpers that the tests compare the library
against: batch slot assignment as an ``Assignment`` of days to
predictions, the minimum-l1 and minimum-linf assignments, feasibility and
displacement of an assignment, and the partition tree's window test
straight from divider priorities and a window's span, an element's
liveness on a day read from a schedule, a check that a schedule's records
have happened exactly on their days, an engine's state in comparable
form, an engine that repairs each moved record's span on its own, the
live windows that differ from a fresh top-down compute, those of a
lifted engine that answer otherwise than the oracle over the elements
alive across them, a window's
permanent elements by brute force, records of every window compute as it
happens, of those that run after the window's last day and of those a
repair walk runs, connectivity's insert and output with helper root
finds, the boosting loop that brings each new epoch's instances up to
today by replaying every past day, a steppable engine that counts its
steps, a record of the backstops built, a minimum spanning forest by
plain Kruskal, and an MSF window computed pass by pass."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil, log2
from typing import Any

import numpy as np

from predlift.boosting import Backstop, BoostConfig, SteppableEngine
from predlift.engine import Engine, WindowCtx
from predlift.incremental import LiftedIncremental
from predlift.model import DELETE, INSERT, Event, Prediction
from predlift.problems import (
    ConnectivityContract,
    CounterContract,
    MsfGraph,
    MsfProblem,
    oracle_answer,
)
from predlift.scheduling import SlotLine
from predlift.timetree import PartitionTree

# -- slot assignment ----------------------------------------------------------


@dataclass
class Assignment:
    """Predictions with their assigned days, in input order."""

    predictions: list[Prediction]
    days: list[int]
    T: int


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


def assert_happened_on_their_days(eng, happened: dict[tuple[str, str], int]) -> None:
    """Each event in ``happened`` (its key -> the day it happened) is
    scheduled on that day, and every other record on a day after the
    engine's ``current_day``: a record has happened exactly when its day
    has come.  Each record also sits in the day bucket of its day, and no
    bucket holds any other."""
    sched, today = eng.schedule, eng.current_day
    for kind, days in ((INSERT, sched.ins_day), (DELETE, sched.del_day)):
        for element, day in days.items():
            key = (element, kind)
            assert key in sched.days[day], (key, day)
            assert day == happened[key] if key in happened else day > today, (key, day, today)
    assert all(key[0] in (sched.ins_day if key[1] == INSERT else sched.del_day) for key in happened)
    assert sum(map(len, sched.days)) == len(sched.ins_day) + len(sched.del_day)


def engine_state(eng) -> tuple:
    """What a day of ``Engine.process_day`` may change, in comparable form:
    the day, the outputs, the counters, every schedule record by day, the
    lookups and miss counts beside them, and the window memories."""
    sched = eng.schedule
    return (
        eng.current_day,
        list(eng.outputs),
        eng.counters.as_dict(),
        [list(keys) for keys in sched.days],
        (dict(sched.payloads), dict(sched.ins_day), dict(sched.del_day), dict(sched.misses)),
        repr(eng.memory),
    )


class PerSpanEngine(Engine):
    """The engine with one repair walk per moved record: each span of a day
    is walked on its own, with all of the day's moves, so a window below
    several spans whose alive-across set a move changes is recomputed once
    for each.  The
    reference the day's shared walk is checked against: the same outputs,
    for at least as many units.  Its window memories answer the same but
    need not be equal: a connectivity window that one walk recomputes and
    the other keeps holds the same components in a union-find of another
    shape."""

    def retrigger(self, spans, moves):
        for span in spans:
            yield from Engine.retrigger(self, [span], moves)


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
            components.setdefault(_find_root(parent, v)[0], set()).add(v)
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


def misanswering_windows(eng) -> list[tuple[int, int]]:
    """Spans of the live windows of ``eng``, a lifted counter, connectivity or
    decremental max engine, whose last day has not passed and whose memory's
    ``output`` differs from ``oracle_answer`` over the elements alive across
    the window on the current schedule: inserted on or before its first day
    and deleted after its last.  Decremental max's elements are
    anti-elements, so its answer is over the run's ground set less the
    elements with an anti-instance alive across the window.  Unlike
    ``stale_windows``, no window is computed."""
    contract, sched, tree = eng.problem.contract, eng.schedule, eng.tree
    never = eng.T + 1
    wrong = []
    for nid in range(tree.n_nodes()):
        start, end = tree.start[nid], tree.end[nid]
        if eng.memory[nid] is None or end < eng.current_day:
            continue
        alive = {
            el: sched.payloads.get(el, ())
            for el, ins in sched.ins_day.items()
            if ins <= start and sched.del_day.get(el, never) > end
        }
        if isinstance(contract, CounterContract):
            want = oracle_answer("counter", alive)
        elif isinstance(contract, ConnectivityContract):
            want = oracle_answer("connectivity", alive)
        else:  # the decremental adapter's anti-view
            absent = {anti.rsplit("~", 1)[0] for anti in alive}
            present = {el: p for el, p in contract.ground.items() if el not in absent}
            want = oracle_answer("decmax", present)
        if contract.output(eng.memory[nid]) != want:
            wrong.append(span(tree, nid))
    return wrong


def reference_permanents(eng, nid: int) -> list[str]:
    """The elements permanent for window ``nid`` of ``eng``, sorted, by
    brute force over every element of the schedule: alive on the window's
    first and last days (so across it) and, below the root, not across
    its parent."""
    tree, sched = eng.tree, eng.schedule

    def across(el, n):
        return alive_on(sched, el, tree.start[n]) and alive_on(sched, el, tree.end[n])

    parent = tree.parent[nid]
    return sorted(
        el
        for el in sched.ins_day.keys() | sched.del_day.keys()
        if across(el, nid) and (parent == -1 or not across(el, parent))
    )


@contextmanager
def window_computes(record):
    """Call ``record(eng, nid, parent_memory, result, walking)`` for every
    window compute of any engine while the block runs: ``result`` is what
    the problem's ``compute_window`` returned, and ``walking`` says whether
    a repair walk made it.  The engine is the one whose ``_recompute`` call
    or ``retrigger`` generator is running (the walk computes its windows
    itself), and the window is found from its context's span, which is
    unique in the tree.  A compute outside both, such as
    ``stale_windows``'s, is not recorded.  ``Engine._recompute``,
    ``Engine.retrigger`` and both problems' ``compute_window`` are
    restored on exit."""
    running: list[tuple[Engine, bool]] = []
    nodes: dict[PartitionTree, dict[tuple[int, int], int]] = {}
    recompute, retrigger = Engine._recompute, Engine.retrigger
    computes = [(cls, cls.compute_window) for cls in (LiftedIncremental, MsfProblem)]

    def computing(eng, nid):
        running.append((eng, False))
        try:
            return recompute(eng, nid)
        finally:
            running.pop()

    def walking(eng, spans, moves):
        walk = retrigger(eng, spans, moves)
        while True:
            running.append((eng, True))
            try:
                units = next(walk)
            except StopIteration:
                return
            finally:
                running.pop()
            yield units

    def spy(compute):
        def recorded(problem, ctx, parent):
            result = compute(problem, ctx, parent)
            if running:
                eng, walk = running[-1]
                tree = eng.tree
                if tree not in nodes:
                    nodes[tree] = {span(tree, n): n for n in range(tree.n_nodes())}
                record(eng, nodes[tree][ctx.start, ctx.end], parent, result, walk)
            return result

        return recorded

    Engine._recompute, Engine.retrigger = computing, walking
    for cls, compute in computes:
        cls.compute_window = spy(compute)
    try:
        yield
    finally:
        Engine._recompute, Engine.retrigger = recompute, retrigger
        for cls, compute in computes:
            cls.compute_window = compute


@contextmanager
def retrigger_recomputes():
    """Record, while the block runs, every window recompute a repair walk of
    any engine makes: a list of (engine, day, window) triples, found by
    ``window_computes``."""
    seen: list[tuple[Engine, int, int]] = []

    def record(eng, nid, parent, result, walking):
        if walking:
            seen.append((eng, eng.current_day, nid))

    with window_computes(record):
        yield seen


@contextmanager
def ended_window_computes():
    """Record, while the block runs, every window compute of any engine that
    happens after the window's last day, at ingest, on a start day or in a
    repair walk: a list of (window span, day) pairs, found by
    ``window_computes``."""
    ended: list[tuple[tuple[int, int], int]] = []

    def record(eng, nid, parent, result, walking):
        if eng.tree.end[nid] < eng.current_day:
            ended.append((span(eng.tree, nid), eng.current_day))

    with window_computes(record):
        yield ended


# -- connectivity ----------------------------------------------------------------


def _find_root(parent: dict, v) -> tuple[Any, int]:
    steps = 0
    while parent[v] != v:
        v = parent[v]
        steps += 1
    return v, steps


def reference_connectivity_insert(state, payload) -> int:
    """``ConnectivityContract.insert`` with its root finds as a helper
    call: the same union by rank, at the same cost."""
    parent, rank = state
    u, v = payload[0], payload[1]
    cost = 1
    for x in (u, v):
        if x not in parent:
            parent[x] = x
            rank[x] = 0
            cost += 1
    ru, su = _find_root(parent, u)
    rv, sv = _find_root(parent, v)
    cost += su + sv
    if ru == rv:
        return cost
    if rank[ru] < rank[rv]:
        ru, rv = rv, ru
    parent[rv] = ru
    if rank[ru] == rank[rv]:
        rank[ru] += 1
    return cost


def reference_connectivity_output(state) -> tuple:
    """``ConnectivityContract.output`` by helper finds, each component
    sorted after it is gathered."""
    parent, _ = state
    comps: dict = {}
    for v in parent:
        comps.setdefault(_find_root(parent, v)[0], []).append(v)
    return tuple(sorted(tuple(sorted(c)) for c in comps.values()))


# -- boosting -------------------------------------------------------------------


def replay_boost_run(engine_factory, bundles, stream, ground_size, config: BoostConfig):
    """``boost_run`` with each new epoch's instances brought up to today by
    replay: a fresh engine ingests its bundle, which computes its whole
    tree, and then every past day is fed through the new backstop, its
    answers thrown away.  The epochs, bundles, instance counts and seeds are
    ``boost_run``'s.  Returns the daily outputs and the epochs as
    ``(horizon guess, L, days replayed)``."""
    horizon_guess = 1
    meta = None
    history: list[tuple[int, Event]] = []
    outputs: list[Any] = []
    epochs: list[tuple[int, int, int]] = []
    for day, ev in stream:
        if day >= horizon_guess:
            idx = horizon_guess.bit_length()
            while idx > 1 and idx not in bundles:
                idx -= 1
            bundle = bundles.get(idx, [])
            horizon_guess *= 2
            l_uncapped = max(
                config.k * max(1, ceil(log2(horizon_guess))),
                ceil(log2(max(2, ground_size))),
            )
            L = max(1, min(l_uncapped, config.instances_cap))
            usable = [p for p in bundle if not p.is_sentinel and p.predicted_day <= horizon_guess]
            instances = [
                engine_factory(horizon_guess, usable, config.seed + 7919 * len(epochs) + i)
                for i in range(L)
            ]
            meta = Backstop(instances)
            for past_day, past_ev in history:
                meta.feed(past_day, past_ev)
            epochs.append((horizon_guess, L, len(history)))
        history.append((day, ev))
        outputs.append(meta.feed(day, ev))
    return outputs, epochs


class CountingSteppable(SteppableEngine):
    """SteppableEngine that also counts the steps that spent a unit."""

    steps_taken = 0

    def step(self):
        if not self.is_complete():
            self.steps_taken += 1
        super().step()


@contextmanager
def backstops_built():
    """Record, while the block runs, every ``Backstop`` built: a list in
    the order of construction.  ``Backstop.__init__`` is restored on exit."""
    built: list[Backstop] = []
    init = Backstop.__init__

    def recording(meta, algorithms):
        init(meta, algorithms)
        built.append(meta)

    Backstop.__init__ = recording
    try:
        yield built
    finally:
        Backstop.__init__ = init


# -- minimum spanning forest --------------------------------------------------


def kruskal(edges) -> tuple:
    """(weight, sorted ids) of the minimum spanning forest of the
    ``(w, id, u, v)`` edges under the total order (w, id), by plain Kruskal
    with a union-find of its own."""
    root: dict = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    weight, picked = 0, []
    for w, eid, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            weight += w
            picked.append(eid)
    return weight, tuple(sorted(picked))


def reference_msf_window(ctx, parent):
    """``MsfProblem.compute_window`` pass by pass, with a union-find of its
    own: classify the parent's edges, link the volatiles and then the
    permanents to find the contracted ones, link the permanents alone to
    find the kept ones, relabel the kept and volatile edges under the
    contractions and drop self-loops, then sort.  The root keeps every
    edge alive in its span, self-loops too, until the relabel.  A leaf
    instead contracts the edges alive on its day into its forced weight
    and ids and keeps no edges, charged the compute units of every edge
    alive on or deleted on its day and no clone units.  Returns (memory,
    compute units, clone units)."""

    def find(uf, x):
        while uf.get(x, x) != x:
            x = uf[x]
        return x

    def link(uf, edges):
        linked = []
        for edge in edges:
            ru, rv = find(uf, edge[2]), find(uf, edge[3])
            if ru != rv:
                uf[max(ru, rv)] = min(ru, rv)
                linked.append(edge)
        return linked

    s, e = ctx.start, ctx.end
    ins_map, del_map, never = ctx.lifetime_maps()
    if parent is None:
        candidates = []
        for el, ins in ins_map.items():
            if ins <= e and del_map.get(el, never) >= s:
                p = ctx.payload(el)
                candidates.append((p[2], el, p[0], p[1]))
        candidates.sort()
        acc_weight, acc_ids = 0, ()
    else:
        candidates = parent.edges
        acc_weight, acc_ids = parent.acc_weight, parent.acc_ids
    if s == e:
        spanned = [
            edge
            for edge in candidates
            if ins_map.get(edge[1], never) <= s <= del_map.get(edge[1], never)
        ]
        alive = [edge for edge in spanned if del_map.get(edge[1], never) != s]
        forest = link({}, alive)
        mem = MsfGraph(
            (),
            acc_weight + sum(edge[0] for edge in forest),
            tuple(sorted(set(acc_ids) | {edge[1] for edge in forest})),
        )
        m = len(spanned)
        return mem, m * (1 + ceil(log2(m + 2))), 0
    perm, vol = [], []
    for edge in candidates:
        ins, dl = ins_map.get(edge[1]), del_map.get(edge[1], never)
        if ins is None or ins > e or dl < s:
            continue
        if s <= ins <= e or s <= dl <= e:
            vol.append(edge)
        else:
            perm.append(edge)
    m = len(perm) + len(vol)
    forced: dict = {}
    link(forced, vol)
    contracted = link(forced, perm)
    contracted_ids = {edge[1] for edge in contracted}
    residual = [edge for edge in link({}, perm) if edge[1] not in contracted_ids]
    labels: dict = {}
    link(labels, contracted)
    new_edges = []
    for w, eid, u, v in residual + vol:
        ru, rv = find(labels, u), find(labels, v)
        if ru != rv:
            new_edges.append((w, eid, ru, rv))
    new_edges.sort()
    mem = MsfGraph(
        tuple(new_edges),
        acc_weight + sum(edge[0] for edge in contracted),
        tuple(sorted(set(acc_ids) | contracted_ids)),
    )
    return mem, m * (1 + ceil(log2(m + 2))), len(new_edges)
