"""Concrete problem instantiations and their from-scratch oracles.

Three incremental contracts (active-element counter, union-by-rank
connectivity, and, via the decremental adapter, an ordered-multiset max)
plus an offline divide-and-conquer minimum spanning forest with contraction
sparsification.

Every problem also ships an independent daily oracle used by verification:
the oracle recomputes the answer from the true active set each day through
a different code path than the engine (BFS instead of union-find for
connectivity, plain Kruskal instead of the sparsifier chain for MSF).
"""

from __future__ import annotations

import bisect
from math import ceil, log2

from .engine import ScheduleBug, WindowCtx
from .model import INSERT, Event


# -- counter ---------------------------------------------------------------


class CounterContract:
    """Active-element count; insert cost exactly 1 unit."""

    payload_fields = 0

    def init(self):
        return [0], 1

    def insert(self, state, element, payload):
        state[0] += 1
        return 1

    def clone(self, state):
        return [state[0]], 1

    def output(self, state):
        return state[0]


def counter_contract() -> CounterContract:
    return CounterContract()


# -- incremental connectivity ----------------------------------------------


class ConnectivityContract:
    """Union by rank without path compression: O(log n) worst-case insert,
    so the lifted divide-and-conquer meets the worst-case update-time
    requirement.  State is (parent, rank) dicts over vertices.  An edge's
    payload is its endpoints (u, v)."""

    payload_fields = 2

    def init(self):
        return ({}, {}), 1

    def _find(self, parent, v) -> tuple[int, int]:
        steps = 0
        while parent[v] != v:
            v = parent[v]
            steps += 1
        return v, steps

    def insert(self, state, element, payload):
        parent, rank = state
        u, v = payload[0], payload[1]
        cost = 1
        for x in (u, v):
            if x not in parent:
                parent[x] = x
                rank[x] = 0
                cost += 1
        ru, su = self._find(parent, u)
        rv, sv = self._find(parent, v)
        cost += su + sv
        if ru == rv:
            return cost
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        if rank[ru] == rank[rv]:
            rank[ru] += 1
        return cost

    def clone(self, state):
        parent, rank = state
        return (dict(parent), dict(rank)), len(parent) + len(rank) + 1

    def output(self, state):
        parent, _ = state
        comps: dict[int, list[int]] = {}
        for v in parent:
            comps.setdefault(self._find(parent, v)[0], []).append(v)
        return tuple(sorted(tuple(sorted(c)) for c in comps.values()))


def connectivity_contract() -> ConnectivityContract:
    return ConnectivityContract()


# -- decremental max ---------------------------------------------------------


class DecrementalMaxContract:
    """Ordered multiset of (value, element) pairs; worst-case-logarithmic
    locate per deletion.  Output is the current max value (None if empty).
    An element's payload is its value (value,)."""

    payload_fields = 1

    def initialize(self, items: list[tuple[str, int]], capacity: int):
        pairs = sorted((value, element) for element, value in items)
        values = {element: value for element, value in items}
        n = max(1, len(pairs))
        return [pairs, values], len(pairs) * (1 + ceil(log2(n + 1)))

    def delete(self, state, element):
        pairs, values = state
        if element not in values:
            raise ValueError(f"delete of absent value for element {element}")
        value = values.pop(element)
        idx = bisect.bisect_left(pairs, (value, element))
        if idx >= len(pairs) or pairs[idx] != (value, element):
            raise ValueError(f"ordered multiset out of sync for {element}")
        del pairs[idx]
        return 1 + ceil(log2(len(pairs) + 2))

    def clone(self, state):
        pairs, values = state
        return [list(pairs), dict(values)], len(pairs) + len(values) + 1

    def output(self, state):
        pairs, _ = state
        return pairs[-1][0] if pairs else None


def decremental_max_contract() -> DecrementalMaxContract:
    return DecrementalMaxContract()


# -- minimum spanning forest --------------------------------------------------


class MsfGraph:
    """Window memory for the MSF problem: the contracted residual graph plus
    the weight and ids of edges already forced into every spanning forest of
    the window's span.  The forced ids are a sorted tuple: a window adds its
    contracted ids, and a day its picked ids, by sorting the concatenation,
    which the sort does as a merge of the sorted run with the few new ids."""

    __slots__ = ("edges", "acc_weight", "acc_ids")

    def __init__(self, edges, acc_weight, acc_ids):
        self.edges = edges  # tuple of (w, id, u, v) in contracted labels
        self.acc_weight = acc_weight
        self.acc_ids = acc_ids  # sorted tuple of edge ids


def _link(uf: dict, edges) -> list:
    """Union the endpoints of each ``(w, id, u, v)`` edge in turn in the
    union-find ``uf``; returns the edges that joined two components, in
    order.  A label absent from ``uf`` is a root, and finding a root
    compresses the path to it.  Every union links the larger root under
    the smaller, so a root is its component's smallest label."""
    linked = []
    for edge in edges:
        u = ru = edge[2]
        while ru in uf:
            ru = uf[ru]
        while u != ru:
            uf[u], u = ru, uf[u]
        v = rv = edge[3]
        while rv in uf:
            rv = uf[rv]
        while v != rv:
            uf[v], v = rv, uf[v]
        if ru != rv:
            if ru < rv:
                uf[rv] = ru
            else:
                uf[ru] = rv
            linked.append(edge)
    return linked


def _kruskal(edges):
    """Forest of the minimum spanning forest under the total order (w, id).
    Returns (picked list, weight).  Tie order by id keeps the forest unique
    and diffable against the oracle."""
    picked = _link({}, sorted(edges))
    return picked, sum(edge[0] for edge in picked)


class MsfProblem:
    """Offline divide-and-conquer MSF (c = 1, up to the sorting log): the
    offline sparsification of Eppstein, "Offline algorithms for dynamic
    minimum spanning tree problems", J. Algorithms 1994.

    Per window, parent edges split into permanents (alive across the whole
    span) and volatiles (an endpoint event inside the span).  Permanents in
    the spanning forest even with every volatile edge forced present are in
    every spanning forest of the span: contract them.  Permanents outside
    the spanning forest of permanents alone are outside every spanning
    forest: drop them.  Volatiles always pass through to the children.

    The root sorts its edges by (w, id) once and drops self-loops, which
    are in no spanning forest.  Filtering and relabelling keep that order,
    so every pass reads edges sorted.  A window pays only for the passes
    its edges need: with no permanents its edges are its volatiles as they
    come, and with permanents but none contracted they are the kept
    permanents merged with the volatiles, with no relabel.  An edge's
    payload is (u, v, w).
    """

    payload_fields = 3

    def compute_window(self, ctx: WindowCtx, parent: MsfGraph | None):
        s, e = ctx.start, ctx.end
        ins_map, del_map, never = ctx.lifetime_maps()
        ins_get, del_get = ins_map.get, del_map.get
        loops = 0
        if parent is None:
            candidates = []
            for el, ins in ins_map.items():
                if ins > e or del_get(el, never) < s:
                    continue  # never alive in the span: no payload needed
                payload = ctx.payload(el)
                if payload[0] == payload[1]:
                    loops += 1  # in no spanning forest, but charged as an edge
                    continue
                candidates.append((payload[2], el, payload[0], payload[1]))
            candidates.sort()
            acc_weight, acc_ids = 0, ()
        else:
            candidates = parent.edges
            acc_weight, acc_ids = parent.acc_weight, parent.acc_ids

        perm, vol = [], []
        for edge in candidates:
            # every test below depends only on whether the edge's events fall
            # inside the span, never on their exact days, so a containing
            # window's classification is stable under in-span reschedules
            ins = ins_get(edge[1])
            if ins is None or ins > e:
                continue  # not yet alive in the span
            dl = del_get(edge[1], never)
            if dl < s:
                continue  # deleted before the span
            if ins >= s or dl <= e:
                vol.append(edge)  # has an endpoint event inside the span
            else:
                perm.append(edge)  # alive across the whole span

        m = len(perm) + len(vol) + loops
        cost = m * (1 + ceil(log2(m + 2)))

        if not perm:
            return MsfGraph(tuple(vol), acc_weight, acc_ids), cost, len(vol)

        # contraction test: volatile edges forced present
        forced: dict = {}
        _link(forced, vol)
        contracted = _link(forced, perm)
        # deletion test: permanents alone
        kept = _link({}, perm)
        if not contracted:
            new_edges = kept + vol
            new_edges.sort()
            return MsfGraph(tuple(new_edges), acc_weight, acc_ids), cost, len(new_edges)

        # relabel under the new contractions
        labels: dict = {}
        _link(labels, contracted)
        contracted_ids = {edge[1] for edge in contracted}
        new_edges = []
        for w, eid, u, v in kept + vol:
            if eid in contracted_ids:
                continue
            while u in labels:
                u = labels[u]
            while v in labels:
                v = labels[v]
            if u != v:  # self-loops are in no spanning forest
                new_edges.append((w, eid, u, v))
        new_edges.sort()

        mem = MsfGraph(
            tuple(new_edges),
            acc_weight + sum(edge[0] for edge in contracted),
            tuple(sorted(acc_ids + tuple(contracted_ids))),
        )
        return mem, cost, len(new_edges)

    def day_output(self, leaf: MsfGraph, ctx: WindowCtx):
        t = ctx.start
        ins_map, del_map, never = ctx.lifetime_maps()
        alive = []
        for edge in leaf.edges:
            ins = ins_map.get(edge[1])
            if ins is not None and ins <= t < del_map.get(edge[1], never):
                alive.append(edge)
        picked, weight = _kruskal(alive)
        ids = tuple(sorted(leaf.acc_ids + tuple(edge[1] for edge in picked)))
        return (leaf.acc_weight + weight, ids)


def msf_problem() -> MsfProblem:
    return MsfProblem()


# -- daily brute-force oracles -------------------------------------------------


class ActiveSet:
    """The true active elements, each with its payload, advanced one real
    event at a time; what every from-scratch oracle answer reads."""

    __slots__ = ("items", "_payloads")

    def __init__(self):
        self.items: dict[str, tuple] = {}
        self._payloads: dict[str, tuple] = {}

    def apply(self, day: int, ev: Event) -> None:
        if ev.payload:
            self._payloads[ev.element] = ev.payload
        if ev.kind == INSERT:
            self.items[ev.element] = self._payloads.get(ev.element, ())
        else:
            if ev.element not in self.items:
                raise ScheduleBug(f"day {day}: delete of inactive element {ev.element}")
            del self.items[ev.element]


def _bfs_components(edges: list[tuple[int, int]]):
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        frontier = [start]
        seen.add(start)
        while frontier:
            x = frontier.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


def oracle_answer(problem: str, active: dict[str, tuple]):
    """One day's answer recomputed from scratch from the active elements and
    their payloads.  Independent of the engine's data structures."""
    if problem == "counter":
        return len(active)
    if problem == "connectivity":
        return _bfs_components([(p[0], p[1]) for p in active.values()])
    if problem == "msf":
        edges = [(p[2], el, p[0], p[1]) for el, p in active.items()]
        picked, weight = _kruskal(edges)
        return (weight, tuple(sorted(eid for _, eid, _, _ in picked)))
    if problem == "decmax":
        return max((p[0] for p in active.values()), default=None)
    raise ValueError(f"unknown problem {problem!r}")


def oracle_daily_outputs(problem: str, stream: list[tuple[int, Event]]) -> list:
    """From-scratch recomputation of every day's answer from the true
    active set."""
    active = ActiveSet()
    outs = []
    for day, ev in stream:
        active.apply(day, ev)
        outs.append(oracle_answer(problem, active.items))
    return outs
