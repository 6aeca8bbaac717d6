"""Concrete problem instantiations and their from-scratch oracles.

Three incremental contracts (active-element counter, union-by-rank
connectivity, and, via the decremental adapter, a segment-tree max)
plus an offline divide-and-conquer minimum spanning forest with contraction
sparsification, whose one-day windows each hold their day's answer.

Every problem also ships an independent daily oracle used by verification:
the oracle recomputes the answer from the true active set each day through
a different code path than the engine (BFS instead of union-find for
connectivity, plain Kruskal over every active edge instead of the
sparsifier chain for MSF).
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
    requirement.  State is (parent, rank) dicts over vertices, a root its
    own parent.  An edge's payload is its endpoints (u, v).  An insert
    costs 1, plus 1 per new vertex, plus 1 per parent step its two root
    finds take; the finds run inline, as they run once per permanent edge
    of every window."""

    payload_fields = 2

    def init(self):
        return ({}, {}), 1

    def insert(self, state, element, payload):
        parent, rank = state
        u, v = payload[0], payload[1]
        cost = 1
        if u not in parent:
            parent[u] = u
            rank[u] = 0
            cost += 1
        if v not in parent:
            parent[v] = v
            rank[v] = 0
            cost += 1
        ru = u
        while (up := parent[ru]) != ru:
            ru = up
            cost += 1
        rv = v
        while (up := parent[rv]) != rv:
            rv = up
            cost += 1
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
        """The components as sorted tuples of vertices, in sorted order.
        Vertices are visited in sorted order, so each component's list
        comes out sorted."""
        parent, _ = state
        comps: dict[int, list[int]] = {}
        for v in sorted(parent):
            root = v
            while (up := parent[root]) != root:
                root = up
            if root in comps:
                comps[root].append(v)
            else:
                comps[root] = [v]
        return tuple(sorted(tuple(c) for c in comps.values()))


def connectivity_contract() -> ConnectivityContract:
    return ConnectivityContract()


# -- decremental max ---------------------------------------------------------


_NO_VALUE = float("-inf")  # a deleted or unused leaf


class DecrementalMaxContract:
    """Flat max segment tree over the ground set: ``tree[1]`` is the root,
    node i has children 2i and 2i+1, and element j of the ground set, in
    ``initialize``'s order, is the leaf ``size + j``, where ``size`` is the
    least power of two at least the set's size.  A deleted element's leaf,
    and every unused one, holds minus infinity.  A deletion costs at most
    1 + log2(size) units, its worst case.  Output is the current max value
    (None if empty).  An element's payload is its value (value,)."""

    payload_fields = 1

    def initialize(self, items: list[tuple[str, int]]):
        """The tree built level by level, plus the element -> leaf map,
        which clones share and nothing mutates; one unit per tree slot."""
        size = 1
        while size < len(items):
            size *= 2
        tree = [_NO_VALUE] * size + [value for _, value in items]
        tree += [_NO_VALUE] * (size - len(items))
        level = size // 2
        while level:
            tree[level : 2 * level] = map(
                max, tree[2 * level : 4 * level : 2], tree[2 * level + 1 : 4 * level : 2]
            )
            level //= 2
        leaf = {element: size + j for j, (element, _) in enumerate(items)}
        return (tree, leaf), len(tree)

    def delete(self, state, element):
        """Set the element's leaf to minus infinity and climb only while
        the maximum changes; one unit per level visited."""
        tree, leaf = state
        i = leaf.get(element)
        if i is None or tree[i] == _NO_VALUE:
            raise ValueError(f"delete of absent value for element {element}")
        top = tree[i] = _NO_VALUE
        units = 1
        while i > 1:
            sibling = tree[i ^ 1]
            if sibling > top:
                top = sibling
            i >>= 1
            units += 1
            if tree[i] == top:
                break
            tree[i] = top
        return units

    def clone(self, state):
        tree, leaf = state
        return (tree[:], leaf), len(tree)

    def output(self, state):
        top = state[0][1]
        return None if top == _NO_VALUE else top


def decremental_max_contract() -> DecrementalMaxContract:
    return DecrementalMaxContract()


# -- minimum spanning forest --------------------------------------------------


class MsfGraph:
    """Window memory for the MSF problem: the contracted residual graph plus
    the weight and ids of edges already forced into every spanning forest of
    the window's span.  The forced ids are a sorted tuple, to which a window
    adds its contracted ids and a leaf its day's forest (``_merge_ids``).  A
    leaf keeps no edges: its forced weight and ids are its day's answer."""

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


def _merge_ids(ids: tuple, edges) -> tuple:
    """The sorted tuple ``ids`` with the ids of ``edges`` inserted in order:
    each insertion is a binary search and one shift, cheaper than sorting
    the whole concatenation for the few ids a window or a day adds."""
    merged = list(ids)
    for edge in edges:
        bisect.insort(merged, edge[1])
    return tuple(merged)


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

    A leaf (a one-day window, the root when T = 1) is its day's answer.  It
    makes one pass over its parent's edges, links the ones alive on its
    day into their forest, and keeps no edges: its forced weight and ids
    gain the forest's, and ``day_output`` returns them.  That answer
    depends only on the edges alive on the day, and a move that changes
    them has a span holding the day, so a repair walk recomputes the leaf.
    A leaf is charged the compute units of the window chain it replaces,
    m (1 + ceil(log2(m + 2))) over the m edges alive on or deleted on its
    day (the root's self-loops among them), and no clone units.
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

        if s == e:
            m, alive = loops, []
            for edge in candidates:
                ins = ins_get(edge[1])
                if ins is None or ins > s:
                    continue
                dl = del_get(edge[1], never)
                if dl < s:
                    continue
                m += 1  # charged whether alive today or deleted today
                if dl > s:
                    alive.append(edge)
            forest = _link({}, alive)
            mem = MsfGraph(
                (), acc_weight + sum(edge[0] for edge in forest), _merge_ids(acc_ids, forest)
            )
            return mem, m * (1 + ceil(log2(m + 2))), 0

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
            _merge_ids(acc_ids, contracted),
        )
        return mem, cost, len(new_edges)

    def day_output(self, leaf: MsfGraph):
        return (leaf.acc_weight, leaf.acc_ids)


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
        # Kruskal under the total order (w, id), which makes the forest unique
        forest = _link({}, sorted((p[2], el, p[0], p[1]) for el, p in active.items()))
        return (sum(edge[0] for edge in forest), tuple(sorted(edge[1] for edge in forest)))
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
