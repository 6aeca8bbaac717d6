"""Turn raw (possibly infeasible) predictions into a feasible per-day
schedule.

The core primitive is online matching of prediction requests to day slots
on the line [1, T]: the randomized harmonic rule picks the nearest free
slot left or right with probability proportional to the inverse distance.
Occupied days are tracked as blocks in a union-find
structure whose representatives know the nearest open day on each side, so
an assignment costs a near-constant number of union-find operations.

A post-pass over one lifetime per element moves every deletion scheduled
before its element's insertion onto the insertion's day, and a deletion
with no insertion past the horizon, after which each day holds at most one
insertion and at most one deletion.
"""

from __future__ import annotations

import random

from .model import DELETE, INSERT, Prediction


class SlotLine:
    """Day slots 1..T plus overflow slots appended past T.

    Blocks of contiguous assigned days are union-find sets; the
    representative of a block carries the nearest unassigned day strictly
    left and right of the block.  Day 0 and the overflow region act as
    boundary sentinels: the left sentinel is never assignable, the right
    sentinel resolves to freshly appended days past T.  ``ops`` counts the
    union-find operations performed so far.
    """

    def __init__(self, T: int):
        self.T = T
        self.ops = 0
        size = T + 2
        self.parent = list(range(size))
        self.rank = [0] * size
        self.assigned = [False] * size
        self.left = list(range(-1, size - 1))
        self.right = list(range(1, size + 1))
        self.next_overflow = T + 1

    def find(self, x: int) -> int:
        self.ops += 1
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def _union_roots(self, ra: int, rb: int) -> int:
        """Union by rank over two set representatives."""
        self.ops += 1
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra

    def neighbors(self, t: int) -> tuple[int, int]:
        """Nearest free day strictly left / right of assigned day t's block.
        Left 0 means no free day exists to the left; right past T resolves
        to the next overflow day."""
        rep = self.find(t)
        lt = self.left[rep]
        rt = self.right[rep]
        if rt > self.T:
            rt = self.next_overflow
        return lt, rt

    def take(self, t: int) -> int:
        """Mark day t assigned, merging with adjacent assigned blocks.
        At most two finds and two unions; with the lookup in the caller
        that keeps every assignment within six union-find operations."""
        if t > self.T:
            # overflow days are always fresh
            t = self.next_overflow
            self.next_overflow += 1
            return t
        assert not self.assigned[t]
        self.assigned[t] = True
        new_left, new_right = t - 1, t + 1
        rep = t  # a fresh singleton is its own root
        if t - 1 >= 1 and self.assigned[t - 1]:
            lrep = self.find(t - 1)
            new_left = self.left[lrep]
            rep = self._union_roots(lrep, rep)
        if t + 1 <= self.T and self.assigned[t + 1]:
            rrep = self.find(t + 1)
            new_right = self.right[rrep]
            rep = self._union_roots(rep, rrep)
        self.left[rep] = new_left
        self.right[rep] = new_right
        return t

    def assign_harmonic(self, t: int, rng: random.Random) -> int:
        """The randomized rule: a request at a free day takes it; otherwise
        go to the nearest free slot left or right with probability
        proportional to 1/distance."""
        t = max(1, min(t, self.T))
        if not self.assigned[t]:
            return self.take(t)
        lt, rt = self.neighbors(t)
        if lt <= 0:
            return self.take(rt)
        d_left, d_right = t - lt, rt - t
        p_left = (1.0 / d_left) / (1.0 / d_left + 1.0 / d_right)
        return self.take(lt if rng.random() < p_left else rt)


def fix_ordering(
    predictions: list[Prediction], days: list[int], ins_day: dict[str, int], T: int
) -> list[int]:
    """The assigned ``days`` of ``predictions`` (one lifetime per element),
    with each deletion assigned before its element's insertion moved onto
    the insertion's day and each deletion with no insertion moved to the
    slot just past the horizon.  An element's insertion is its predicted
    one, or else the one already scheduled in ``ins_day``.

    One linear pass; afterwards each day holds at most one insertion and at
    most one deletion, because a moved deletion always lands on a day that
    held only its insertion.
    """
    ins = {p.event.element: d for p, d in zip(predictions, days) if p.event.kind == INSERT}
    fixed = []
    for p, d in zip(predictions, days):
        if p.event.kind == DELETE:
            inserted = ins.get(p.event.element, ins_day.get(p.event.element))
            d = T + 1 if inserted is None else max(d, inserted)
        fixed.append(d)
    return fixed
