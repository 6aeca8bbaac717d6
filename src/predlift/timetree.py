"""Random binary decomposition of the day range [1, T].

Every divider d between day d and day d+1 draws an independent uniform
priority; each window splits at its minimum-priority divider.  This is
distributed identically to recursive uniform splitting, and it can be built
in O(T) with a monotone stack (a Cartesian tree over the priorities).

Windows are stored in flat arrays indexed by node id; leaves are single
days.  An interval [a, b] is a window of the tree exactly when the dividers
bordering it both rank below every divider inside it, with the boundary of
the full range acting as rank minus-infinity.
"""

from __future__ import annotations

import numpy as np


class PartitionTree:
    """Binary partition tree over days [1, T].

    Node arrays: ``start``/``end`` are inclusive day bounds, ``left``/
    ``right``/``parent`` are node ids (-1 for none).  The root is node 0,
    and a parent's id is smaller than its children's.  ``depth`` is the
    maximum root-to-leaf edge count.
    """

    def __init__(self, T: int, priorities: np.ndarray):
        if T < 1:
            raise ValueError("T must be at least 1")
        if len(priorities) != T - 1:
            raise ValueError("need exactly T-1 divider priorities")
        self.T = T
        self.priorities = priorities
        self._build(priorities)

    @classmethod
    def build(cls, T: int, seed: int) -> "PartitionTree":
        if T < 1:  # before drawing T - 1 priorities
            raise ValueError("T must be at least 1")
        rng = np.random.default_rng(seed)
        return cls(T, rng.random(T - 1))

    def _build(self, pr: np.ndarray) -> None:
        T = self.T
        self.start = []
        self.end = []
        self.left = []
        self.right = []
        self.parent = []
        self.leaf_of = [0] * (T + 1)  # 1-indexed by day
        self.depth = 0

        def new_node(a: int, b: int, parent: int) -> int:
            nid = len(self.start)
            self.start.append(a)
            self.end.append(b)
            self.left.append(-1)
            self.right.append(-1)
            self.parent.append(parent)
            if a == b:
                self.leaf_of[a] = nid
            return nid

        root = new_node(1, T, -1)
        if T == 1:
            return

        # Min-Cartesian tree over divider indices 0..T-2 via monotone stack.
        cleft = [-1] * (T - 1)
        cright = [-1] * (T - 1)
        stack: list[int] = []
        for i in range(T - 1):
            last = -1
            while stack and pr[stack[-1]] > pr[i]:
                last = stack.pop()
            cleft[i] = last
            if stack:
                cright[stack[-1]] = i
            stack.append(i)
        croot = stack[0]

        # Window for divider d over day interval [a, b]: children are the
        # sub-Cartesian-trees on [a, d+1] and [d+2, b] (days are 1-indexed).
        # Each entry also carries its children's depth; the deepest is the
        # tree's, since every leaf is some window's child.
        work = [(croot, 1, T, root, 1)]
        while work:
            d, a, b, nid, depth = work.pop()
            if depth > self.depth:
                self.depth = depth
            mid = d + 1  # divider d splits [a, b] into [a, d+1], [d+2, b]
            lid = new_node(a, mid, nid)
            rid = new_node(mid + 1, b, nid)
            self.left[nid] = lid
            self.right[nid] = rid
            if cleft[d] != -1:
                work.append((cleft[d], a, mid, lid, depth + 1))
            if cright[d] != -1:
                work.append((cright[d], mid + 1, b, rid, depth + 1))

    # -- queries ---------------------------------------------------------

    def n_nodes(self) -> int:
        return len(self.start)

    def smallest_window(self, t1: int, t2: int) -> int:
        """Lowest common ancestor of the leaves for days t1 and t2."""
        if not (1 <= t1 <= self.T and 1 <= t2 <= self.T):
            raise ValueError(f"days ({t1}, {t2}) out of range [1, {self.T}]")
        lo, hi = min(t1, t2), max(t1, t2)
        nid = 0
        while self.left[nid] != -1:
            l = self.left[nid]
            if hi <= self.end[l]:
                nid = l
            elif lo >= self.start[self.right[nid]]:
                nid = self.right[nid]
            else:
                break
        return nid

    def windows_starting_at(self, day: int) -> list[int]:
        """Windows whose span starts at ``day``, topmost first.  They form a
        prefix-closed run of the chain from the highest such window down the
        left spine."""
        out = []
        nid = self.leaf_of[day]
        while nid != -1 and self.start[nid] == day:
            out.append(nid)
            nid = self.parent[nid]
        out.reverse()
        return out
