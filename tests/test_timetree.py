"""Partition tree: construction, Cartesian property, window lookup, and the
priority-only fast path."""

import numpy as np
import pytest

from oracles import is_window_interval, smallest_window_size, span
from predlift.timetree import PartitionTree


def all_spans(t: PartitionTree) -> set[tuple[int, int]]:
    return {(t.start[i], t.end[i]) for i in range(t.n_nodes())}


def test_single_day():
    t = PartitionTree.build(1, seed=0)
    assert span(t, 0) == (1, 1)
    assert t.depth == 0
    assert t.smallest_window(1, 1) == 0


def test_empty_horizon_is_rejected_before_drawing():
    for T in (0, -1):
        with pytest.raises(ValueError, match="T must be at least 1"):
            PartitionTree.build(T, seed=0)


def test_two_days():
    t = PartitionTree.build(2, seed=0)
    assert span(t, 0) == (1, 2)
    assert all_spans(t) == {(1, 2), (1, 1), (2, 2)}
    assert t.depth == 1


def test_recorded_depth_is_longest_parent_chain():
    for T in range(1, 65):
        for seed in range(4):
            t = PartitionTree.build(T, seed=seed)
            longest = 0
            for day in range(1, T + 1):
                nid, edges = t.leaf_of[day], 0
                while t.parent[nid] != -1:
                    nid, edges = t.parent[nid], edges + 1
                longest = max(longest, edges)
            assert t.depth == longest, (T, seed)


def test_figure_priorities_T6():
    # border dividers 0.40 and 0.33 rank below interior 0.61, 0.55, so
    # [2, 4] is a window; 0.48 does not rank below 0.33, so [2, 5] is not
    pr = np.array([0.40, 0.61, 0.55, 0.33, 0.48])
    t = PartitionTree(6, pr)
    spans = all_spans(t)
    assert (2, 4) in spans
    assert (2, 5) not in spans
    assert is_window_interval(pr, 2, 4)
    assert not is_window_interval(pr, 2, 5)


def test_every_window_satisfies_cartesian_property():
    for seed in range(20):
        t = PartitionTree.build(40, seed=seed)
        pr = t.priorities
        for i in range(t.n_nodes()):
            a, b = span(t, i)
            assert is_window_interval(pr, a, b), (a, b)
        # and every interval passing the test is a window
        spans = all_spans(t)
        for a in range(1, 41):
            for b in range(a, 41):
                assert ((a, b) in spans) == is_window_interval(pr, a, b)


def test_children_partition_parent():
    t = PartitionTree.build(33, seed=3)
    for i in range(t.n_nodes()):
        if t.left[i] != -1:
            l, r = t.left[i], t.right[i]
            assert t.start[l] == t.start[i]
            assert t.end[r] == t.end[i]
            assert t.end[l] + 1 == t.start[r]
        if i != 0:
            assert t.parent[i] < i  # ids list each parent before its children
    assert sum(t.left[i] == -1 for i in range(t.n_nodes())) == 33


def test_smallest_window_basics():
    t = PartitionTree.build(64, seed=1)
    assert span(t, t.smallest_window(7, 7)) == (7, 7)
    assert t.smallest_window(1, 64) == 0
    a, b = span(t, t.smallest_window(10, 30))
    assert a <= 10 and b >= 30
    with pytest.raises(ValueError):
        t.smallest_window(0, 5)


def test_chain_of_windows_is_nested():
    t = PartitionTree.build(50, seed=9)
    day = 17
    nid = t.leaf_of[day]
    spans = []
    while nid != -1:
        spans.append(span(t, nid))
        nid = t.parent[nid]
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert a2 <= a1 and b1 <= b2


def test_fast_window_size_matches_tree_lca():
    rng = np.random.default_rng(12)
    for _ in range(60):
        T = int(rng.integers(2, 70))
        pr = rng.random(T - 1)
        t = PartitionTree(T, pr)
        t1 = int(rng.integers(1, T + 1))
        t2 = int(rng.integers(1, T + 1))
        nid = t.smallest_window(t1, t2)
        assert t.end[nid] - t.start[nid] + 1 == smallest_window_size(pr, t1, t2)


def test_windows_starting_at():
    t = PartitionTree.build(16, seed=4)
    run = t.windows_starting_at(1)
    assert span(t, run[0]) == (1, 16)  # root starts at day 1
    assert all(t.start[n] == 1 for n in run)
    for day in range(2, 17):
        for n in t.windows_starting_at(day):
            assert t.start[n] == day


def test_first_split_distribution_T4():
    counts = {1: 0, 2: 0, 3: 0}
    trials = 30_000
    for seed in range(trials):
        t = PartitionTree.build(4, seed=seed)
        counts[t.end[t.left[0]]] += 1
    for k in counts:
        assert abs(counts[k] / trials - 1 / 3) < 0.02
