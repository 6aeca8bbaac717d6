"""Scheduler: harmonic and greedy slot assignment, ordering fix, optimal
oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Assignment,
    displacement,
    greedy_assign,
    harmonic_assign,
    is_feasible,
    min_linf_error,
    optimal_offline_assign,
)
from predlift.model import DELETE, INSERT, Event, Prediction, l1_error
from predlift.scheduling import SlotLine, fix_ordering


def P(el, kind, day):
    return Prediction(Event(el, kind), day)


def test_distinct_free_days_identity():
    ps = [P(f"e{i}", INSERT, d) for i, d in enumerate([2, 7, 4, 9])]
    a = harmonic_assign(ps, 10, seed=0)
    assert a.days == [2, 7, 4, 9]
    assert displacement(a) == 0
    g = greedy_assign(ps, 10)
    assert g.days == [2, 7, 4, 9]


def test_harmonic_collision_takes_neighbor():
    ps = [P("a", INSERT, 5), P("b", INSERT, 5), P("c", INSERT, 5)]
    seen = set()
    for seed in range(40):
        a = harmonic_assign(ps, 10, seed=seed)
        assert a.days[0] == 5
        assert len(set(a.days)) == 3
        assert 2 <= displacement(a) <= 4  # optimal is 2; one block shift max
        seen.add(tuple(a.days))
    assert len(seen) > 1  # randomized rule actually randomizes


def test_greedy_tie_toward_earlier_day():
    ps = [P("a", INSERT, 4), P("b", INSERT, 4)]
    g = greedy_assign(ps, 8)
    assert g.days == [4, 3]


def test_left_edge_forces_right():
    ps = [P(f"e{i}", INSERT, 1) for i in range(3)]
    for seed in range(10):
        a = harmonic_assign(ps, 5, seed=seed)
        assert a.days == [1, 2, 3]


def test_horizon_exhaustion_overflows_past_T():
    ps = [P(f"e{i}", INSERT, 2) for i in range(4)]
    a = harmonic_assign(ps, 3, seed=1)
    assert sorted(a.days)[:3] == [1, 2, 3]
    assert sorted(a.days)[3] == 4  # appended overflow day


def test_union_find_op_budget():
    rng = random.Random(5)
    ps = [P(f"e{i}", INSERT, rng.randint(1, 200)) for i in range(200)]
    line, pick = SlotLine(200), random.Random(2)
    for p in ps:
        line.assign_harmonic(p.predicted_day, pick)
    assert line.ops <= 6 * len(ps)


def test_fix_ordering_moves_deletion_to_insertion_day():
    ps = [P("e", INSERT, 7), P("e", DELETE, 3)]
    fixed = fix_ordering(ps, [7, 3], {}, T=10)
    assert fixed == [7, 7]
    assert is_feasible(Assignment(ps, fixed, T=10))
    # an insertion already scheduled drags a deletion assigned before it
    ps = [P("e", DELETE, 3), P("f", DELETE, 8)]
    assert fix_ordering(ps, [3, 8], {"e": 5, "f": 5}, T=10) == [5, 8]


def test_fix_ordering_noop_when_ordered():
    ps = [P("e", INSERT, 2), P("e", DELETE, 6)]
    assert fix_ordering(ps, [2, 6], {}, T=10) == [2, 6]


def test_fix_ordering_surplus_deletion_to_past_horizon():
    ps = [P("e", DELETE, 4), P("f", INSERT, 6)]
    fixed = fix_ordering(ps, [4, 6], {}, T=10)
    # e has no insertion, predicted or scheduled
    assert fixed == [11, 6]
    assert is_feasible(Assignment(ps, fixed, T=10))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_fix_ordering_error_at_most_doubled(seed):
    rng = random.Random(seed)
    T = 32
    ps, rs = [], []
    day = 1
    for i in range(6):
        ins, dl = sorted(rng.sample(range(1, T + 1), 2))
        ps += [P(f"e{i}", INSERT, rng.randint(1, T)), P(f"e{i}", DELETE, rng.randint(1, T))]
        rs += [(Event(f"e{i}", INSERT), ins), (Event(f"e{i}", DELETE), dl)]
    a = harmonic_assign(ps, T, seed=seed)
    fixed = fix_ordering(a.predictions, a.days, {}, T)
    before = [Prediction(p.event, d) for p, d in zip(a.predictions, a.days)]
    after = [Prediction(p.event, d) for p, d in zip(a.predictions, fixed)]
    assert l1_error(after, rs, T) <= 2 * l1_error(before, rs, T)
    assert is_feasible(Assignment(a.predictions, fixed, T))


def test_optimal_three_at_same_day():
    ps = [P(f"e{i}", INSERT, 5) for i in range(3)]
    opt = optimal_offline_assign(ps, 10)
    assert displacement(opt) == 2
    assert sorted(opt.days) == [4, 5, 6]
    # exhaustive cross-check over all 3-day subsets
    best = min(
        sum(abs(d - 5) for d in combo)
        for combo in itertools.combinations(range(1, 11), 3)
    )
    assert best == displacement(opt)


def test_optimal_feasible_input_zero():
    ps = [P("a", INSERT, 3), P("b", DELETE, 3), P("c", INSERT, 8)]
    opt = optimal_offline_assign(ps, 10)
    assert displacement(opt) == 0  # kinds use separate day lines


def test_optimal_matches_exhaustive_small():
    rng = random.Random(7)
    for _ in range(25):
        days = [rng.randint(1, 6) for _ in range(4)]
        ps = [P(f"e{i}", INSERT, d) for i, d in enumerate(days)]
        opt = optimal_offline_assign(ps, 6)
        best = min(
            sum(abs(a - b) for a, b in zip(sorted(days), sorted(perm)))
            for perm in itertools.permutations(range(1, 7), 4)
        )
        assert displacement(opt) == best


def test_harmonic_competitive_against_optimal():
    rng = random.Random(11)
    T = 128
    ratios = []
    for seed in range(60):
        real_days = rng.sample(range(1, T + 1), 40)
        ps = [
            P(f"e{i}", INSERT, min(max(d + rng.randint(-6, 6), 1), T))
            for i, d in enumerate(real_days)
        ]
        rs = [(Event(f"e{i}", INSERT), d) for i, d in enumerate(real_days)]
        a = harmonic_assign(ps, T, seed=seed)
        got = l1_error([Prediction(p.event, d) for p, d in zip(a.predictions, a.days)], rs, T)
        base = l1_error(ps, rs, T)
        ratios.append((got, base))
    mean_got = sum(g for g, _ in ratios) / len(ratios)
    mean_base = sum(b for _, b in ratios) / len(ratios)
    assert mean_got <= 8 * (T.bit_length() - 1) * max(mean_base, 1)


def test_min_linf_error_exact_small():
    ps = [P("a", INSERT, 3), P("b", INSERT, 3), P("c", INSERT, 3)]
    # three requests at day 3 need slots {2,3,4} at best: max displacement 1
    assert min_linf_error(ps, 10) == 1
    assert min_linf_error([P("a", INSERT, 9)], 10) == 0


def test_greedy_linf_bound_on_random_instances():
    rng = random.Random(23)
    logT = 9
    T = 2**logT
    for trial in range(30):
        n = rng.randint(2, 60)
        ps = [P(f"e{i}", INSERT, rng.randint(1, T)) for i in range(n)]
        g = greedy_assign(ps, T)
        err_max = min_linf_error(ps, T)
        assert displacement(g) <= 4 * n * err_max * logT + T * err_max
