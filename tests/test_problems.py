"""Problem contracts: worked examples, worst-case cost bounds, clone
isolation, MSF sparsifier soundness."""

import random
from collections import Counter

import pytest

from oracles import alive_on, kruskal, span
from predlift.engine import Engine, WindowCtx, drain, run_offline, run_predicted
from predlift.incremental import lift_incremental
from predlift.model import DELETE, END_OF_HORIZON, INSERT, Event
from predlift.problems import (
    MsfGraph,
    connectivity_contract,
    counter_contract,
    decremental_max_contract,
    msf_problem,
    oracle_daily_outputs,
)
from predlift.streamgen import ErrorModel, generate_offline_instance


def test_counter_three_inserts():
    c = counter_contract()
    state, _ = c.init()
    outs = []
    for i in range(3):
        c.insert(state, f"e{i}", ())
        outs.append(c.output(state))
    assert outs == [1, 2, 3]


def test_counter_insert_cost_is_one():
    c = counter_contract()
    state, _ = c.init()
    assert c.insert(state, "e", ()) == 1


def test_connectivity_queries():
    c = connectivity_contract()
    state, _ = c.init()

    def component(v):
        return next((comp for comp in c.output(state) if v in comp), None)

    c.insert(state, "e1", (1, 2))
    assert component(1) == component(2) == (1, 2)
    c.insert(state, "e2", (3, 4))
    assert component(1) != component(3)
    assert component(99) is None  # a vertex no edge touched is in no component


def test_connectivity_no_insertions_all_disconnected():
    c = connectivity_contract()
    state, _ = c.init()
    assert c.output(state) == ()


def test_connectivity_insert_worst_case_units():
    c = connectivity_contract()
    state, _ = c.init()
    rng = random.Random(3)
    n = 256
    worst = 0
    for i in range(1200):
        u, v = rng.randrange(n), rng.randrange(n)
        worst = max(worst, c.insert(state, f"e{i}", (u, v)))
    assert worst <= 2 * (n.bit_length() - 1) + 3


def test_decremental_max_examples():
    c = decremental_max_contract()
    state, _ = c.initialize([("a", 5), ("b", 9), ("c", 2)], 10)
    assert c.output(state) == 9
    c.delete(state, "b")
    assert c.output(state) == 5
    c.delete(state, "a")
    c.delete(state, "c")
    assert c.output(state) is None
    with pytest.raises(ValueError):
        c.delete(state, "zzz")


def test_all_contracts_clone_isolation():
    cc = counter_contract()
    s, _ = cc.init()
    cc.insert(s, "x", ())
    s2, _ = cc.clone(s)
    cc.insert(s2, "y", ())
    assert cc.output(s) == 1 and cc.output(s2) == 2

    dc = decremental_max_contract()
    s, _ = dc.initialize([("a", 1), ("b", 2)], 4)
    s2, _ = dc.clone(s)
    dc.delete(s2, "b")
    assert dc.output(s) == 2 and dc.output(s2) == 1


class _StubCtx:
    """Minimal WindowCtx stand-in for direct MSF window tests; ``lifetimes``
    maps an element to (insertion day or None, deletion day)."""

    def __init__(self, span, lifetimes, payloads):
        self.start, self.end = span
        self._ins = {el: ins for el, (ins, _) in lifetimes.items() if ins is not None}
        self._del = {el: dl for el, (_, dl) in lifetimes.items()}
        self._payloads = payloads

    def lifetime_maps(self):
        return self._ins, self._del, END_OF_HORIZON

    def payload(self, el):
        return self._payloads.get(el, ())


def test_msf_triangle_all_permanent_contracts_light_edges():
    # a-b(1), b-c(2), a-c(3) alive across the window: both light edges are in
    # every spanning forest (contracted), the heavy one in none (dropped)
    prob = msf_problem()
    parent = MsfGraph(
        (
            (1, "ab", 0, 1),
            (2, "bc", 1, 2),
            (3, "ac", 0, 2),
        ),
        0,
        (),
    )
    ctx = _StubCtx((4, 6), {"ab": (1, 10), "bc": (1, 10), "ac": (1, 10)}, {})
    mem, _, _ = prob.compute_window(ctx, parent)
    assert mem.edges == ()
    assert mem.acc_weight == 3
    assert mem.acc_ids == ("ab", "bc")


def test_msf_single_volatile_edge_passes_through():
    prob = msf_problem()
    parent = MsfGraph(((7, "uv", 0, 1),), 0, ())
    ctx = _StubCtx((3, 5), {"uv": (4, 9)}, {})
    mem, _, _ = prob.compute_window(ctx, parent)
    assert mem.edges == ((7, "uv", 0, 1),)
    assert mem.acc_weight == 0


def test_msf_window_without_permanents_passes_its_edges_through():
    # every edge alive here has an event inside [3, 5]; "gone" died before it
    prob = msf_problem()
    edges = ((1, "x", 0, 1), (2, "gone", 1, 2), (4, "y", 1, 2), (6, "z", 0, 2))
    parent = MsfGraph(edges, 9, ("p", "q"))
    lifetimes = {"x": (3, 9), "gone": (1, 2), "y": (1, 4), "z": (5, 9)}
    mem, compute, clone = prob.compute_window(_StubCtx((3, 5), lifetimes, {}), parent)
    assert mem.edges == ((1, "x", 0, 1), (4, "y", 1, 2), (6, "z", 0, 2))
    assert (mem.acc_weight, mem.acc_ids) == (9, ("p", "q"))
    assert (compute, clone) == (3 * (1 + 3), 3)


def test_msf_window_with_nothing_contracted_drops_the_heavy_permanent():
    # volatiles a-b and b-c already join a, b, c, so no permanent is forced;
    # the permanents alone close the cycle a-b-c, so the heaviest is dropped
    prob = msf_problem()
    parent = MsfGraph(
        ((1, "ab", 0, 1), (2, "bc", 1, 2), (3, "ac", 0, 2), (4, "ab2", 0, 1), (5, "bc2", 1, 2)),
        7,
        ("k",),
    )
    lifetimes = {"ab": (1, 10), "bc": (1, 10), "ac": (1, 10), "ab2": (5, 10), "bc2": (1, 5)}
    mem, _, clone = prob.compute_window(_StubCtx((4, 6), lifetimes, {}), parent)
    assert mem.edges == ((1, "ab", 0, 1), (2, "bc", 1, 2), (4, "ab2", 0, 1), (5, "bc2", 1, 2))
    assert (mem.acc_weight, mem.acc_ids) == (7, ("k",))
    assert clone == 4


def test_msf_window_contracts_and_relabels():
    # a-b is permanent and joins a to the volatile component {b, c, d}:
    # contracted, so b is relabelled a; permanent a-c closes a cycle only
    # through volatiles, so it is neither forced nor dropped
    prob = msf_problem()
    parent = MsfGraph(
        ((1, "ab", 0, 1), (2, "cd", 2, 3), (3, "bc", 1, 2), (4, "ac", 0, 2)),
        5,
        ("z",),
    )
    lifetimes = {"ab": (1, 10), "cd": (5, 10), "bc": (1, 6), "ac": (1, 10)}
    mem, _, clone = prob.compute_window(_StubCtx((4, 6), lifetimes, {}), parent)
    assert mem.edges == ((2, "cd", 2, 3), (3, "bc", 0, 2), (4, "ac", 0, 2))
    assert (mem.acc_weight, mem.acc_ids) == (6, ("ab", "z"))
    assert clone == 3


def test_msf_self_loops_reach_no_window():
    """A stream file may hold an edge from a vertex to itself.  It is in no
    spanning forest: the outputs are the oracles', and no window memory
    holds it, not even a window with no permanents, whose edges pass
    through unrelabelled."""
    stream = [
        (1, Event("a", INSERT, (0, 1, 5))),
        (2, Event("loop", INSERT, (2, 2, 0))),
        (3, Event("b", INSERT, (1, 2, 3))),
        (4, Event("c", INSERT, (0, 2, 1))),
        (5, Event("a", DELETE)),
        (6, Event("loop2", INSERT, (1, 1, 2))),
        (7, Event("loop", DELETE)),
        (8, Event("c", DELETE)),
    ]
    for seed in range(4):
        eng = run_offline(msf_problem(), 8, stream, seed)
        assert eng.outputs == oracle_daily_outputs("msf", stream)
        assert eng.outputs == msf_kruskal_outputs(stream)
        held = {edge[1] for mem in eng.memory if mem is not None for edge in mem.edges}
        assert held and not held & {"loop", "loop2"}


def msf_kruskal_outputs(stream):
    """Every day's (weight, sorted ids) from ``oracles.kruskal`` over the
    edges alive that day."""
    alive, outs = {}, []
    for _, ev in stream:
        if ev.kind == INSERT:
            alive[ev.element] = ev.payload
        else:
            del alive[ev.element]
        outs.append(kruskal([(p[2], el, p[0], p[1]) for el, p in alive.items()]))
    return outs


def test_msf_outputs_equal_kruskal_oracle():
    for seed in range(12):
        inst = generate_offline_instance(
            "msf", 16, 128, ErrorModel("uniform", sigma=9), seed
        )
        eng = run_predicted(msf_problem(), inst.T, inst.predictions, inst.stream, seed)
        assert eng.outputs == oracle_daily_outputs("msf", inst.stream)
        assert eng.outputs == msf_kruskal_outputs(inst.stream)


def test_msf_window_sparsifier_soundness():
    """For every window and every day in its span, checked on that day while
    the window is still maintained: spanning-forest weight of the window
    graph plus its contracted weight equals that of the parent graph plus
    the parent's, over the edges alive that day."""
    inst = generate_offline_instance("msf", 10, 32, ErrorModel("uniform", sigma=5), 3)
    eng = Engine(msf_problem(), inst.T, 8)
    drain(eng.ingest_predictions(inst.predictions))

    def msf_weight_at(mem, day):
        alive = [edge for edge in mem.edges if alive_on(eng.schedule, edge[1], day)]
        w, _ = kruskal(alive)
        return w + mem.acc_weight

    tree = eng.tree
    checked = Counter()
    for day, ev in inst.stream:
        drain(eng.process_day(day, ev))
        nid = tree.leaf_of[day]
        while nid != 0:
            parent = tree.parent[nid]
            assert msf_weight_at(eng.memory[nid], day) == msf_weight_at(
                eng.memory[parent], day
            ), (span(tree, nid), day)
            checked[nid, day] += 1
            nid = parent
    # every (window, day in its span) pair below the root, each exactly once
    assert set(checked.values()) == {1}
    assert len(checked) == sum(tree.end[n] - tree.start[n] + 1 for n in range(1, tree.n_nodes()))


def test_exhaustive_counter_small_horizon():
    """All orderings of 3 elements over T = 6 with every prediction
    perturbation in [-3, 3]: outputs exact on every branch."""
    import itertools

    T = 6
    base = [
        (1, Event("a", INSERT)),
        (2, Event("b", INSERT)),
        (3, Event("a", DELETE)),
        (4, Event("c", INSERT)),
        (5, Event("b", DELETE)),
        (6, Event("c", DELETE)),
    ]
    want = oracle_daily_outputs("counter", base)
    from predlift.model import Prediction

    for deltas in itertools.product((-3, -1, 0, 2, 3), repeat=3):
        preds = []
        for (day, ev), shift in zip(base, itertools.cycle(deltas)):
            preds.append(Prediction(Event(ev.element, ev.kind), min(max(day + shift, 1), T)))
        eng = run_predicted(lift_incremental(counter_contract()), T, preds, base, 1)
        assert eng.outputs == want, deltas
