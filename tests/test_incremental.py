"""Incremental adapter: permanent-element structure, clone isolation, and
the predicted-deletion setting (an engine given no predictions, fed
insertions carrying predicted deletion days)."""

import random

from oracles import alive_on, span
from predlift.decremental import DecrementalRun
from predlift.engine import Engine, WindowCtx, drain, run_predicted
from predlift.incremental import lift_incremental, window_permanents
from predlift.model import DELETE, END_OF_HORIZON, INSERT, Event
from predlift.problems import (
    connectivity_contract,
    counter_contract,
    decremental_max_contract,
    oracle_daily_outputs,
)
from predlift.streamgen import (
    ErrorModel,
    generate_deletion_predicted_stream,
    generate_insertion_predicted_instance,
    generate_offline_instance,
)


def build_engine(inst, seed=0, problem=None):
    problem = problem or lift_incremental(counter_contract())
    return run_predicted(problem, inst.T, inst.predictions, inst.stream, seed)


def chain_windows(tree, day):
    nid = tree.leaf_of[day]
    out = []
    while nid != -1:
        out.append(nid)
        nid = tree.parent[nid]
    return out


def test_element_spanning_horizon_is_root_permanent():
    inst = generate_offline_instance("counter", 4, 16, ErrorModel("exact"), 1)
    eng = Engine(lift_incremental(counter_contract()), 16, 0)
    eng.schedule.add("whole", INSERT, 1, realized=True)
    assert window_permanents(WindowCtx(eng, 0)) == ["whole"]


def test_same_day_lifetime_is_permanent_nowhere():
    eng = Engine(lift_incremental(counter_contract()), 8, 0)
    eng.schedule.add("blip", INSERT, 3, realized=True)
    eng.schedule.add("blip", DELETE, 3, realized=True)
    for nid in range(eng.tree.n_nodes()):
        assert "blip" not in window_permanents(WindowCtx(eng, nid))


def assert_partition(eng):
    """On every day t, the union of permanents over the chain of windows
    containing t is the set of elements active on t, none counted twice."""
    elements = {el for el, _ in eng.schedule.by_key}
    for day in range(1, eng.T + 1):
        union, total = set(), 0
        for nid in chain_windows(eng.tree, day):
            perms = window_permanents(WindowCtx(eng, nid))
            union.update(perms)
            total += len(perms)
        assert union == {el for el in elements if alive_on(eng.schedule, el, day)}
        assert total == len(union)


def test_partition_property_every_day():
    """Checked on engines that ingested predictions, after their last day;
    and after each day on an engine given none, fed predicted deletions,
    and on a decremental run's engine, whose day-0 preloads (some admitted
    out of the predicted set mid-run) are root candidates."""
    for seed in range(15):
        inst = generate_offline_instance("counter", 8, 48, ErrorModel("uniform", sigma=7), seed)
        assert_partition(build_engine(inst, seed=seed + 50))
    for seed in range(3):
        items, _ = generate_deletion_predicted_stream(
            "counter", 8, 32, ErrorModel("uniform", sigma=7), seed
        )
        eng = Engine(lift_incremental(counter_contract()), len(items), seed)
        for day, ev, pred in items:
            drain(eng.process_day(day, ev, predicted_deletion_day=pred))
            assert_partition(eng)
    admitted = 0
    for seed in range(4):
        # 16 predicted insertions in 32 days: some predicted deletions of
        # day-0 anti-elements land past the horizon, making them root
        # permanents, and the other days admit elements out of the set
        predicted_set, items, _ = generate_insertion_predicted_instance(
            16, 32, ErrorModel("uniform", sigma=4), seed
        )
        run = DecrementalRun(decremental_max_contract(), predicted_set, len(items), seed)
        for day, ev, reins in items:
            run.process_day(day, ev, reins)
            assert_partition(run.engine)
        admitted += run.out_of_set_inserts
    assert admitted > 0


def test_permanents_bounded_by_sibling_event_count():
    """A left child's permanents each die inside its sibling, and any other
    window's are each born inside (parent start, own start], so the count is
    bounded by the DELETE records of the sibling or by the INSERT records
    of those days."""
    checked = 0
    for seed in range(20):
        inst = generate_offline_instance("counter", 8, 64, ErrorModel("uniform", sigma=9), seed)
        eng = build_engine(inst, seed=seed)
        tree = eng.tree
        for nid in range(tree.n_nodes()):
            parent = tree.parent[nid]
            if parent == -1:
                continue
            if tree.left[parent] == nid:
                kind, (lo, hi) = DELETE, span(tree, tree.right[parent])
            else:
                kind, lo, hi = INSERT, tree.start[parent] + 1, tree.start[nid]
            events = sum(
                rec.kind == kind for d in range(lo, hi + 1) for rec in eng.schedule.days[d]
            )
            assert len(window_permanents(WindowCtx(eng, nid))) <= events
            checked += 1
    assert checked > 1000


def test_clone_isolation():
    contract = connectivity_contract()
    state, _ = contract.init()
    contract.insert(state, "e1", (1, 2))
    copy, _ = contract.clone(state)
    contract.insert(copy, "e2", (2, 3))
    assert contract.output(state) == ((1, 2),)
    assert contract.output(copy) == ((1, 2, 3),)


def jit_run(items, seed=0, contract=None):
    contract = contract or counter_contract()
    eng = Engine(lift_incremental(contract), len(items), seed)
    for day, ev, pred in items:
        drain(eng.process_day(day, ev, predicted_deletion_day=pred))
    return eng


def test_jit_exact_predictions_no_retriggers():
    items, err = generate_deletion_predicted_stream(
        "counter", 8, 64, ErrorModel("exact"), 4
    )
    assert err == 0
    eng = jit_run(items)
    assert eng.counters.retrigger_calls == 0
    assert eng.outputs == oracle_daily_outputs("counter", [(d, e) for d, e, _ in items])


def test_jit_early_deletion_single_retrigger():
    items = [
        (1, Event("a", INSERT), 4),
        (2, Event("b", INSERT), 5),
        (3, Event("a", DELETE), None),  # predicted day 4, arrives day 3
        (4, Event("c", INSERT), 5),
    ]
    eng = jit_run(items)
    assert eng.counters.retrigger_calls == 1
    assert eng.outputs == [1, 2, 1, 2]


def test_jit_insertions_never_retrigger():
    for seed in range(8):
        items, _ = generate_deletion_predicted_stream(
            "counter", 8, 48, ErrorModel("uniform", sigma=10), seed
        )
        eng = Engine(lift_incremental(counter_contract()), len(items), seed)
        for day, ev, pred in items:
            before = eng.counters.retrigger_calls
            drain(eng.process_day(day, ev, predicted_deletion_day=pred))
            if ev.kind == INSERT:
                # an insertion may strand a prediction already scheduled for
                # this day (late handler) but never fires the early handler;
                # with no prediction on this day there is no retrigger
                same_day = [
                    r for r in eng.schedule.days[day] if not r.realized and r.day == day
                ]
                assert not same_day
        want = oracle_daily_outputs("counter", [(d, e) for d, e, _ in items])
        assert eng.outputs == want


def test_jit_work_scales_with_deletion_error():
    """Coarse monotonicity: heavier deletion-prediction error means more
    retrigger work."""
    totals = []
    for sigma in (0, 4, 16):
        units = 0
        for seed in range(5):
            items, _ = generate_deletion_predicted_stream(
                "counter", 8, 96, ErrorModel("uniform", sigma=sigma), seed
            )
            eng = jit_run(items, seed=seed)
            units += eng.counters.retrigger_units
        totals.append(units)
    assert totals[0] == 0
    assert totals[0] < totals[1] < totals[2]
