"""Incremental adapter: permanent-element structure, clone isolation, and
the predicted-deletion setting (an engine given no predictions, fed
insertions carrying predicted deletion days)."""

import random
from itertools import product

from oracles import alive_on, reference_permanents, span, window_computes
from predlift.decremental import DecrementalRun
from predlift.engine import Engine, WindowCtx, drain, run_predicted
from predlift.incremental import LiftedIncremental, lift_incremental
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
    eng.schedule.add("whole", INSERT, 1)
    assert WindowCtx(eng, 0).permanents() == ["whole"]


def test_same_day_lifetime_is_permanent_nowhere():
    eng = Engine(lift_incremental(counter_contract()), 8, 0)
    eng.schedule.add("blip", INSERT, 3)
    eng.schedule.add("blip", DELETE, 3)
    for nid in range(eng.tree.n_nodes()):
        assert "blip" not in WindowCtx(eng, nid).permanents()


def assert_partition(eng):
    """On every day t, the union of permanents over the chain of windows
    containing t is the set of elements active on t, none counted twice."""
    elements = eng.schedule.ins_day.keys() | eng.schedule.del_day.keys()
    for day in range(1, eng.T + 1):
        union, total = set(), 0
        for nid in chain_windows(eng.tree, day):
            perms = WindowCtx(eng, nid).permanents()
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
            events = sum(k == kind for d in range(lo, hi + 1) for _, k in eng.schedule.days[d])
            assert len(WindowCtx(eng, nid).permanents()) <= events
            checked += 1
    assert checked > 1000


LIFTED = ("counter", "connectivity", "decmax")
PERMANENT_MODELS = (ErrorModel("uniform", sigma=9), ErrorModel("inject", sigma=128))


def engines_day_by_day(problem, model, seed):
    """The engine of one run of ``problem`` at T = 64 under ``model``,
    yielded after ingest and after every day: counter and connectivity on
    an engine that ingests predictions, decmax on a decremental run's
    engine, which computes each window on its start day."""
    if problem == "decmax":
        predicted_set, items, _ = generate_insertion_predicted_instance(16, 64, model, seed)
        run = DecrementalRun(decremental_max_contract(), predicted_set, 64, seed)
        yield run.engine
        for day, ev, reins in items:
            run.process_day(day, ev, reins)
            yield run.engine
        return
    contract = counter_contract() if problem == "counter" else connectivity_contract()
    inst = generate_offline_instance(problem, 16, 64, model, seed)
    eng = Engine(lift_incremental(contract), inst.T, seed)
    drain(eng.ingest_predictions(inst.predictions))
    yield eng
    for day, ev in inst.stream:
        drain(eng.process_day(day, ev))
        yield eng


def test_permanents_equal_the_brute_force_reference():
    """After ingest and after every day, every live window's one-scan
    ``permanents`` equal ``oracles.reference_permanents`` on the current
    schedule."""
    checked = 0
    for problem, model, seed in product(LIFTED, PERMANENT_MODELS, range(3)):
        for eng in engines_day_by_day(problem, model, seed):
            for nid, mem in enumerate(eng.memory):
                if mem is not None:
                    want = reference_permanents(eng, nid)
                    assert WindowCtx(eng, nid).permanents() == want, (problem, seed, nid)
                    checked += 1
    assert checked > 100_000


def test_a_window_without_permanents_holds_its_parent_state():
    """Checked at every compute as it happens (a window a walk keeps may
    still hold an old parent's state): a non-root lifted window returns
    its parent's state object, for no units, exactly when it has no
    permanents, and any other window returns an object no window holds.
    At ingest and in every retrigger of the runs above, and on the start
    days of engines given no predictions."""
    seen = {"shared": 0, "new": 0, "walk": 0}

    def check(eng, nid, parent, result, walking):
        if not isinstance(eng.problem, LiftedIncremental):
            return
        state = result[0]
        if parent is not None and not reference_permanents(eng, nid):
            assert state is parent and result[1:] == (0, 0), nid
            seen["shared"] += 1
        else:
            assert all(state is not mem for mem in eng.memory), nid
            seen["new"] += 1
        seen["walk"] += walking

    with window_computes(check):
        for problem, model, seed in product(LIFTED, PERMANENT_MODELS, range(3)):
            for _ in engines_day_by_day(problem, model, seed):
                pass
        for contract, seed in product((counter_contract, connectivity_contract), range(3)):
            problem = "counter" if contract is counter_contract else "connectivity"
            items, _ = generate_deletion_predicted_stream(
                problem, 16, 64, ErrorModel("uniform", sigma=9), seed
            )
            jit_run(items, seed, contract())
    assert min(seen.values()) > 1000, seen


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
                # the late handler pushes every such prediction ahead, so
                # only the insertion itself stays on its day
                assert eng.schedule.days[day] == [ev.key]
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
