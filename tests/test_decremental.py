"""Decremental adapter: anti-element view duality, reinitialization on
out-of-set insertions, output exactness."""

import pytest

from oracles import alive_on, engine_state
from predlift.decremental import DecrementalRun
from predlift.engine import ScheduleBug
from predlift.model import DELETE, INSERT, Event
from predlift.problems import decremental_max_contract, oracle_daily_outputs
from predlift.streamgen import ErrorModel, generate_insertion_predicted_instance


def run_instance(pset, events, seed=0):
    run = DecrementalRun(decremental_max_contract(), pset, len(events), seed)
    for day, ev, reins in events:
        run.process_day(day, ev, reins)
    return run


def test_zero_error_gradual_deletions():
    pset = [("a", 1, (5,)), ("b", 2, (9,)), ("c", 3, (2,))]
    events = [
        (1, Event("a", INSERT, (5,)), None),
        (2, Event("b", INSERT, (9,)), None),
        (3, Event("c", INSERT, (2,)), None),
        (4, Event("b", DELETE), None),
        (5, Event("a", DELETE), None),
        (6, Event("c", DELETE), None),
    ]
    run = run_instance(pset, events)
    assert run.outputs == [5, 9, 9, 5, 2, None]
    assert run.counters.retrigger_calls == 0  # perfect insertion predictions
    assert run.out_of_set_inserts == 0


def run_state(run):
    """The run's own state beside its engine's."""
    return dict(run.ground), dict(run.generation), run.out_of_set_inserts, engine_state(run.engine)


def test_short_payload_rejected_before_any_state_changes():
    """The max reads an element's value from its payload.  An announced
    element without one is rejected when the run is built; an insertion
    from outside the set without one is rejected before the set grows or
    the engine moves to its day, so the right day can still be fed."""
    with pytest.raises(ScheduleBug, match="payload"):
        DecrementalRun(decremental_max_contract(), [("a", 1, (5,)), ("b", 2, ())], 4, 0)
    run = DecrementalRun(decremental_max_contract(), [("a", 1, (5,))], 4, 0)
    run.process_day(1, Event("a", INSERT, (5,)))
    before = run_state(run)
    with pytest.raises(ScheduleBug, match="payload"):
        run.process_day(2, Event("z", INSERT))
    assert run_state(run) == before
    stream = [
        (1, Event("a", INSERT, (5,))),
        (2, Event("z", INSERT, (9,))),
        (3, Event("a", DELETE)),
    ]
    for day, ev in stream[1:]:
        run.process_day(day, ev)
    assert run.outputs == oracle_daily_outputs("decmax", stream) == [5, 9, 9]


def test_out_of_set_insertion_triggers_one_reinit_and_full_retrigger():
    pset = [("a", 1, (5,))]
    events = [
        (1, Event("a", INSERT, (5,)), None),
        (2, Event("zz", INSERT, (50,)), None),  # never announced
        (3, Event("zz", DELETE), None),
        (4, Event("a", DELETE), None),
    ]
    run = DecrementalRun(decremental_max_contract(), pset, 6, 0)
    run.process_day(*events[0])
    # a day out of order changes nothing: zz is not admitted, a keeps its
    # anti-instance, and the right day can follow
    before = run_state(run)
    for wrong in (Event("zz", INSERT, (50,)), Event("a", DELETE)):
        with pytest.raises(ScheduleBug, match="out of order"):
            run.process_day(3, wrong)
        assert run_state(run) == before
    for day, ev, reins in events[1:]:
        run.process_day(day, ev, reins)
    assert run.outputs == [5, 50, 5, None]
    assert run.out_of_set_inserts == 1
    assert run.counters.retrigger_calls >= 1


def anti_alive(run):
    """Elements whose current anti-instance is alive on the processed day."""
    t = run.engine.current_day
    sched = run.engine.schedule
    return {el for el in run.ground if alive_on(sched, f"{el}~{run.generation[el]}", t)}


def test_view_duality_every_day():
    """Active elements = announced-set-so-far minus elements whose current
    anti-instance is alive."""
    pset, events, _ = generate_insertion_predicted_instance(
        10, 40, ErrorModel("uniform", sigma=6), 2
    )
    run = DecrementalRun(decremental_max_contract(), pset, len(events), 3)
    active = set()
    for day, ev, reins in events:
        if ev.kind == INSERT:
            active.add(ev.element)
        else:
            active.discard(ev.element)
        run.process_day(day, ev, reins)
        assert set(run.ground) - anti_alive(run) == active


def test_outputs_exact_with_reinsertions_and_noise():
    for seed in range(10):
        pset, events, _ = generate_insertion_predicted_instance(
            12, 48, ErrorModel("uniform", sigma=8), seed
        )
        run = run_instance(pset, events, seed=seed + 1)
        want = oracle_daily_outputs("decmax", [(d, e) for d, e, _ in events])
        assert run.outputs == want


def test_no_reinsertion_prediction_means_never():
    pset = [("a", 1, (3,)), ("b", 2, (7,))]
    events = [
        (1, Event("a", INSERT, (3,)), None),
        (2, Event("b", INSERT, (7,)), None),
        (3, Event("b", DELETE), None),  # no reinsertion predicted
        (4, Event("b", INSERT, (7,)), None),  # comes back anyway
    ]
    run = run_instance(pset, events)
    assert run.outputs == [3, 7, 3, 7]
    assert run.out_of_set_inserts == 0  # b is in the announced set; no reinit
