"""Engine: day loop, handlers, retrigger scope, work accounting,
determinism."""

import gc
import weakref

import pytest

from oracles import engine_state
from predlift.decremental import DecrementalRun
from predlift.engine import Engine, ScheduleBug, drain, run_offline, run_predicted
from predlift.incremental import lift_incremental
from predlift.model import DELETE, INSERT, Event, Prediction
from predlift.problems import (
    connectivity_contract,
    counter_contract,
    decremental_max_contract,
    msf_problem,
    oracle_daily_outputs,
)
from predlift.streamgen import ErrorModel, generate_offline_instance


def P(el, kind, day):
    return Prediction(Event(el, kind), day)


def exact_counter_instance(T, seed=0):
    inst = generate_offline_instance("counter", 8, T, ErrorModel("exact"), seed)
    return inst


def make_engine(T, predictions, seed=1):
    eng = Engine(lift_incremental(counter_contract()), T, seed)
    drain(eng.ingest_predictions(predictions))
    return eng


def test_zero_error_run_no_retriggers():
    inst = exact_counter_instance(64)
    eng = run_predicted(
        lift_incremental(counter_contract()), inst.T, inst.predictions, inst.stream, 3
    )
    assert eng.counters.retrigger_calls == 0
    assert eng.counters.retrigger_units == 0
    assert eng.counters.reschedules == 0
    assert eng.outputs == oracle_daily_outputs("counter", inst.stream)


def test_early_event_retrigger_range():
    # element predicted for day 9 arrives on day 3
    preds = [P("a", INSERT, 1), P("b", INSERT, 9)]
    eng = make_engine(10, preds)
    spans = []
    orig = eng.retrigger

    def spy(day_spans):
        spans.extend(day_spans)
        yield from orig(day_spans)

    eng.retrigger = spy
    drain(eng.process_day(1, Event("a", INSERT)))
    drain(eng.process_day(2, Event("x", INSERT)))  # never predicted
    drain(eng.process_day(3, Event("b", INSERT)))
    # earlier-than-prediction handler: days 3..9, one day further left
    # because the moved record is an insertion
    assert (3 - 1, 9) in spans
    assert (2, 11) in spans  # sentinel prediction spans past the horizon
    assert eng.outputs == [1, 2, 3]


def test_late_event_first_reschedule_distance_two():
    preds = [P("a", INSERT, 1), P("b", INSERT, 2)]
    eng = make_engine(12, preds)
    drain(eng.process_day(1, Event("a", INSERT)))
    drain(eng.process_day(2, Event("c", INSERT)))  # b misses its day
    rec = eng.schedule.by_key[("b", INSERT)]
    assert rec.day == 4  # first reschedule jumps 2^1
    assert rec.i == 1
    drain(eng.process_day(3, Event("d", INSERT)))
    drain(eng.process_day(4, Event("e", INSERT)))  # b misses again
    assert rec.day == 8  # then 2^2
    assert rec.i == 2


def test_ordering_constraint_drags_deletion():
    preds = [P("a", INSERT, 2), P("a", DELETE, 5)]
    eng = make_engine(16, preds)
    drain(eng.process_day(1, Event("z", INSERT)))
    drain(eng.process_day(2, Event("y", INSERT)))  # a's insert misses: to day 4
    drain(eng.process_day(3, Event("w", INSERT)))
    drain(eng.process_day(4, Event("v", INSERT)))  # a's insert misses: to day 8
    ins = eng.schedule.by_key[("a", INSERT)]
    dl = eng.schedule.by_key[("a", DELETE)]
    assert ins.day == 8
    assert dl.day == 8  # dragged along to keep insert-before-delete
    assert dl.i >= 1


def test_out_of_order_day_rejected():
    eng = make_engine(8, [])
    drain(eng.process_day(1, Event("a", INSERT)))
    with pytest.raises(ScheduleBug):
        drain(eng.process_day(3, Event("b", INSERT)))
    for day in range(2, 9):
        drain(eng.process_day(day, Event(f"x{day}", INSERT)))
    before = engine_state(eng)
    with pytest.raises(ScheduleBug, match="out of order"):
        drain(eng.process_day(9, Event("x9", INSERT)))  # past the horizon
    assert engine_state(eng) == before


def test_duplicate_lifetime_rejected():
    """A rejected day changes no state, so the right day can follow it."""
    eng = make_engine(8, [])
    drain(eng.process_day(1, Event("a", INSERT)))
    before = engine_state(eng)
    with pytest.raises(ScheduleBug, match="reused"):
        drain(eng.process_day(2, Event("a", INSERT)))
    assert engine_state(eng) == before
    drain(eng.process_day(2, Event("b", INSERT)))
    assert eng.outputs == [1, 2]

    # an online insertion of a live element, in an engine given no predictions
    eng = Engine(lift_incremental(counter_contract()), 8, 1)
    drain(eng.process_day(1, Event("a", INSERT), predicted_deletion_day=5))
    before = engine_state(eng)
    with pytest.raises(ScheduleBug, match="inserted twice"):
        drain(eng.process_day(2, Event("a", INSERT), predicted_deletion_day=5))
    assert engine_state(eng) == before
    drain(eng.process_day(2, Event("b", INSERT), predicted_deletion_day=6))
    assert eng.outputs == [1, 2]


def test_resumed_engine_starts_after_its_history():
    """A resumed engine holds its history as realized records and drops the
    predictions it realized.  With the rest exact, no retrigger fires, the
    predicted deletion of an element inserted in the past included, and
    its outputs start at its first live day."""
    history = [(1, Event("a", INSERT)), (2, Event("b", INSERT))]
    eng = Engine(lift_incremental(counter_contract()), 8, 1)
    eng.resume(history)
    assert eng.current_day == 2
    predictions = [P("a", INSERT, 1), P("c", INSERT, 3), P("a", DELETE, 4)]
    drain(eng.ingest_predictions(predictions))
    drain(eng.process_day(3, Event("c", INSERT)))
    drain(eng.process_day(4, Event("a", DELETE)))
    assert eng.outputs == [3, 2]
    assert eng.counters.retrigger_calls == 0


def test_resume_needs_a_fresh_engine_and_a_stream():
    history = [(1, Event("a", INSERT))]
    with pytest.raises(ScheduleBug, match="fresh"):
        make_engine(8, []).resume(history)  # ingested: its windows are live
    eng = Engine(lift_incremental(counter_contract()), 8, 1)
    drain(eng.process_day(1, Event("a", INSERT)))
    with pytest.raises(ScheduleBug, match="fresh"):
        eng.resume(history)
    for bad in (
        [(2, Event("a", INSERT))],
        [(1, Event("a", DELETE))],
        [(1, Event("a", INSERT)), (2, Event("a", INSERT))],
    ):
        with pytest.raises(ScheduleBug):
            Engine(lift_incremental(counter_contract()), 8, 1).resume(bad)


def test_resumed_engine_must_ingest_before_its_first_day():
    """A resumed engine that never ingested has no live root, so computing
    only the windows that start on its first day would build them on
    nothing: the day is a ``ScheduleBug``, raised before any state changes,
    and the engine then ingests and answers as the oracle does."""
    inst = generate_offline_instance("counter", 8, 32, ErrorModel("uniform", sigma=4), 2)
    eng = Engine(lift_incremental(counter_contract()), inst.T, 1)
    eng.resume(inst.stream[:10])
    before = engine_state(eng)
    with pytest.raises(ScheduleBug, match="ingest"):
        drain(eng.process_day(*inst.stream[10]))
    assert engine_state(eng) == before
    drain(eng.ingest_predictions(inst.predictions))
    for day, ev in inst.stream[10:]:
        drain(eng.process_day(day, ev))
    assert eng.outputs == oracle_daily_outputs("counter", inst.stream)[10:]


PAYLOAD_PROBLEMS = (
    ("connectivity", lambda: lift_incremental(connectivity_contract())),
    ("msf", msf_problem),
)


def test_short_payloads_are_schedule_bugs():
    """An insertion whose payload the problem cannot read is a
    ``ScheduleBug`` raised before any state changes, not the problem's own
    ``IndexError`` or ``ValueError``: at ingest for predictions stripped of
    their payloads, on its day for a realized insertion, and in a resumed
    history.  With the payloads on, the same engine runs to the oracle's
    outputs."""
    for name, problem in PAYLOAD_PROBLEMS:
        inst = generate_offline_instance(name, 8, 32, ErrorModel("uniform", sigma=4), 1)
        bare = [
            Prediction(Event(p.event.element, p.event.kind), p.predicted_day)
            for p in inst.predictions
        ]
        eng = Engine(problem(), inst.T, 2)
        before = engine_state(eng)
        with pytest.raises(ScheduleBug, match="payload"):
            drain(eng.ingest_predictions(bare))
        assert engine_state(eng) == before, name
        drain(eng.ingest_predictions(inst.predictions))
        for day, ev in inst.stream:
            drain(eng.process_day(day, ev))
        assert eng.outputs == oracle_daily_outputs(name, inst.stream), name

        day, ev = inst.stream[0]  # day 1 always inserts
        eng = Engine(problem(), inst.T, 2)
        with pytest.raises(ScheduleBug, match="payload"):
            drain(eng.process_day(day, Event(ev.element, INSERT)))
        assert eng.current_day == 0 and not eng.schedule.by_key, name
        with pytest.raises(ScheduleBug, match="payload"):
            Engine(problem(), inst.T, 2).resume([(day, Event(ev.element, INSERT))])


def test_realized_payload_must_equal_its_predictions():
    """The windows computed at ingest read a predicted insertion's payload,
    so a realized insertion carrying another is a ``ScheduleBug``, raised
    before any state changes; the right day is then taken as usual."""
    for name, problem in PAYLOAD_PROBLEMS:
        inst = generate_offline_instance(name, 8, 32, ErrorModel("uniform", sigma=4), 3)
        eng = Engine(problem(), inst.T, 4)
        drain(eng.ingest_predictions(inst.predictions))
        day, ev = inst.stream[0]
        before = engine_state(eng)
        with pytest.raises(ScheduleBug, match="prediction"):
            drain(eng.process_day(day, Event(ev.element, INSERT, (90, 91, 7))))
        assert engine_state(eng) == before, name
        for day, ev in inst.stream:
            drain(eng.process_day(day, ev))
        assert eng.outputs == oracle_daily_outputs(name, inst.stream), name


def test_payload_fields_the_problem_does_not_read_may_differ():
    """Only the fields a problem reads must match: over an MSF stream, the
    counter runs on predictions with no payloads and connectivity on
    predictions of ``(u, v)``, each to its oracle's outputs."""
    inst = generate_offline_instance("msf", 8, 32, ErrorModel("uniform", sigma=4), 5)
    for name, problem, fields in (
        ("counter", lambda: lift_incremental(counter_contract()), 0),
        ("connectivity", lambda: lift_incremental(connectivity_contract()), 2),
    ):
        trimmed = [
            Prediction(Event(ev.element, ev.kind, ev.payload[:fields]), p.predicted_day)
            for p in inst.predictions
            for ev in (p.event,)
        ]
        eng = run_predicted(problem(), inst.T, trimmed, inst.stream, 6)
        assert eng.outputs == oracle_daily_outputs(name, inst.stream), name


def test_batch_bound_holds():
    for seed in range(10):
        inst = generate_offline_instance(
            "counter", 8, 128, ErrorModel("uniform", sigma=32), seed
        )
        eng = run_predicted(
            lift_incremental(counter_contract()), inst.T, inst.predictions, inst.stream, seed
        )
        logT = (inst.T - 1).bit_length()
        assert eng.counters.batch_max <= 2 * logT + 4


def test_reschedule_budget():
    for seed in range(6):
        inst = generate_offline_instance("counter", 8, 128, ErrorModel("heavy"), seed)
        eng = run_predicted(
            lift_incremental(counter_contract()), inst.T, inst.predictions, inst.stream, seed
        )
        logT = (inst.T - 1).bit_length()
        assert eng.counters.reschedules <= 2 * inst.T * logT


def test_deterministic_given_seed():
    inst = generate_offline_instance("counter", 8, 96, ErrorModel("uniform", sigma=9), 5)

    def run():
        eng = run_predicted(
            lift_incremental(counter_contract()), inst.T, inst.predictions, inst.stream, 17
        )
        return eng.outputs, eng.counters.as_dict()

    assert run() == run()


def test_dropped_engine_is_freed_without_the_cycle_collector():
    # boost_run drops each old epoch's engines mid-stream; an engine in a
    # reference cycle would be freed later, by a collection inside some day
    inst = generate_offline_instance("counter", 8, 32, ErrorModel("uniform", sigma=9), 5)
    eng = run_predicted(
        lift_incremental(counter_contract()), inst.T, inst.predictions, inst.stream, 17
    )
    assert any(ctx is not None for ctx in eng.contexts)
    ref = weakref.ref(eng)
    gc.disable()
    try:
        del eng
        assert ref() is None
    finally:
        gc.enable()


def test_dropped_decremental_run_is_freed_without_the_cycle_collector():
    # an out-of-set insertion grows the ground set the engine's contract
    # reinitializes from; the contract must hold that set, not the run
    run = DecrementalRun(decremental_max_contract(), [("a", 1, (5,))], 4, 3)
    run.process_day(1, Event("a", INSERT, (5,)))
    run.process_day(2, Event("b", INSERT, (9,)))
    assert run.out_of_set_inserts == 1 and run.outputs == [5, 9]
    refs = weakref.ref(run), weakref.ref(run.engine)
    gc.disable()
    try:
        del run
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_offline_mode_matches_predicted_outputs():
    inst = generate_offline_instance("counter", 8, 96, ErrorModel("uniform", sigma=9), 6)
    pred = run_predicted(
        lift_incremental(counter_contract()), inst.T, inst.predictions, inst.stream, 3
    )
    off = run_offline(lift_incremental(counter_contract()), inst.T, inst.stream, 3)
    assert pred.outputs == off.outputs
    assert off.counters.retrigger_calls == 0


def test_full_retrigger_equals_preprocessing_cost():
    inst = exact_counter_instance(64, seed=2)
    eng = make_engine(inst.T, inst.predictions, seed=9)
    before = eng.counters.window_compute_units
    drain(eng.retrigger([(1, inst.T)]))
    # recomputing everything below the root touches every window but the root
    assert eng.counters.retrigger_units >= before * 0.5


def test_counter_dump_format():
    eng = make_engine(8, [])
    block = eng.counters.format_block()
    assert "retrigger_calls=0" in block
    assert "total_units=" in block


def test_online_insertion_into_ingested_engine_rejected():
    """An ingested engine has every leaf live, so an insertion scheduled
    without a retrigger would be missing from today's answer."""
    eng = make_engine(8, [P("a", INSERT, 1)])
    drain(eng.process_day(1, Event("a", INSERT)))
    with pytest.raises(ScheduleBug, match="ingested"):
        drain(eng.process_day(2, Event("b", INSERT), predicted_deletion_day=5))
    assert eng.current_day == 1 and ("b", INSERT) not in eng.schedule.by_key
    assert eng.outputs == [1]


def test_online_insertion_needs_lifted_incremental_problem():
    """An MSF window holds every edge with an event in its span; an edge
    inserted without a retrigger would be missing from the windows above
    today's leaf."""
    eng = Engine(msf_problem(), 8, 1)
    with pytest.raises(ScheduleBug, match="lifted incremental"):
        drain(eng.process_day(1, Event("a", INSERT, (0, 1, 5)), predicted_deletion_day=3))
    assert eng.current_day == 0 and not eng.schedule.by_key
