"""Generated differential tests: in every mode, under every error model, the
daily outputs equal the from-scratch oracle's, the counters stay within
the bounds the paper proves, and no window is computed after its last day,
when nothing can read it."""

from math import log2

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ended_window_computes
from predlift.boosting import Backstop, BoostConfig, RecomputeBackstop, SteppableEngine, boost_run
from predlift.decremental import DecrementalRun
from predlift.engine import Engine, drain, run_offline, run_predicted
from predlift.incremental import lift_incremental
from predlift.problems import (
    connectivity_contract,
    counter_contract,
    decremental_max_contract,
    msf_problem,
    oracle_answer,
    oracle_daily_outputs,
)
from predlift.streamgen import (
    MODEL_KINDS,
    ErrorModel,
    generate_deletion_predicted_stream,
    generate_insertion_predicted_instance,
    generate_offline_instance,
    make_bundles,
)

PROBLEMS = ("counter", "connectivity", "msf")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def problem_impl(name):
    if name == "msf":
        return msf_problem()
    return lift_incremental(counter_contract() if name == "counter" else connectivity_contract())


@st.composite
def error_models(draw, T, kinds=MODEL_KINDS):
    """Any error model, its parameters drawn within what the generator can
    place on a horizon of T days (the adversarial models need even T >= 16)."""
    kind = draw(st.sampled_from(kinds))
    return ErrorModel(
        kind,
        sigma=draw(st.integers(0, T)),
        rho=draw(st.floats(0.0, 1.0)) if kind == "drop" else 0.0,
    )


horizons = st.integers(8, 32).map(lambda half: 2 * half)
seeds = st.integers(0, 2**16)


def run_mode(mode, problem, inst, seed):
    """(daily outputs, the engine's counters) of one instance in ``mode``."""
    impl = problem_impl(problem)
    if mode == "offline":
        eng = run_offline(impl, inst.T, inst.stream, seed)
        return eng.outputs, eng.counters
    if mode == "predicted":
        eng = run_predicted(
            impl, inst.T, inst.predictions, inst.stream, seed,
            payload_registry=inst.payload_registry,
        )
        return eng.outputs, eng.counters
    eng = Engine(impl, inst.T, seed, payload_registry=inst.payload_registry)
    backstop = RecomputeBackstop(
        lambda active: oracle_answer(problem, active, inst.payload_registry)
    )
    meta = Backstop([SteppableEngine(eng, inst.predictions), SteppableEngine(backstop)])
    for day, ev in inst.stream:
        meta.feed(day, ev)
    return meta.outputs, eng.counters


@settings(SETTINGS, max_examples=150)
@given(
    problem=st.sampled_from(PROBLEMS),
    mode=st.sampled_from(("predicted", "offline", "backstopped")),
    data=st.data(),
    T=horizons,
    seed=seeds,
)
def test_offline_problem_modes_match_oracle(problem, mode, data, T, seed):
    model = data.draw(error_models(T))
    inst = generate_offline_instance(problem, 8, T, model, seed)
    with ended_window_computes() as ended:
        outputs, counters = run_mode(mode, problem, inst, seed)
    assert outputs == oracle_daily_outputs(problem, inst.stream)
    assert not ended
    if inst.l1 == 0 or mode == "offline":
        assert counters.retrigger_calls == 0
    assert counters.batch_max <= 2 * log2(T) + 4


@settings(SETTINGS, max_examples=40)
@given(
    problem=st.sampled_from(PROBLEMS),
    data=st.data(),
    T=horizons,
    cap=st.integers(1, 3),
    seed=seeds,
)
def test_boosted_run_matches_oracle(problem, data, T, cap, seed):
    """Guess-and-double over bundles of the predictions, the horizon
    unknown to the run."""
    model = data.draw(error_models(T))
    inst = generate_offline_instance(problem, 8, T, model, seed)
    bundles = {b.index: list(b.predictions) for b in make_bundles(inst.predictions, T)}

    def factory(T_hat, preds, engine_seed):
        engine = Engine(problem_impl(problem), T_hat, engine_seed, inst.payload_registry)
        return SteppableEngine(engine, preds)

    with ended_window_computes() as ended:
        outputs, _ = boost_run(
            factory, bundles, inst.stream, 8, BoostConfig(instances_cap=cap, seed=seed)
        )
    assert outputs == oracle_daily_outputs(problem, inst.stream)
    assert not ended


@SETTINGS
@given(
    problem=st.sampled_from(("counter", "connectivity")), data=st.data(), T=horizons, seed=seeds
)
def test_deletion_predicted_engine_matches_oracle(problem, data, T, seed):
    """An engine given no predictions, fed insertions that carry their
    predicted deletion day.  The setting lifts incremental algorithms only:
    an MSF window holds every edge with an event in its span, which an
    insertion scheduled without a retrigger would leave out."""
    model = data.draw(error_models(T))
    items, _, err = generate_deletion_predicted_stream(problem, 8, T, model, seed)
    eng = Engine(problem_impl(problem), T, seed)
    with ended_window_computes() as ended:
        for day, ev, pred in items:
            drain(eng.process_day(day, ev, predicted_deletion_day=pred))
    assert eng.outputs == oracle_daily_outputs(problem, [(d, ev) for d, ev, _ in items])
    assert not ended
    if err == 0:
        assert eng.counters.retrigger_calls == 0


@SETTINGS
@given(data=st.data(), T=horizons, seed=seeds)
def test_decremental_run_matches_oracle(data, T, seed):
    model = data.draw(error_models(T, kinds=("exact", "uniform", "drop")))
    predicted_set, items, _ = generate_insertion_predicted_instance(12, T, model, seed)
    run = DecrementalRun(decremental_max_contract(), predicted_set, T, seed)
    with ended_window_computes() as ended:
        for day, ev, reins in items:
            run.process_day(day, ev, reins)
    assert run.outputs == oracle_daily_outputs("decmax", [(d, ev) for d, ev, _ in items])
    assert not ended


@settings(max_examples=20, deadline=None, derandomize=True)
@given(problem=st.sampled_from(PROBLEMS), T=st.integers(1, 64), seed=seeds)
def test_engine_without_predictions_runs_lazily(problem, T, seed):
    """No ingest: every window is computed on its start day and each event
    counts as unpredicted."""
    inst = generate_offline_instance(problem, 8, T, ErrorModel("exact"), seed)
    eng = Engine(problem_impl(problem), T, seed)
    for day, ev in inst.stream:
        drain(eng.process_day(day, ev))
    assert eng.outputs == oracle_daily_outputs(problem, inst.stream)
