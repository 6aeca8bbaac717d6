"""Generated differential tests: in every mode, under every error model, the
daily outputs equal the from-scratch oracle's, the counters stay within
the bounds the paper proves, and no window is computed after its last day,
when nothing can read it.  A day repairs all of its moved records in one
walk: its outputs equal those of an engine that walks each record's span
on its own, for no more units, and no window is recomputed twice on one
day.  The walk recomputes exactly the windows a day's moves touch, and its
work stays within the paper's bound in the l1 error for lifted incremental
problems.  After every day, every window that can still be read answers as
a fresh compute on the current schedule.  Every MSF window compute equals
the pass-by-pass reference window.  A boosting epoch's new engines start at
today: they answer as engines that replay the past days, for no more work,
and read past payloads from the events.  A backstop takes at most N times
its cheapest constituent's steps, plus N per day."""

from itertools import product
from math import log2

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CountingSteppable,
    PerSpanEngine,
    backstops_built,
    comparable,
    ended_window_computes,
    reference_msf_window,
    replay_boost_run,
    retrigger_recomputes,
    stale_windows,
)
from predlift.boosting import Backstop, BoostConfig, RecomputeBackstop, SteppableEngine, boost_run
from predlift.decremental import DecrementalRun
from predlift.engine import Engine, drain
from predlift.incremental import lift_incremental
from predlift.model import INSERT, Event, Prediction
from predlift.problems import (
    MsfProblem,
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


def run_mode(mode, problem, inst, seed, engine=Engine):
    """(daily outputs, the run's ``engine``) of one instance in ``mode``.  A
    backstopped engine is stepped to completion after the last day, so its
    counters cover every day."""
    eng = engine(problem_impl(problem), inst.T, seed)
    predictions = inst.predictions
    if mode == "offline":  # the realized stream is its own exact prediction
        predictions = [Prediction(ev, day) for day, ev in inst.stream]
    if mode != "backstopped":
        drain(eng.ingest_predictions(predictions))
        for day, ev in inst.stream:
            drain(eng.process_day(day, ev))
        return eng.outputs, eng
    backstop = RecomputeBackstop(lambda active: oracle_answer(problem, active))
    stepped = SteppableEngine(eng, predictions)
    meta = Backstop([stepped, SteppableEngine(backstop)])
    for day, ev in inst.stream:
        meta.feed(day, ev)
    while not stepped.is_complete():
        stepped.step()
    return meta.outputs, eng


def assert_one_walk_per_day(run, reference, recomputes):
    """``run`` (an engine or a decremental run) answers every day like
    ``reference``, the same run on a ``PerSpanEngine``, for no more units,
    and its retriggers, recorded in ``recomputes``, recomputed no window
    twice on one day."""
    assert run.outputs == reference.outputs
    assert run.counters.total_units() <= reference.counters.total_units()
    assert len(set(recomputes)) == len(recomputes)


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
    with ended_window_computes() as ended, retrigger_recomputes() as recomputes:
        outputs, eng = run_mode(mode, problem, inst, seed)
    assert outputs == oracle_daily_outputs(problem, inst.stream)
    assert not ended
    assert_one_walk_per_day(eng, run_mode(mode, problem, inst, seed, PerSpanEngine)[1], recomputes)
    if inst.l1 == 0 or mode == "offline":
        assert eng.counters.retrigger_calls == 0
    assert eng.counters.batch_max <= 2 * log2(T) + 4


def boosted(problem, inst, seed, cap, run=boost_run, past_payload=None):
    """(daily outputs, engines built, backstops built) of ``run`` over the
    bundles of ``inst``'s predictions.  Given ``past_payload``, an engine
    built for the horizon guess ``T_hat`` gets it in place of the payload
    of every predicted insertion realized before its first live day,
    ``T_hat // 2``."""
    bundles = {b.index: list(b.predictions) for b in make_bundles(inst.predictions, inst.T)}
    real_day = {ev.key: day for day, ev in inst.stream}
    engines = []

    def factory(T_hat, preds, engine_seed):
        if past_payload is not None:
            preds = [
                Prediction(Event(p.event.element, INSERT, past_payload), p.predicted_day)
                if p.event.kind == INSERT and real_day.get(p.event.key, T_hat) < T_hat // 2
                else p
                for p in preds
            ]
        engines.append(Engine(problem_impl(problem), T_hat, engine_seed))
        return SteppableEngine(engines[-1], preds)

    config = BoostConfig(instances_cap=cap, seed=seed)
    with backstops_built() as metas:
        outputs, _ = run(factory, bundles, inst.stream, 8, config)
    return outputs, engines, metas


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
    with ended_window_computes() as ended:
        outputs, _, _ = boosted(problem, inst, seed, cap)
    assert outputs == oracle_daily_outputs(problem, inst.stream)
    assert not ended


def test_boosted_run_does_no_more_work_than_the_replay():
    """A new epoch's instances start at today instead of replaying the
    past days: the same daily outputs as ``oracles.replay_boost_run``, for
    no more engine units and no more backstop steps.  Every problem and
    error model, at two horizons, seeds 0-3; two instances per epoch at
    T = 64, one at T = 200 to keep the stepping to seconds."""
    models = [ErrorModel(kind, 16, 0.3 if kind == "drop" else 0.0) for kind in MODEL_KINDS]
    for problem, model, T, seed in product(PROBLEMS, models, (64, 200), range(4)):
        inst = generate_offline_instance(problem, 8, T, model, seed)
        cap = 2 if T == 64 else 1
        outputs, engines, metas = boosted(problem, inst, seed, cap)
        want, replayed, replay_metas = boosted(problem, inst, seed, cap, run=replay_boost_run)
        case = (problem, model.kind, T, seed)
        assert outputs == want == oracle_daily_outputs(problem, inst.stream), case
        units = sum(e.counters.total_units() for e in engines)
        assert units <= sum(e.counters.total_units() for e in replayed), case
        steps = sum(m.meta_steps for m in metas)
        assert steps <= sum(m.meta_steps for m in replay_metas), case


def test_boosted_engines_take_past_payloads_from_the_events():
    """An engine built on a doubling day reads a past insertion's payload
    only from the event folded into its schedule: its predictions of
    insertions realized before its first live day carry a junk payload
    (vertices and a weight no event has), and the outputs still equal the
    oracle's, so a prediction ``resume`` realized never brings its payload
    in."""
    for problem, seed in product(("connectivity", "msf"), range(3)):
        inst = generate_offline_instance(problem, 8, 100, ErrorModel("uniform", sigma=9), seed)
        outputs, _, _ = boosted(problem, inst, seed, 2, past_payload=(-1, -2, -3))
        assert outputs == oracle_daily_outputs(problem, inst.stream), (problem, seed)


def test_each_epoch_starts_its_engines_at_today(monkeypatch):
    """Every engine a doubling day builds computes at ingest exactly the
    windows that end on or after that day, once each, holds every past
    event as a realized record on its day, and after its first live day
    every window that can still be read answers as a fresh compute."""
    computes = []
    recompute = Engine._recompute

    def recording(eng, nid, bucket):
        computes.append((eng, eng.current_day, nid))
        return recompute(eng, nid, bucket)

    monkeypatch.setattr(Engine, "_recompute", recording)
    for problem, seed in product(PROBLEMS, range(3)):
        inst = generate_offline_instance(problem, 8, 100, ErrorModel("inject", sigma=100), seed)
        bundles = {b.index: list(b.predictions) for b in make_bundles(inst.predictions, inst.T)}
        built = []  # every instance, and its first live day: the doubled guess is twice it

        def factory(T_hat, preds, engine_seed):
            engine = Engine(problem_impl(problem), T_hat, engine_seed)
            built.append((SteppableEngine(engine, preds), T_hat // 2))
            return built[-1][0]

        def check_first_day(instance, first):
            # the backstop may answer the day before this instance finishes it
            while not instance.is_complete():
                instance.step()
            eng, case = instance.engine, (problem, seed, first)
            tree = eng.tree
            at_ingest = [nid for e, day, nid in computes if e is eng and day == first - 1]
            assert at_ingest == [n for n in range(tree.n_nodes()) if tree.end[n] >= first], case
            for day, ev in inst.stream[: first - 1]:
                rec = eng.schedule.by_key[ev.key]
                assert rec.realized and rec.day == day, case
            assert eng.current_day == first and len(eng.outputs) == 1, case
            assert not stale_windows(eng), case

        def stream_checking_first_days():
            checked = 0
            for day, ev in inst.stream + [(inst.T + 1, None)]:
                for instance, first in built[checked:]:
                    if first < day:
                        check_first_day(instance, first)
                        checked += 1
                if ev is not None:
                    yield day, ev
            assert checked == len(built)

        config = BoostConfig(instances_cap=2, seed=seed)
        outputs, epochs = boost_run(factory, bundles, stream_checking_first_days(), 8, config)
        assert outputs == oracle_daily_outputs(problem, inst.stream)
        assert len(built) == sum(e.L for e in epochs)


def backstop_pair(problem, inst, seed):
    """The CLI's backstopped mode: the engine over the instance's
    predictions beside the from-scratch recompute, each counting its steps."""
    eng = Engine(problem_impl(problem), inst.T, seed)
    backstop = RecomputeBackstop(lambda active: oracle_answer(problem, active))
    return [CountingSteppable(eng, inst.predictions), CountingSteppable(backstop)]


def steps_by_day(algorithms, stream, count):
    """``count(meta)`` after each day of ``stream`` fed through a backstop
    over ``algorithms``."""
    meta = Backstop(algorithms)
    counts = []
    for day, ev in stream:
        meta.feed(day, ev)
        counts.append(count(meta))
    return counts


@settings(SETTINGS, max_examples=25)
@given(problem=st.sampled_from(PROBLEMS), sigma=st.integers(0, 4 * 256), seed=seeds)
def test_backstop_steps_within_robustness_bound(problem, sigma, seed):
    """The backstop's robustness: through every day t, its N constituents
    take at most N times the steps the cheaper one spends alone, plus N
    per day.  For the CLI's engine and recompute pair, at l1 errors up to
    4T."""
    inst = generate_offline_instance(problem, 16, 256, ErrorModel("inject", sigma), seed)
    alone = [
        steps_by_day([algorithm], inst.stream, lambda meta: meta.algorithms[0].steps_taken)
        for algorithm in backstop_pair(problem, inst, seed)
    ]
    pair = backstop_pair(problem, inst, seed)
    meta_steps = steps_by_day(pair, inst.stream, lambda meta: meta.meta_steps)
    n = len(pair)
    for t, steps in enumerate(meta_steps, start=1):
        assert steps <= n * min(a[t - 1] for a in alone) + n * t, (t, steps)


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
    items, err = generate_deletion_predicted_stream(problem, 8, T, model, seed)
    eng = Engine(problem_impl(problem), T, seed)
    reference = PerSpanEngine(problem_impl(problem), T, seed)
    with ended_window_computes() as ended, retrigger_recomputes() as recomputes:
        for day, ev, pred in items:
            drain(eng.process_day(day, ev, predicted_deletion_day=pred))
    for day, ev, pred in items:
        drain(reference.process_day(day, ev, predicted_deletion_day=pred))
    assert eng.outputs == oracle_daily_outputs(problem, [(d, ev) for d, ev, _ in items])
    assert not ended
    assert_one_walk_per_day(eng, reference, recomputes)
    if err == 0:
        assert eng.counters.retrigger_calls == 0


@SETTINGS
@given(data=st.data(), T=horizons, seed=seeds)
def test_decremental_run_matches_oracle(data, T, seed):
    model = data.draw(error_models(T, kinds=("exact", "uniform", "drop")))
    predicted_set, items, _ = generate_insertion_predicted_instance(12, T, model, seed)
    run = DecrementalRun(decremental_max_contract(), predicted_set, T, seed)
    reference = DecrementalRun(decremental_max_contract(), predicted_set, T, seed)
    reference.engine.__class__ = PerSpanEngine  # built by the run, before any day
    with ended_window_computes() as ended, retrigger_recomputes() as recomputes:
        for day, ev, reins in items:
            run.process_day(day, ev, reins)
    for day, ev, reins in items:
        reference.process_day(day, ev, reins)
    assert run.outputs == oracle_daily_outputs("decmax", [(d, ev) for d, ev, _ in items])
    assert not ended
    assert_one_walk_per_day(run, reference, recomputes)


def test_readable_windows_stay_fresh():
    """After every day, every live window whose last day has not passed
    equals a fresh top-down compute on the current schedule (a connectivity
    window by its components), so no repair walk missed a window a move
    changed.  On fixed instances, to keep the check to a few seconds."""
    models = (ErrorModel("uniform", sigma=9), ErrorModel("inject", sigma=128))
    for problem, model, seed in product(PROBLEMS, models, range(4)):
        inst = generate_offline_instance(problem, 16, 64, model, seed)
        eng = Engine(problem_impl(problem), inst.T, seed)
        drain(eng.ingest_predictions(inst.predictions))
        for day, ev in inst.stream:
            drain(eng.process_day(day, ev))
            assert not stale_windows(eng), (problem, model, seed, day)
    for seed in range(4):
        model = ErrorModel("uniform", sigma=8)
        predicted_set, items, _ = generate_insertion_predicted_instance(16, 64, model, seed)
        run = DecrementalRun(decremental_max_contract(), predicted_set, 64, seed)
        for day, ev, reins in items:
            run.process_day(day, ev, reins)
            assert not stale_windows(run.engine), ("decmax", seed, day)


def test_msf_windows_equal_the_pass_by_pass_reference(monkeypatch):
    """Every MSF window compute, at ingest and in every retrigger, returns
    the memory (edges, forced weight, sorted forced ids), compute units and
    clone units of ``oracles.reference_msf_window`` on the same context and
    parent memory.  On fixed instances at T = 128."""
    compute = MsfProblem.compute_window
    calls = []

    def checked(problem, ctx, parent):
        got = compute(problem, ctx, parent)
        want = reference_msf_window(ctx, parent)
        assert comparable(problem, got[0]) == comparable(problem, want[0]), (ctx.start, ctx.end)
        assert got[1:] == want[1:], (ctx.start, ctx.end)
        calls.append(ctx)
        return got

    monkeypatch.setattr(MsfProblem, "compute_window", checked)
    models = (ErrorModel("exact"), ErrorModel("uniform", sigma=9), ErrorModel("inject", sigma=256))
    with retrigger_recomputes() as recomputes:
        for model, seed in product(models, range(3)):
            inst = generate_offline_instance("msf", 16, 128, model, seed)
            outputs, _ = run_mode("predicted", "msf", inst, seed)
            assert outputs == oracle_daily_outputs("msf", inst.stream)
    assert len(calls) > len(recomputes) > 100


# The paper's repair-work bound: retrigger units <= C * (l1 + T) * log2(T)^2
# for lifted incremental problems.  Each C is the worst ratio at T = 16 and
# 64 (l1 = T and 2T, seeds 0-2, n = 16), rounded up: counter 0.27,
# connectivity 2.13.  The inject model places at most about 2T of error at
# these horizons, 4T from T = 256 on.
WORK_BOUND_C = {"counter": 0.3, "connectivity": 2.2}
WORK_BOUND_SWEEP = ((16, (1, 2)), (64, (1, 2)), (256, (1, 4)), (1024, (1, 4)))


def test_retrigger_work_within_paper_bound():
    """Repair work grows with the l1 error times log^2 T, with no further
    factor of T: the ratio fitted at small horizons holds up to T = 1024."""
    for problem, C in WORK_BOUND_C.items():
        for T, multiples in WORK_BOUND_SWEEP:
            for k, seed in product(multiples, range(3)):
                inst = generate_offline_instance(problem, 16, T, ErrorModel("inject", k * T), seed)
                _, eng = run_mode("predicted", problem, inst, seed)
                bound = C * (inst.l1 + T) * log2(T) ** 2
                assert eng.counters.retrigger_units <= bound, (problem, T, k, seed)


def covering_window(tree, lo, hi):
    """The smallest window holding days ``lo`` and ``hi``, by a scan of
    every window's span."""
    holding = [n for n in range(tree.n_nodes()) if tree.start[n] <= lo and hi <= tree.end[n]]
    return min(holding, key=lambda n: tree.end[n] - tree.start[n])


def test_repair_walk_recomputes_exactly_the_windows_moves_touch(monkeypatch):
    """On every day with moved records, the walk recomputes exactly the
    windows that were live before it, end on or after today, start on or
    before the farthest day of any span, and lie strictly below some
    span's covering window (anywhere in the tree for a span that leaves
    ``[1, T]``).  On fixed instances, every retrigger checked."""
    walks = []
    retrigger = Engine.retrigger

    def spy(eng, spans):
        live = {nid for nid, mem in enumerate(eng.memory) if mem is not None}
        walks.append((eng, eng.current_day, list(spans), live))
        yield from retrigger(eng, spans)

    monkeypatch.setattr(Engine, "retrigger", spy)
    models = (ErrorModel("uniform", sigma=9), ErrorModel("inject", sigma=128))
    with retrigger_recomputes() as recomputes:
        for problem, model, seed in product(PROBLEMS, models, range(2)):
            inst = generate_offline_instance(problem, 16, 64, model, seed)
            run_mode("predicted", problem, inst, seed)
    recomputed: dict = {}
    for eng, day, nid in recomputes:
        recomputed.setdefault((eng, day), set()).add(nid)
    assert len(walks) > 100
    for eng, day, spans, live in walks:
        tree = eng.tree
        reach = max(hi for _, hi in spans)
        below = set()
        for lo, hi in spans:
            if lo < 1 or hi > eng.T:
                below.update(range(tree.n_nodes()))
                continue
            top = covering_window(tree, lo, hi)
            below.update(
                n
                for n in range(tree.n_nodes())
                if n != top and tree.start[top] <= tree.start[n] and tree.end[n] <= tree.end[top]
            )
        expected = {n for n in below & live if tree.end[n] >= day and tree.start[n] <= reach}
        assert recomputed.get((eng, day), set()) == expected, (day, spans)


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
