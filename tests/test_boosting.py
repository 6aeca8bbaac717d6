"""Backstop composition and the guess-and-double boosting loop."""

import pytest

from oracles import CountingSteppable
from predlift.boosting import (
    Backstop,
    BoostConfig,
    RecomputeBackstop,
    SteppableEngine,
    boost_run,
)
from predlift.engine import Engine
from predlift.incremental import lift_incremental
from predlift.model import INSERT, Event
from predlift.problems import counter_contract, oracle_answer, oracle_daily_outputs
from predlift.streamgen import ErrorModel, generate_offline_instance, make_bundles


class SyntheticAlgorithm:
    """Steppable stub that needs ``units_for(day)`` steps per buffered day
    and reports the day as its output."""

    def __init__(self, units_for):
        self.units_for = units_for
        self._buffer = []
        self._pending = 0
        self._day = None
        self.steps_taken = 0

    def buffer_event(self, day, event):
        self._buffer.append(day)

    def is_complete(self):
        return self._pending == 0 and not self._buffer

    def step(self):
        if self._pending == 0:
            self._day = self._buffer.pop(0)
            self._pending = max(1, self.units_for(self._day))
        self._pending -= 1
        self.steps_taken += 1

    def current_output(self):
        return self._day


def counter_instance(T, sigma=5, seed=3):
    return generate_offline_instance("counter", 8, T, ErrorModel("uniform", sigma=sigma), seed)


def steppable(T, preds, seed, kind=SteppableEngine):
    return kind(Engine(lift_incremental(counter_contract()), T, seed), preds)


def backstop_run(algorithms, stream):
    meta = Backstop(algorithms)
    for day, ev in stream:
        meta.feed(day, ev)
    return meta.outputs, meta


def step_spread(meta):
    taken = [a.steps_taken for a in meta.algorithms]
    return max(taken) - min(taken)


def test_single_algorithm_backstop_is_identity():
    inst = counter_instance(64)
    alone = steppable(64, inst.predictions, 1, kind=CountingSteppable)
    outs, meta = backstop_run([alone], inst.stream)
    want = oracle_daily_outputs("counter", inst.stream)
    assert outs == want
    assert meta.meta_steps == alone.steps_taken


def test_fast_slow_pair_meets_theorem_bound():
    fast = SyntheticAlgorithm(lambda day: 1)  # R_fast(t) = t
    slow = SyntheticAlgorithm(lambda day: 2 * day - 1)  # R_slow(t) = t^2
    meta = Backstop([fast, slow])
    stream = [(t, Event(f"e{t}", INSERT)) for t in range(1, 200)]
    for t, ev in stream:
        meta.feed(t, ev)
        assert meta.outputs[-1] == t  # the fast one answers
        assert meta.meta_steps <= 2 * min(t, t * t) + 4 * t
        assert step_spread(meta) <= 1


def test_two_seeds_identical_outputs():
    inst = counter_instance(128, sigma=9, seed=6)
    outs, meta = backstop_run(
        [
            steppable(128, inst.predictions, 1, kind=CountingSteppable),
            steppable(128, inst.predictions, 2, kind=CountingSteppable),
        ],
        inst.stream,
    )
    assert outs == oracle_daily_outputs("counter", inst.stream)
    assert step_spread(meta) <= 1


def test_faulty_constituent_error_propagates():
    import pytest

    class Exploder(SyntheticAlgorithm):
        def step(self):
            raise RuntimeError("boom")

    meta = Backstop([Exploder(lambda day: 1), SyntheticAlgorithm(lambda day: 1)])
    with pytest.raises(RuntimeError, match="boom"):
        meta.feed(1, Event("e", INSERT))
    assert len(meta.algorithms) == 2


def test_recompute_backstop_charges_active_set_per_day():
    inst = generate_offline_instance("counter", 8, 512, ErrorModel("exact"), 5)
    backstop = SteppableEngine(
        RecomputeBackstop(lambda active: oracle_answer("counter", active))
    )
    outs, meta = backstop_run([backstop], inst.stream)
    want = oracle_daily_outputs("counter", inst.stream)
    assert outs == want
    assert meta.meta_steps == sum(active + 1 for active in want)


def boost_counter(T, seed=0, cap=3, k=1, stream_seed=3, built=None):
    """Boosted counter run; each instance the factory builds is appended to
    ``built`` when given."""
    inst = generate_offline_instance(
        "counter", 8, T, ErrorModel("uniform", sigma=5), stream_seed
    )
    bundles = {b.index: list(b.predictions) for b in make_bundles(inst.predictions, T)}

    def factory(T_hat, preds, s):
        instance = steppable(T_hat, preds, s)
        if built is not None:
            built.append(instance)
        return instance

    outs, epochs = boost_run(
        factory,
        bundles,
        inst.stream,
        ground_size=64,
        config=BoostConfig(k=k, instances_cap=cap, seed=seed),
    )
    return inst, outs, epochs


def test_unknown_horizon_300_has_nine_epochs():
    inst, outs, epochs = boost_counter(300)
    assert outs == oracle_daily_outputs("counter", inst.stream)
    assert len(epochs) == 9
    assert [e.horizon_guess for e in epochs] == [2, 4, 8, 16, 32, 64, 128, 256, 512]
    assert sum(e.replayed for e in epochs) <= 2 * 300


def test_known_horizon_single_epoch_cap_one():
    inst = generate_offline_instance("counter", 6, 8, ErrorModel("exact"), 2)
    bundles = {b.index: list(b.predictions) for b in make_bundles(inst.predictions, 8)}
    outs, epochs = boost_run(
        lambda T_hat, preds, s: steppable(T_hat, preds, s),
        bundles,
        inst.stream,
        ground_size=2,
        config=BoostConfig(k=1, instances_cap=1, seed=0),
    )
    assert outs == oracle_daily_outputs("counter", inst.stream)
    assert all(e.L == 1 for e in epochs)


def test_missing_bundles_fall_back_to_last_available():
    inst = generate_offline_instance("counter", 8, 300, ErrorModel("uniform", sigma=5), 4)
    bundles = {b.index: list(b.predictions) for b in make_bundles(inst.predictions, 300)}
    for idx in list(bundles):
        if idx > 3:
            del bundles[idx]  # later bundles never arrive
    outs, epochs = boost_run(
        lambda T_hat, preds, s: steppable(T_hat, preds, s),
        bundles,
        inst.stream,
        ground_size=64,
        config=BoostConfig(k=1, instances_cap=2, seed=0),
    )
    assert outs == oracle_daily_outputs("counter", inst.stream)


def test_epoch_stats_record_instance_steps():
    built = []
    _, _, epochs = boost_counter(100, built=built)
    assert len(built) == sum(e.L for e in epochs)
    assert all(instance.engine.current_day > 0 for instance in built)


def test_exact_bundles_cover_each_doubled_horizon():
    for T in (64, 100, 128):
        inst = generate_offline_instance("counter", 8, T, ErrorModel("exact"), 1)
        bundles = {b.index: list(b.predictions) for b in make_bundles(inst.predictions, T)}
        engines = []

        def factory(T_hat, preds, seed):
            engines.append(Engine(lift_incremental(counter_contract()), T_hat, seed))
            return SteppableEngine(engines[-1], preds)

        outs, _ = boost_run(
            factory, bundles, inst.stream, ground_size=64,
            config=BoostConfig(k=1, instances_cap=2, seed=0),
        )
        assert outs == oracle_daily_outputs("counter", inst.stream)
        assert sum(e.counters.retrigger_calls for e in engines) == 0, T


def test_boost_config_rejects_counts_below_one():
    for kwargs in ({"k": 0}, {"k": -1}, {"instances_cap": 0}, {"instances_cap": -2}):
        with pytest.raises(ValueError, match="at least 1"):
            BoostConfig(**kwargs)
    assert BoostConfig(k=1, instances_cap=1).instances_cap == 1
