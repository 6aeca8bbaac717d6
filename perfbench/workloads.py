"""The four workloads: how each input is made from the seed, what counts as
the program's set-up, and the day loop that drives predlift.

Set-up is what ``predlift run`` does before day 1: read the instance with
``fileio.read_*``, build the engine (or the decremental run) and ingest the
predictions.  The day loop calls the program once per day; ``mark`` is
called before the first day and after every day, so consecutive marks
bracket one day's call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import program  # noqa: F401  (imports predlift from the checkout)
from predlift import fileio
from predlift.boosting import BoostConfig, SteppableEngine, boost_run
from predlift.decremental import DecrementalRun
from predlift.engine import Engine, drain
from predlift.incremental import lift_incremental
from predlift.problems import (
    connectivity_contract,
    counter_contract,
    decremental_max_contract,
    msf_problem,
)
from predlift.streamgen import (
    ErrorModel,
    generate_insertion_predicted_instance,
    generate_offline_instance,
    make_bundles,
)

from reference import l1_distance


def marked(items, mark):
    """Yield items, calling mark() before each and once after the last."""
    for item in items:
        mark()
        yield item
    mark()


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    T: int
    n: int
    model: str
    sigma: int
    # Independent instances per run.  The program's work on one instance
    # varies by 10-40% from seed to seed (with the error positions and the
    # random partition tree), so one instance per run cannot be steady; the
    # mean over this many varies far less.
    instances: int

    def instance_seeds(self, seed: int) -> list[int]:
        """The seeds of a run's instances, all drawn from the workload seed."""
        rng = random.Random(seed)
        return [rng.randrange(2**31) for _ in range(self.instances)]

    def error_model(self) -> ErrorModel:
        return ErrorModel(self.model, sigma=self.sigma)


class PredictedRun(Workload):
    """Offline problem on the eager engine: the whole tree is computed while
    the predictions are ingested, then each day repairs what was wrong."""

    def generate(self, seed: int, stem: str):
        inst = generate_offline_instance(self.problem, self.n, self.T, self.error_model(), seed)
        fileio.write_predictions(f"{stem}.pred", inst.predictions, meta=inst.meta)
        fileio.write_stream(f"{stem}.stream", inst.stream)
        l1 = l1_distance(inst.predictions, inst.stream, self.T)
        return inst.stream, {"l1": l1, "generator_l1": inst.l1}

    def setup(self, stem: str, seed: int):
        predictions = fileio.read_predictions(f"{stem}.pred")
        stream = fileio.read_stream(f"{stem}.stream")
        registry = {ev.element: ev.payload for _, ev in stream if ev.payload}
        problem = (
            msf_problem() if self.problem == "msf" else lift_incremental(connectivity_contract())
        )
        eng = Engine(problem, len(stream), seed, payload_registry=registry)
        drain(eng.ingest_predictions(predictions))
        return eng, stream

    def days(self, loaded, mark, engines):
        eng, stream = loaded
        if engines is not None:
            engines.append(eng)
        for day, ev in marked(stream, mark):
            drain(eng.process_day(day, ev))
        return eng.outputs, {}


class DecrementalMax(Workload):
    """Decremental max lifted to predicted insertions: the just-in-time
    engine over anti-elements, fed online by ``DecrementalRun``."""

    def generate(self, seed: int, stem: str):
        predicted_set, events, err = generate_insertion_predicted_instance(
            self.n, self.T, self.error_model(), seed
        )
        fileio.write_insertion_predicted_instance(f"{stem}.inst", predicted_set, events)
        announced = {el for el, _, _ in predicted_set}
        inserted = {ev.element for _, ev, _ in events if ev.kind == "I"}
        return [(day, ev) for day, ev, _ in events], {
            "generator_l1": err,
            "out_of_set_elements": len(inserted - announced),
            "reinsertions": sum(1 for _, ev, _ in events if ev.kind == "I") - len(inserted),
        }

    def setup(self, stem: str, seed: int):
        predicted_set, events = fileio.read_insertion_predicted_instance(f"{stem}.inst")
        run = DecrementalRun(decremental_max_contract(), predicted_set, len(events), seed)
        return run, events

    def days(self, loaded, mark, engines):
        run, events = loaded
        if engines is not None:
            engines.append(run.engine)
        for day, ev, reins in marked(events, mark):
            run.process_day(day, ev, reins)
        return run.outputs, {"run": run}


class BoostedCounter(Workload):
    """Counter under guess-and-double boosting with an unknown horizon:
    ``boost_run`` builds its engines on day 1 and again at every doubling."""

    instances_cap = 2

    def generate(self, seed: int, stem: str):
        inst = generate_offline_instance(self.problem, self.n, self.T, self.error_model(), seed)
        fileio.write_stream(f"{stem}.stream", inst.stream)
        fileio.write_bundles(f"{stem}.bundles", make_bundles(inst.predictions, inst.T))
        l1 = l1_distance(inst.predictions, inst.stream, self.T)
        return inst.stream, {"l1": l1, "generator_l1": inst.l1}

    def setup(self, stem: str, seed: int):
        stream = fileio.read_stream(f"{stem}.stream")
        bundles = {b.index: list(b.predictions) for b in fileio.read_bundles(f"{stem}.bundles")}
        ground = {p.event.element for bs in bundles.values() for p in bs if not p.is_sentinel}
        config = BoostConfig(k=1, instances_cap=self.instances_cap, seed=seed)
        return stream, bundles, max(2, len(ground)), config

    def days(self, loaded, mark, engines):
        stream, bundles, ground_size, config = loaded

        def factory(T_hat, preds, engine_seed):
            eng = Engine(lift_incremental(counter_contract()), T_hat, engine_seed)
            if engines is not None:
                engines.append(eng)
            return SteppableEngine(eng, preds)

        outputs, epochs = boost_run(factory, bundles, marked(stream, mark), ground_size, config)
        return outputs, {"epochs": epochs}


WORKLOADS = {
    w.name: w
    for w in (
        PredictedRun("conn-err", "connectivity", 256, 32, "inject", sigma=4 * 256, instances=16),
        PredictedRun("msf-exact", "msf", 1024, 128, "exact", sigma=0, instances=16),
        DecrementalMax("decmax-jit", "decmax", 256, 64, "uniform", sigma=16, instances=12),
        BoostedCounter("counter-boost", "counter", 128, 16, "inject", sigma=128, instances=8),
    )
}
