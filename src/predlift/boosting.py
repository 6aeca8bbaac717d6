"""Step-interleaved backstop over resumable algorithms, and the boosting
wrapper that runs independent engine instances under guess-and-double
horizon estimation.

A steppable algorithm buffers incoming events and performs exactly one work
unit per step() call.  The backstop feeds each day's event to every
constituent and then issues single steps round-robin until one constituent
has drained its buffer; that constituent's output is the day's answer.
Because all constituents stay within one step of each other, total meta
work tracks N times the minimum constituent's work.  An exception raised by
a constituent propagates out of the backstop: no constituent declares a
failure it may be dropped for.

The boosting loop doubles its horizon guess whenever the stream reaches it,
rebuilding L fresh independent instances (L from both log of the horizon
guess and log of the ground-set size, with a configurable cap) under a
fresh backstop.  Each new instance starts at today: the events seen so far
are folded into its schedule on their days, and none is replayed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil, log2
from typing import Any, Callable, Iterator

from .engine import Engine
from .model import Event, Prediction
from .problems import ActiveSet


class SteppableEngine:
    """Engine driven one work unit at a time.

    The engine's generators yield unit counts after each chunk of real
    work; the wrapper meters them out so a step() always accounts exactly
    one unit, regardless of chunk size.  ``engine`` is an ``Engine`` or
    anything else with a unit-yielding ``process_day`` and an ``outputs``
    list, such as a ``RecomputeBackstop``.  Given ``predictions``, the
    engine first ingests them, which computes every window that has not
    ended; without, it computes each window on its start day.
    """

    def __init__(self, engine: Engine, predictions: list[Prediction] | None = None):
        self.engine = engine
        self._gens: deque[Iterator[int]] = deque()
        if predictions is not None:
            self._gens.append(engine.ingest_predictions(predictions))
        self._pending = 0

    def buffer_event(self, day: int, event: Event):
        # creating the generator runs none of process_day: the day starts
        # when the queue reaches it
        self._gens.append(self.engine.process_day(day, event))

    def _refill(self) -> bool:
        while self._pending == 0:
            if not self._gens:
                return False
            units = next(self._gens[0], None)
            if units is None:
                self._gens.popleft()
            else:
                self._pending = units
        return True

    def step(self) -> None:
        if self._refill():
            self._pending -= 1

    def is_complete(self) -> bool:
        return not self._refill()

    def current_output(self) -> Any:
        return self.engine.outputs[-1] if self.engine.outputs else None


class RecomputeBackstop:
    """Trivially correct fully dynamic algorithm: each day, ``answer``
    recomputes the day's output from scratch on the current active set
    (element -> payload), charged one unit per active element plus one.
    A ``SteppableEngine`` steps it like an engine."""

    def __init__(self, answer: Callable[[dict[str, tuple]], Any]):
        self._answer = answer
        self._active = ActiveSet()
        self.outputs: list[Any] = []

    def process_day(self, day: int, event: Event) -> Iterator[int]:
        self._active.apply(day, event)
        self.outputs.append(self._answer(self._active.items))
        yield len(self._active.items) + 1


class Backstop:
    """Round-robin composition of steppable algorithms."""

    def __init__(self, algorithms: list):
        if not algorithms:
            raise ValueError("need at least one algorithm")
        self.algorithms = list(algorithms)
        self.meta_steps = 0
        self.outputs: list[Any] = []

    def feed(self, day: int, event: Event) -> Any:
        for a in self.algorithms:
            a.buffer_event(day, event)
        while True:
            # completion is checked at round boundaries without consuming a
            # step, so every round issues exactly one step to every
            # constituent and their step counts never drift apart
            for a in self.algorithms:
                if a.is_complete():
                    out = a.current_output()
                    self.outputs.append(out)
                    return out
            for a in self.algorithms:
                a.step()
            self.meta_steps += len(self.algorithms)


@dataclass
class BoostConfig:
    """``k`` scales the instance count per epoch, at most ``instances_cap``;
    both must be at least 1."""

    k: int = 1
    instances_cap: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"boosting k must be at least 1, got {self.k}")
        if self.instances_cap < 1:
            raise ValueError(f"boosting instances cap must be at least 1, got {self.instances_cap}")


@dataclass
class EpochStats:
    """One epoch of ``boost_run``: its horizon guess, its instance count,
    and ``replayed``, the number of past days folded into each new
    instance's schedule (the name is kept; no day is replayed)."""

    horizon_guess: int
    L: int
    replayed: int


def boost_run(
    engine_factory: Callable[[int, list[Prediction], int], SteppableEngine],
    bundles: dict[int, list[Prediction]],
    stream: list[tuple[int, Event]],
    ground_size: int,
    config: BoostConfig,
    log: Callable[[str], None] | None = None,
) -> tuple[list[Any], list[EpochStats]]:
    """Guess-and-double over an unknown horizon.

    On each doubling day the bundle indexed by the doubled guess's log is
    ingested (or the last available one), so its earliest predictions span
    the doubled horizon.  L fresh independent instances are built for the
    doubled guess under a new backstop, and each ``resume``s after the
    events seen so far before its first step: they go into its schedule on
    their days, its ingest computes only the windows that have not
    ended, and today is its first live day.  ``engine_factory`` returns a
    ``SteppableEngine`` over an ``Engine``.
    """
    horizon_guess = 1
    meta: Backstop | None = None
    history: list[tuple[int, Event]] = []
    outputs: list[Any] = []
    epochs: list[EpochStats] = []
    for day, ev in stream:
        if day >= horizon_guess:
            idx = horizon_guess.bit_length()
            while idx > 1 and idx not in bundles:
                idx -= 1  # missing bundle: fall back to the last available
            bundle = bundles.get(idx, [])
            horizon_guess *= 2
            l_uncapped = max(
                config.k * max(1, ceil(log2(horizon_guess))),
                ceil(log2(max(2, ground_size))),
            )
            L = min(l_uncapped, config.instances_cap)
            usable = [p for p in bundle if not p.is_sentinel and p.predicted_day <= horizon_guess]
            instances = [
                engine_factory(horizon_guess, usable, config.seed + 7919 * len(epochs) + i)
                for i in range(L)
            ]
            for instance in instances:
                instance.engine.resume(history)
            meta = Backstop(instances)
            if log:
                log(f"#epoch T^={horizon_guess} L={L} L_uncapped={l_uncapped}")
            epochs.append(EpochStats(horizon_guess, L, replayed=len(history)))
        history.append((day, ev))
        outputs.append(meta.feed(day, ev))
    return outputs, epochs
