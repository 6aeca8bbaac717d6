"""Synthetic instance generation with parameterized prediction-error
models.

Realized streams are always feasible: exactly one real event per day,
deletions only of currently active elements, element ids unique per
lifetime.  Predictions are derived from the realized stream and perturbed
per the error model: each predicts a realized event, its payload included,
and only its day is perturbed.  The exact l1 error of the generated pair is
computed and stored in the prediction file's metadata.

Error models: ``exact``; ``uniform`` (offset uniform on [-sigma, sigma]);
``heavy`` (heavy-tailed offsets); ``drop`` (a rho fraction of events is
never predicted); ``adv-uneven`` (sqrt(T) elements whose deletions all miss
by sqrt(T), concentrating error at one cut); ``adv-even`` (constant error
on every element, spreading error across all cuts); ``inject`` (exactly
sigma total l1 error, used by the work-scaling bench; a sigma the horizon
cannot hold is rejected with ValueError).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, isqrt, log2

from .model import DELETE, END_OF_HORIZON, INSERT, Event, Prediction, PredictionBundle, l1_error

MODEL_KINDS = ("exact", "uniform", "heavy", "drop", "adv-uneven", "adv-even", "inject")


@dataclass(frozen=True)
class ErrorModel:
    kind: str
    sigma: int = 0
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown error model {self.kind!r}")


@dataclass
class Instance:
    T: int
    predictions: list[Prediction]
    stream: list[tuple[int, Event]]
    l1: int
    meta: dict


def _payload_for(problem: str, n: int, rng: random.Random) -> tuple:
    if problem in ("connectivity", "msf"):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        if problem == "msf":
            return (u, v, rng.randint(1, 100))
        return (u, v)
    if problem == "decmax":
        return (rng.randint(0, 10**6),)
    return ()


def random_stream(problem: str, n: int, T: int, rng: random.Random) -> list[tuple[int, Event]]:
    """Feasible realized stream: random insert/delete walk over unique
    lifetime ids."""
    events: list[tuple[int, Event]] = []
    active: list[str] = []
    serial = 0
    for day in range(1, T + 1):
        if active and rng.random() < 0.45:
            idx = rng.randrange(len(active))
            el = active.pop(idx)
            events.append((day, Event(el, DELETE)))
        else:
            el = f"e{serial}"
            serial += 1
            active.append(el)
            events.append((day, Event(el, INSERT, _payload_for(problem, n, rng))))
    return events


def _perturb(day: int, T: int, model: ErrorModel, rng: random.Random) -> int | None:
    """Predicted day for a real event at ``day``; None means never
    predicted."""
    if model.kind == "exact" or model.kind == "inject":
        return day
    if model.kind == "uniform":
        return min(max(day + rng.randint(-model.sigma, model.sigma), 1), T)
    if model.kind == "heavy":
        mag = min(T, int(1.0 / max(rng.random(), 1e-9) ** 1.5))
        off = mag if rng.random() < 0.5 else -mag
        return min(max(day + off, 1), T)
    if model.kind == "drop":
        return None if rng.random() < model.rho else day
    if model.kind == "adv-uneven":
        # concentrated error: a sqrt(T) block of days misses by sqrt(T)
        r = isqrt(T)
        lo = T // 2 - r + 1
        return min(day + r, T) if lo <= day <= T // 2 else day
    if model.kind == "adv-even":
        # constant error 3 spread over the whole horizon
        return min(day + 3, T)
    raise ValueError(model.kind)


def _inject_l1(
    predictions: list[Prediction],
    real_day: dict[tuple[str, str], int],
    total: int,
    T: int,
    rng: random.Random,
) -> list[Prediction]:
    """Swap the predicted days of event pairs a fixed distance apart until
    the pair's l1 error lands exactly on ``total``.  The error is exact or
    rejected: when the random swaps cannot place all of it, ValueError.

    Swapping keeps the prediction multiset a permutation of the true days,
    so the preprocessing matcher assigns every prediction its requested slot
    and the measured work isolates the repair cost of the injected error:
    doubling the injected error doubles the number of displaced events
    instead of shrinking every displacement toward the additive log-sized
    floor of a single repair."""
    delta = max(4, min(T // 32, 64))
    days = {p.event.key: p.predicted_day for p in predictions}
    by_day = {real_day[p.event.key]: p.event.key for p in predictions if not p.is_sentinel}
    moved: set = set()
    budget = total

    def swap(d1: int, d2: int) -> bool:
        k1, k2 = by_day.get(d1), by_day.get(d2)
        if k1 is None or k2 is None or k1 in moved or k2 in moved:
            return False
        days[k1], days[k2] = d2, d1
        moved.update((k1, k2))
        return True

    attempts = 0
    while budget >= 2 and attempts < 100 * (total + 1):
        attempts += 1
        gap = min(delta, budget // 2)
        d1 = rng.randint(1, T - gap)
        if swap(d1, d1 + gap):
            budget -= 2 * gap
    if budget == 1:
        # odd remainder: nudge one untouched prediction a single day
        for d in range(1, T):
            k = by_day.get(d)
            if k is not None and k not in moved:
                days[k] = d + 1
                budget = 0
                break
    if budget > 0:
        raise ValueError(f"cannot inject l1 error sigma={total} within horizon T={T}")
    return [Prediction(p.event, days[p.event.key]) for p in predictions]


def _adversarial_uneven(problem: str, n: int, T: int, rng: random.Random) -> Instance:
    """sqrt(T) elements inserted at the start, predicted to be deleted just
    after the midpoint but really deleted just before it: each miss is
    sqrt(T), all straddling the same cut, total error T."""
    r = isqrt(T)
    if r < 2 or T < 4 * r:
        raise ValueError("adv-uneven needs T >= 16")
    events: dict[int, Event] = {}
    preds: list[Prediction] = []
    half = T // 2
    for j in range(r):
        el = f"a{j}"
        events[1 + j] = Event(el, INSERT, _payload_for(problem, n, rng))
        events[half - r + 1 + j] = Event(el, DELETE)
        preds.append(Prediction(events[1 + j], 1 + j))
        preds.append(Prediction(events[half - r + 1 + j], half + 1 + j))
    serial = 0
    for day in range(1, T + 1):
        if day not in events:
            el = f"f{serial}"
            serial += 1
            events[day] = Event(el, INSERT, _payload_for(problem, n, rng))
            preds.append(Prediction(events[day], day))
    stream = [(day, events[day]) for day in range(1, T + 1)]
    return _finish(problem, T, preds, stream, {"model": "adv-uneven"})


def _adversarial_even(problem: str, n: int, T: int, rng: random.Random) -> Instance:
    """Element j inserted on day 2j+1 with predicted deletion 2j+5 but real
    deletion 2j+2: error 3 per element, spread across every cut.  The last
    two elements are predicted exactly so the stream stays inside [1, T]."""
    if T % 2 or T < 8:
        raise ValueError("adv-even needs even T >= 8")
    half = T // 2
    events: dict[int, Event] = {}
    preds: list[Prediction] = []
    for j in range(half):
        el = f"a{j}"
        ins_day, del_day = 2 * j + 1, 2 * j + 2
        events[ins_day] = Event(el, INSERT, _payload_for(problem, n, rng))
        events[del_day] = Event(el, DELETE)
        preds.append(Prediction(events[ins_day], ins_day))
        pred_del = del_day if j >= half - 2 else min(2 * j + 5, T)
        preds.append(Prediction(events[del_day], pred_del))
    stream = [(day, events[day]) for day in range(1, T + 1)]
    return _finish(problem, T, preds, stream, {"model": "adv-even"})


def _finish(problem, T, preds, stream, meta) -> Instance:
    realized = [(ev, day) for day, ev in stream]
    err = l1_error(preds, realized, T)
    meta = dict(meta, l1_error=err, T=T, problem=problem)
    return Instance(T, preds, stream, err, meta)


def generate_offline_instance(
    problem: str, n: int, T: int, model: ErrorModel, seed: int
) -> Instance:
    """Full predicted-updates instance: prediction list plus realized
    stream."""
    rng = random.Random(seed)
    if model.kind == "adv-uneven":
        return _adversarial_uneven(problem, n, T, rng)
    if model.kind == "adv-even":
        return _adversarial_even(problem, n, T, rng)
    stream = random_stream(problem, n, T, rng)
    preds: list[Prediction] = []
    real_day: dict[tuple[str, str], int] = {}
    for day, ev in stream:
        real_day[ev.key] = day
        pd = _perturb(day, T, model, rng)
        if pd is not None:
            preds.append(Prediction(ev, pd))
    if model.kind == "inject":
        preds = _inject_l1(preds, real_day, model.sigma, T, rng)
    return _finish(problem, T, preds, stream, {"model": model.kind, "sigma": model.sigma,
                                               "rho": model.rho, "seed": seed, "n": n})


def generate_deletion_predicted_stream(
    problem: str, n: int, T: int, model: ErrorModel, seed: int
) -> tuple[list[tuple[int, Event, int | None]], int]:
    """Predicted-deletion instance for an engine given no predictions:
    insertions carry a (perturbed) predicted deletion day; elements never
    deleted within the horizon predict the end of it.  Returns (stream
    items, l1 deletion error)."""
    rng = random.Random(seed)
    stream = random_stream(problem, n, T, rng)
    del_day = {ev.element: day for day, ev in stream if ev.kind == DELETE}
    items: list[tuple[int, Event, int | None]] = []
    pred_of: dict[str, int] = {}
    for day, ev in stream:
        if ev.kind == DELETE:
            items.append((day, ev, None))
            continue
        true_del = del_day.get(ev.element)
        if true_del is None:
            pred = END_OF_HORIZON
        else:
            pred = _perturb(true_del, T, model, rng)
            if pred is None:
                pred = END_OF_HORIZON
            pred = max(pred, day + 1)
        items.append((day, ev, pred))
        if pred < END_OF_HORIZON:
            pred_of[ev.element] = pred
    preds = [Prediction(Event(el, DELETE), d) for el, d in pred_of.items()]
    realized = [(ev, day) for day, ev in stream if ev.kind == DELETE]
    err = l1_error(preds, realized, T)
    return items, err


def generate_insertion_predicted_instance(
    n: int, T: int, model: ErrorModel, seed: int
) -> tuple[list[tuple[str, int, tuple]], list[tuple[int, Event, int | None]], int]:
    """Predicted-insertion instance for the decremental adapter (max
    problem).  Under the drop model a rho fraction of inserted elements is
    left out of the predicted set entirely (the theorem's K)."""
    rng = random.Random(seed)
    values = {f"e{j}": rng.randint(0, 10**6) for j in range(n)}
    days = sorted(rng.sample(range(1, T + 1), min(n, T)))
    ins_day = dict(zip(sorted(values), days))

    items: list[tuple[int, Event, int | None]] = []
    active: list[str] = []
    pending = {d: el for el, d in ins_day.items()}
    for day in range(1, T + 1):
        if day in pending:
            el = pending[day]
            items.append((day, Event(el, INSERT, (values[el],)), None))
            active.append(el)
        elif active and rng.random() < 0.5:
            el = active.pop(rng.randrange(len(active)))
            if rng.random() < 0.3:
                free = [d for d in range(day + 2, T + 1) if d not in pending]
                if free:
                    back = rng.choice(free)
                    pending[back] = el
                    items.append((day, Event(el, DELETE), _perturb(back, T, model, rng) or back))
                    continue
            items.append((day, Event(el, DELETE), None))
        else:
            el = f"x{day}"
            values[el] = rng.randint(0, 10**6)
            items.append((day, Event(el, INSERT, (values[el],)), None))
            active.append(el)

    predicted_set: list[tuple[str, int, tuple]] = []
    preds: list[Prediction] = []
    for el, d in sorted(ins_day.items()):
        if model.kind == "drop" and rng.random() < model.rho:
            continue  # never announced: inserted from outside S
        pd = _perturb(d, T, model, rng)
        pd = d if pd is None else pd
        predicted_set.append((el, pd, (values[el],)))
        preds.append(Prediction(Event(el, INSERT), pd))
    realized = [(ev, day) for day, ev, _ in items if ev.kind == INSERT]
    err = l1_error(preds, realized, T)
    return predicted_set, items, err


def make_bundles(predictions: list[Prediction], T: int) -> list[PredictionBundle]:
    """Doubling chain of prediction sets: bundle j holds the 2^j * c
    earliest-day predictions, padded with end-of-horizon sentinels to exact
    cardinality.  All bundles are valid from day 1."""
    levels = max(1, ceil(log2(max(2, T))))
    ordered = sorted(
        predictions, key=lambda p: (p.predicted_day, p.event.element, p.event.kind)
    )
    base = max(1, ceil(len(ordered) / (1 << levels)))
    bundles = []
    for j in range(1, levels + 1):
        size = base * (1 << j)
        chunk = list(ordered[:size])
        # pad ids restart at 0 so each bundle's padding contains its
        # predecessor's, keeping the subset invariant
        chunk += [
            Prediction(Event(f"~pad{i}", INSERT), END_OF_HORIZON)
            for i in range(size - len(chunk))
        ]
        bundles.append(PredictionBundle(j, 1, tuple(chunk)))
    return bundles
