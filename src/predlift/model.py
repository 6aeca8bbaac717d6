"""Canonical event/prediction types and the l1 error metric between
predicted and realized update-time vectors.

Days are integers in [1, T].  Exactly one real event occurs per day.  A
prediction names a day for a future event.  Predictions whose event never
materializes, and events that were never predicted, are charged the full
horizon T by the error metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

INSERT = "I"
DELETE = "D"

# Day value standing for "at or beyond the end of the horizon".  Used for
# bundle padding and for events with no predicted day; excluded from the
# error metric and never scheduled inside [1, T].
END_OF_HORIZON = 10**9


@dataclass(frozen=True)
class Event:
    """An update on one element of the ground set.

    ``payload`` carries opaque problem data (edge endpoints and weight for
    graph problems, a value for the max problem); it travels with the event
    and is never interpreted by the framework itself.
    """

    element: str
    kind: str
    payload: tuple = ()

    def __post_init__(self):
        if self.kind not in (INSERT, DELETE):
            raise ValueError(f"event kind must be {INSERT!r} or {DELETE!r}, got {self.kind!r}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.element, self.kind)


@dataclass(frozen=True)
class Prediction:
    """A claimed day for an event, which carries its payload."""

    event: Event
    predicted_day: int

    @property
    def is_sentinel(self) -> bool:
        return self.predicted_day >= END_OF_HORIZON


@dataclass(frozen=True)
class PredictionBundle:
    """One element of a doubling chain of prediction sets.

    Bundle j+1 must contain bundle j and have exactly twice its cardinality;
    padding with end-of-horizon sentinel predictions is the sanctioned way
    to satisfy the cardinality rule without inventing information.
    """

    index: int
    delivery_day: int
    predictions: tuple[Prediction, ...] = field(default_factory=tuple)


class BundleViolation(ValueError):
    """First violated invariant of a bundle sequence, with its index."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"bundle {index}: {reason}")


def _bundle_key(p: Prediction) -> tuple:
    return (p.event.element, p.event.kind, p.predicted_day, p.event.payload)


def validate_bundle_sequence(bundles: Sequence[PredictionBundle]) -> bool:
    """Check subset, doubling, and no-backdated-prediction invariants.

    Raises BundleViolation naming the first offending bundle; returns True
    when all invariants hold.  Sentinel padding entries are exempt from the
    backdating check (they sit beyond every horizon by construction).
    """
    prev_keys: set | None = None
    prev_day = 0
    for b in bundles:
        keys = {_bundle_key(p) for p in b.predictions}
        if b.delivery_day < prev_day:
            raise BundleViolation(b.index, "delivered before its predecessor")
        if prev_keys is not None:
            if not prev_keys <= keys:
                raise BundleViolation(b.index, "does not contain its predecessor")
            if len(b.predictions) != 2 * prev_len:
                raise BundleViolation(
                    b.index, f"cardinality {len(b.predictions)} != 2 x {prev_len}"
                )
        for p in b.predictions:
            if not p.is_sentinel and p.predicted_day < b.delivery_day:
                raise BundleViolation(
                    b.index,
                    f"prediction for day {p.predicted_day} backdated before delivery "
                    f"day {b.delivery_day}",
                )
        prev_keys = keys
        prev_len = len(b.predictions)
        prev_day = b.delivery_day
    return True


def l1_error(
    predicted: Iterable[Prediction],
    realized: Iterable[tuple[Event, int]],
    T: int,
) -> int:
    """l1 distance between predicted and realized update times.

    Events are keyed by (element, kind).  Duplicated events under one key
    are matched by sorting both day multisets and pairing in order, which
    realizes the closest matching on a line.  Every unmatched event on
    either side contributes exactly T.  Sentinel-padded predictions are
    excluded entirely.
    """
    pred_days: dict[tuple[str, str], list[int]] = {}
    for p in predicted:
        if p.is_sentinel:
            continue
        pred_days.setdefault(p.event.key, []).append(p.predicted_day)
    real_days: dict[tuple[str, str], list[int]] = {}
    for ev, day in realized:
        real_days.setdefault(ev.key, []).append(day)

    total = 0
    for key in pred_days.keys() | real_days.keys():
        ps = sorted(pred_days.get(key, ()))
        rs = sorted(real_days.get(key, ()))
        total += _closest_matching_cost(ps, rs, T)
    return total


def _closest_matching_cost(ps: list[int], rs: list[int], T: int) -> int:
    """Minimum matching cost of two sorted day lists on the line, charging T
    per unmatched day.  Matching as many pairs as possible is always optimal
    (a pair costs < T, two strandings cost 2T), and the optimal max matching
    is order-preserving, so an alignment over the sorted lists suffices.
    With equal lengths this is exactly the sorted zip."""
    if len(ps) == len(rs):
        return sum(abs(a - b) for a, b in zip(ps, rs))
    small, large = (ps, rs) if len(ps) < len(rs) else (rs, ps)
    m, n = len(small), len(large)
    penalty = T * (n - m)
    if m == 0:
        return penalty
    inf = float("inf")
    prev = [0] * (n + 1)  # zero smalls matched costs nothing
    for i in range(1, m + 1):
        cur = [inf] * (n + 1)
        for j in range(i, n + 1):
            skip = cur[j - 1]
            pair = prev[j - 1] + abs(small[i - 1] - large[j - 1])
            cur[j] = pair if pair < skip else skip
        prev = cur
    return int(prev[n]) + penalty
