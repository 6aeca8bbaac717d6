"""The benchmark's own reference: every day's answer recomputed from the
true active set, and the input properties each workload must have.

Nothing here calls predlift's problem code or its oracles.  Answers are
built in the same shape the program returns them, so one digest of their
``repr`` compares a program output with a reference output:

- counter: the number of active elements
- connectivity: the connected components of the active edges, by BFS, as
  a sorted tuple of sorted vertex tuples
- msf: Kruskal under the (weight, edge id) order, as (weight, sorted ids)
- decmax: the largest active value, or None when nothing is active
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b

INSERT = "I"


def daily_answers(problem: str, stream) -> list:
    """One answer per day of ``stream``, a list of (day, event) pairs whose
    events carry ``element``, ``kind`` and ``payload``."""
    answer = _ANSWERS[problem]
    active: dict[str, tuple] = {}
    out = []
    for day, ev in stream:
        if ev.kind == INSERT:
            if ev.element in active:
                raise ValueError(f"day {day}: {ev.element} inserted while active")
            active[ev.element] = ev.payload
        else:
            if ev.element not in active:
                raise ValueError(f"day {day}: {ev.element} deleted while inactive")
            del active[ev.element]
        out.append(answer(active))
    return out


def _count(active):
    return len(active)


def _components(active):
    adj: dict[int, list[int]] = {}
    for u, v in active.values():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


def _spanning_forest(active):
    root: dict[int, int] = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    weight = 0
    picked = []
    for w, eid, u, v in sorted((p[2], el, p[0], p[1]) for el, p in active.items()):
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            weight += w
            picked.append(eid)
    return (weight, tuple(sorted(picked)))


def _max(active):
    return max((p[0] for p in active.values()), default=None)


_ANSWERS = {
    "counter": _count,
    "connectivity": _components,
    "msf": _spanning_forest,
    "decmax": _max,
}


def digest(answer) -> str:
    return blake2b(repr(answer).encode(), digest_size=8).hexdigest()


def bad_days(expected: list[str], outputs: list) -> list[int]:
    """Indices of the days whose output is missing or differs from the
    reference digest; outputs past the last reference day count as bad."""
    bad = [i for i, (want, got) in enumerate(zip(expected, outputs)) if digest(got) != want]
    shorter, longer = sorted((len(expected), len(outputs)))
    return bad + list(range(shorter, longer))


def l1_distance(predictions, stream, T: int) -> int:
    """l1 distance between predicted and realized days for a stream with one
    lifetime per element id: |predicted - real| per predicted event, and T
    for each event on only one side.  End-of-horizon sentinels (day >=
    10**9) are not predictions."""
    real = {}
    for day, ev in stream:
        key = (ev.element, ev.kind)
        if key in real:
            raise ValueError(f"{key} occurs twice in the stream")
        real[key] = day
    total = 0
    predicted = set()
    for p in predictions:
        if p.predicted_day >= 10**9:
            continue
        key = (p.event.element, p.event.kind)
        if key in predicted:
            raise ValueError(f"{key} is predicted twice")
        predicted.add(key)
        total += abs(p.predicted_day - real[key]) if key in real else T
    return total + T * len(real.keys() - predicted)
