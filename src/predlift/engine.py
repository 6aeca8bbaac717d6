"""Day loop over a random partition tree: schedule maintenance, retrigger
recomputation, early/late event handlers, and work accounting.

The engine owns a live schedule of records (one per event lifetime) spread
over days 0..T+1.  Day 0 holds pre-horizon insertions (elements present
before the stream starts); day T+1 is the parking zone for predictions
pushed past the horizon, outside every window of the tree.  Exactly one
real event arrives per day in [1, T].

When a real event lands earlier than its prediction, the prediction is
pulled back to the real day; when a predicted event fails to materialize on
its day, it is pushed 2^i days ahead (doubling with each miss).  Either move
can change only the windows below the smallest window containing both of
its days that meet the days between them, so each move yields that span
of days.  Once a day has moved its records, one repair walk recomputes,
each at most once and after its parent, every window below the spans'
covering windows that meets a moved day: one that has not ended and starts
on or before the farthest day of any span.  The walk never touches windows
whose unordered event set is unchanged, which is what ties total work to
the l1 prediction error.  A window whose last day has passed keeps its last
memory but is never recomputed or read again, since a day's answer is read
from its own leaf.  A window that starts after every moved day keeps its
memory too: it still answers its days, as the problem protocol requires.

All long-running entry points are generators that yield work-unit counts,
so an engine can be driven to completion in a tight loop or preempted after
any single unit (see the boosting module).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Iterator

from .incremental import LiftedIncremental
from .model import DELETE, END_OF_HORIZON, INSERT, Event, Prediction
from .scheduling import Assignment, SlotLine, fix_ordering
from .timetree import PartitionTree


class ScheduleBug(RuntimeError):
    """The realized stream contradicts schedule invariants (duplicate
    lifetime, deletion without insertion, out-of-order day)."""


@dataclass
class WorkCounters:
    """Instrumentation totals.  All counters are monotone; the split between
    preprocess_units and retrigger_units buckets window compute and clone
    work by whether a window was being computed for the first time (at
    ingest, or on its start day in an engine given no predictions) or
    recomputed by a retrigger."""

    window_compute_units: int = 0
    clone_units: int = 0
    retrigger_calls: int = 0
    reschedules: int = 0
    scheduler_ops: int = 0
    preprocess_units: int = 0
    retrigger_units: int = 0
    day_overhead: int = 0
    batch_max: int = 0
    depth: int = 0

    def total_units(self) -> int:
        return (
            self.window_compute_units
            + self.clone_units
            + self.scheduler_ops
            + self.reschedules
            + self.retrigger_calls
            + self.day_overhead
        )

    def as_dict(self) -> dict[str, int]:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["total_units"] = self.total_units()
        return d

    def format_block(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.as_dict().items())


class Rec:
    """One scheduled event lifetime endpoint (mutable engine-internal)."""

    __slots__ = ("element", "kind", "day", "i", "realized")

    def __init__(self, element: str, kind: str, day: int, realized: bool = False):
        self.element = element
        self.kind = kind
        self.day = day
        self.i = 0
        self.realized = realized

    def __repr__(self):
        flag = "real" if self.realized else f"pred i={self.i}"
        return f"<{self.element} {self.kind} @{self.day} {flag}>"


class Schedule:
    """Day-indexed event records plus per-(element, kind) lookup.

    Each (element, kind) pair has at most one record: the framework tracks
    one lifetime per element id (reinsertions must be instanced by the
    caller; the decremental adapter does this)."""

    def __init__(self, T: int):
        self.T = T
        self.days: list[list[Rec]] = [[] for _ in range(T + 2)]
        self.by_key: dict[tuple[str, str], Rec] = {}
        self.payloads: dict[str, tuple] = {}
        # element -> current scheduled day, kept in lockstep with the
        # records; these are the hot lookups of every window recompute
        self.ins_day: dict[str, int] = {}
        self.del_day: dict[str, int] = {}

    def add(self, element: str, kind: str, day: int, realized: bool = False) -> Rec:
        key = (element, kind)
        if key in self.by_key:
            raise ScheduleBug(f"duplicate lifetime for {key}")
        rec = Rec(element, kind, day, realized)
        self.by_key[key] = rec
        self.days[min(day, self.T + 1)].append(rec)
        (self.ins_day if kind == INSERT else self.del_day)[element] = day
        return rec

    def move(self, rec: Rec, new_day: int) -> None:
        self.days[min(rec.day, self.T + 1)].remove(rec)
        rec.day = new_day
        self.days[min(new_day, self.T + 1)].append(rec)
        (self.ins_day if rec.kind == INSERT else self.del_day)[rec.element] = new_day


class WindowCtx:
    """What a window's computation may look at: its span ``start``..``end``,
    the records that can make an element permanent for it
    (``permanent_candidates``), current element lifetimes
    (``lifetime_maps``), and element payloads.  A context holds only what
    the tree fixes and the engine's schedule, so the engine builds one per
    window and keeps it.  It does not refer to the engine, so a kept
    context makes no reference cycle and a dropped engine (an old epoch's
    in ``boost_run``) is freed at once, not later by the cyclic collector
    inside some day's update."""

    __slots__ = ("_schedule", "start", "end", "_kind", "_lo", "_hi")

    def __init__(self, engine: "Engine", nid: int):
        tree = engine.tree
        self._schedule = engine.schedule
        self.start = tree.start[nid]
        self.end = tree.end[nid]
        p = tree.parent[nid]
        if p == -1:
            self._kind, self._lo, self._hi = INSERT, 0, self.start
        elif tree.start[p] == self.start:
            self._kind, self._lo, self._hi = DELETE, self.end + 1, tree.end[p]
        else:
            self._kind, self._lo, self._hi = INSERT, tree.start[p] + 1, self.start

    def permanent_candidates(self) -> list[Rec]:
        """Records among which every permanent element of this window has
        exactly one: the event that keeps it from being permanent for the
        parent.  An element alive across this window but not across its
        parent dies inside (own end, parent end] when this is a left child
        (one sharing the parent's first day), and is born inside (parent
        start, own start] otherwise.  So a left child gets the DELETE
        records on days end+1 .. parent end, and any other window the
        INSERT records on days parent start+1 .. start; the root gets days
        0 .. 1, day 0 holding the pre-horizon insertions.  Each element has
        at most one record of each kind, so none repeats."""
        kind = self._kind
        days = self._schedule.days[self._lo : self._hi + 1]
        return [rec for recs in days for rec in recs if rec.kind == kind]

    def lifetime_maps(self) -> tuple[dict[str, int], dict[str, int], int]:
        """(insertion days, deletion days, day meaning never-deleted).  An
        element is active on day t iff it has an insertion day ins and
        ins <= t < its deletion day, which defaults to the third value."""
        sched = self._schedule
        return sched.ins_day, sched.del_day, sched.T + 1

    def payload(self, element: str) -> tuple:
        return self._schedule.payloads.get(element, ())


class Engine:
    """Fully dynamic run of a divide-and-conquer problem under predictions.

    ``problem`` provides one attribute and two methods::

        payload_fields -> how many payload fields the problem reads of an insertion
        compute_window(ctx, parent_memory) -> (memory, compute_units, clone_units)
                                              parent_memory is None for the root
        day_output(leaf_memory, ctx) -> the day's answer, read from its leaf

    Both methods read the schedule only through the ``WindowCtx`` they are
    handed: records through ``permanent_candidates``, lifetimes through
    ``lifetime_maps`` and an element's payload through ``payload``.  An
    insertion's payload travels with it: a predicted insertion's on its
    prediction, a realized one's on the day's event, a past one's on the
    event ``resume`` folds in.  An insertion whose payload has fewer than
    ``payload_fields`` fields is a ``ScheduleBug``, and so is a realized
    insertion whose payload differs from its prediction's in those fields,
    since the windows computed at ingest already read the predicted ones;
    each is raised before any state changes.

    What a window's memory answers, for its own days and as its children's
    parent memory, must depend only on the elements alive across the window
    and the events inside it.  A repair walk does not recompute a window
    that no moved record reaches, even when it recomputes its parent, so
    the kept memory, built from the parent's old memory, must still answer
    as a fresh compute would, though it may differ in form (a connectivity
    window keeps a union-find of another shape).

    ``memory[nid]`` holds a window's computed memory, or None while the
    window is not live, and ``contexts[nid]`` the window's ``WindowCtx``,
    built at its first compute.  A window is live from its first compute
    on, and only live windows whose last day has not passed and that a
    moved record reaches are recomputed; an ended window keeps its last
    memory, which nothing reads.  Ingesting predictions computes every
    window that has not ended, which in a fresh engine is the whole tree;
    in an engine given none, each window goes live on its start day.
    Insertions that arrive carrying a predicted deletion day (the
    deletion-predicted and decremental settings) are for the latter, and
    only for a ``LiftedIncremental`` problem.  An engine that ``resume``s
    after a realized history starts on the day after it, and its
    ``outputs`` start at that first live day.
    """

    def __init__(
        self,
        problem,
        T: int,
        seed: int,
        payload_registry: dict[str, tuple] | None = None,
    ):
        """``payload_registry`` (element -> payload) has no effect: every
        payload a window reads is overridden by the one its insertion
        carries (a kept prediction's, a realized or resumed event's).  Its
        one caller is the benchmark's ``PredictedRun.setup``
        (``perfbench/workloads.py``); the parameter goes once that caller
        stops passing it."""
        self.problem = problem
        self.T = T
        self.counters = WorkCounters()
        self.schedule = Schedule(T)
        if payload_registry:
            self.schedule.payloads.update(payload_registry)
        self.tree = PartitionTree.build(T, seed ^ 0x5EED)
        self.counters.depth = self.tree.depth
        self.memory: list[Any] = [None] * self.tree.n_nodes()
        self.contexts: list[WindowCtx | None] = [None] * self.tree.n_nodes()
        self._rng = random.Random(seed)
        self._slotline = SlotLine(T)
        self.current_day = 0
        self.outputs: list[Any] = []

    # -- preprocessing -----------------------------------------------------

    def resume(self, history: list[tuple[int, Event]]) -> None:
        """Start a fresh engine after the realized events of days 1, 2, ...
        in ``history``: each goes into the schedule as a realized record on
        its day, with its payload, and ``current_day`` becomes the last of
        those days.  The next ``ingest_predictions`` folds them in, so
        nothing is replayed and ``outputs`` start at the first live day.
        Raises ``ScheduleBug`` once the engine has started, or when the
        history is not a stream (a day out of order, a lifetime reused, a
        deletion of a never-inserted element) or holds an insertion whose
        payload is too short for the problem."""
        if self.current_day or self.memory[0] is not None:
            raise ScheduleBug("only a fresh engine can resume")
        need = self.problem.payload_fields
        for day, event in history:
            self.check_day(day)
            if event.kind == DELETE:
                if (event.element, INSERT) not in self.schedule.by_key:
                    raise ScheduleBug(f"day {day}: deletion of never-inserted {event.element}")
            elif len(event.payload) < need:
                raise ScheduleBug(_short_payload(f"day {day}: insertion", event, need))
            self.schedule.add(event.element, event.kind, day, realized=True)
            if event.payload and event.kind == INSERT:
                self.schedule.payloads[event.element] = event.payload
            self.current_day = day

    def ingest_predictions(self, predictions: list[Prediction]) -> Iterator[int]:
        """Convert raw predictions into a feasible schedule (harmonic online
        matching plus the insert-before-delete ordering fix) and compute,
        in node-id order and so each parent before its children, every
        window that has not ended: the whole tree in a fresh engine.

        After ``resume``, the slot line first takes the past days, a
        prediction of a lifetime the history realized is dropped, and the
        realized insertions go into the ordering fix as exact predictions
        of themselves, so a predicted deletion of an element inserted in
        the past is matched to that insertion, not parked past the
        horizon.  Each kept predicted insertion brings its payload; a
        ``ScheduleBug`` for a reused lifetime or a payload too short for
        the problem is raised before any state changes."""
        live = [p for p in predictions if not p.is_sentinel]
        seen = set()
        by_key = self.schedule.by_key
        need = self.problem.payload_fields
        for p in live:
            key = p.event.key
            if key in seen:
                raise ScheduleBug(f"prediction file reuses lifetime {key}")
            seen.add(key)
            if len(p.event.payload) < need and key[1] == INSERT and key not in by_key:
                raise ScheduleBug(_short_payload("predicted insertion", p.event, need))
        live = [p for p in live if p.event.key not in by_key]
        past = [Prediction(Event(el, INSERT), day) for el, day in self.schedule.ins_day.items()]
        before = self._slotline.ops
        for day in range(1, self.current_day + 1):
            self._slotline.take(day)
        days = [self._slotline.assign_harmonic(p.predicted_day, self._rng) for p in live]
        assignment = fix_ordering(
            Assignment(past + live, [p.predicted_day for p in past] + days, self.T)
        )
        ops = self._slotline.ops - before
        self.counters.scheduler_ops += ops
        yield max(1, ops)
        payloads = self.schedule.payloads
        for p, day in zip(live, assignment.days[len(past) :]):
            ev = p.event
            self.schedule.add(ev.element, ev.kind, min(day, self.T + 1))
            if ev.payload and ev.kind == INSERT:
                payloads[ev.element] = ev.payload
        for nid in range(self.tree.n_nodes()):
            if self.tree.end[nid] > self.current_day:
                yield self._recompute(nid, "preprocess")

    def preload_day0(self, elements: list[str]) -> None:
        """Record elements present before day 1 (realized pre-horizon
        insertions); used by the decremental adapter."""
        for element in elements:
            self.schedule.add(element, INSERT, 0, realized=True)

    def schedule_deletion_prediction(self, element: str, requested_day: int) -> int:
        """Assign a predicted deletion day online against the persistent
        slot line.  A slot earlier than the element's insertion day is moved
        onto the insertion day; a slot past the horizon parks at T+1."""
        before = self._slotline.ops
        if requested_day >= END_OF_HORIZON:
            slot = self.T + 1
        else:
            slot = self._slotline.assign_harmonic(requested_day, self._rng)
            if slot > self.T:
                slot = self.T + 1
        ins_day = self.schedule.ins_day.get(element)
        if ins_day is not None and slot < ins_day:
            slot = ins_day
        self.schedule.add(element, DELETE, slot)
        self.counters.scheduler_ops += self._slotline.ops - before
        return slot

    # -- recomputation ------------------------------------------------------

    def _recompute(self, nid: int, bucket: str) -> int:
        ctx = self.contexts[nid]
        if ctx is None:
            ctx = self.contexts[nid] = WindowCtx(self, nid)
        parent = self.tree.parent[nid]
        pmem = self.memory[parent] if parent != -1 else None
        mem, compute_units, clone_units = self.problem.compute_window(ctx, pmem)
        self.memory[nid] = mem
        units = compute_units + clone_units
        self.counters.window_compute_units += compute_units
        self.counters.clone_units += clone_units
        if bucket == "preprocess":
            self.counters.preprocess_units += units
        else:
            self.counters.retrigger_units += units
        return max(1, units)

    def retrigger(self, spans: list[tuple[int, int]]) -> Iterator[int]:
        """Repair the windows a day's moved records can have changed: each
        ``(lo, hi)`` span of days charges one retrigger call, and then every
        live descendant of the smallest window holding a span's two days
        that meets some moved day is recomputed once, in node-id order.
        A parent's id is smaller than its children's, so every window reads
        its parent's fresh memory, and a window below several spans is
        recomputed once however many of them reach it.

        Every span holds today, so a window meets a moved day exactly when
        it has not ended and starts on or before ``reach``, the farthest
        day of any span.  The walk stops at a window that fails this, as
        every window below it does too.  A window that ended before today
        keeps its last memory but is never read again.  A window that
        starts after ``reach`` keeps a memory that still answers its days:
        every moved record stayed before it, so it has the same elements
        alive across it and the same events inside it (the protocol's
        requirement in ``Engine``).

        A span leaving ``[1, T]`` means the event left or entered the tree
        entirely, which invalidates the root as well: the walk starts at the
        root, and ``reach`` is T+1, so it covers every live window below it
        that has not ended."""
        tree = self.tree
        heap = []
        for lo, hi in spans:
            self.counters.retrigger_calls += 1
            yield 1
            if hi > self.T or lo < 1:
                heap.append(0)
            else:
                top = tree.smallest_window(lo, hi)
                if tree.left[top] != -1:
                    heap += (tree.left[top], tree.right[top])
        reach = max(hi for _, hi in spans)
        heapify(heap)
        last = None
        while heap:
            nid = heappop(heap)
            # a window several spans reach pops once for each, in a row; below
            # a window not yet live, already ended or starting after every
            # moved day, every window is too
            if (
                nid == last
                or self.memory[nid] is None
                or tree.end[nid] < self.current_day
                or tree.start[nid] > reach
            ):
                continue
            last = nid
            yield self._recompute(nid, bucket="retrigger")
            if tree.left[nid] != -1:
                heappush(heap, tree.left[nid])
                heappush(heap, tree.right[nid])

    # -- handlers ------------------------------------------------------------

    def process_event_earlier(self, rec: Rec, t: int) -> tuple[int, int]:
        """Real event on day t ahead of its prediction: pull the record back
        to t as a real event.  Returns the span of days to repair: the
        move changes only windows below the span's covering window that
        meet its days, and no window starting after the old predicted day.

        The span runs one day further left when the moved record is an
        insertion: a window starting exactly at t tests "inserted on or
        before my first day" against the moved record, so its own
        computation can change even though its unordered event set did not.
        Widening the span makes every such window a strict descendant of the
        covering window.  (Deletion moves cannot flip a containing window's
        tests: both days stay inside its span, hence at or before its end.)"""
        t_predict = rec.day
        self.schedule.move(rec, t)
        rec.realized = True
        return (t - 1 if rec.kind == INSERT else t), t_predict

    def process_event_later(self, rec: Rec, t: int) -> tuple[int, int]:
        """Predicted event missed its day: push it 2^i days ahead (doubling
        per miss) and drag any earlier predicted deletion of the same
        element along to keep insert-before-delete.  Returns the span of
        days to repair, widened for an insertion as in
        ``process_event_earlier``: the moves change only windows below the
        span's covering window that meet its days, none starting after the
        new day.

        A push past the horizon clamps to day T while earlier days remain
        (the real event, if any, will find it there at cost proportional to
        the remaining gap, which the doubling keeps within twice the
        original error).  Only a miss on day T itself proves the prediction
        will never realize; then the record parks outside the tree at T+1,
        work charged like the l1 cost T of an unmatched prediction."""
        rec.i += 1
        self.counters.reschedules += 1
        target = t + (1 << rec.i)
        if target > self.T:
            target = self.T if t < self.T else self.T + 1
        self.schedule.move(rec, target)
        if rec.kind == INSERT:
            dl = self.schedule.by_key.get((rec.element, DELETE))
            if dl is not None and not dl.realized and dl.day < target:
                self.schedule.move(dl, target)
                dl.i += 1
                self.counters.reschedules += 1
        return (t - 1 if rec.kind == INSERT else t), target

    # -- day loop -------------------------------------------------------------

    def check_day(self, day: int) -> None:
        """Raise ``ScheduleBug`` unless ``day`` is the next day of the horizon."""
        if day != self.current_day + 1 or day > self.T:
            raise ScheduleBug(
                f"day {day} out of order (expected {self.current_day + 1}, horizon {self.T})"
            )

    def process_day(
        self, day: int, event: Event, predicted_deletion_day: int | None = None
    ) -> Iterator[int]:
        """Process the real event of ``day``.  Every ``ScheduleBug`` is raised
        before any state changes, so a rejected day leaves the engine as it
        was and the right day can be fed next.

        An insertion carrying ``predicted_deletion_day`` is recorded as
        realized and its deletion scheduled online, with no retrigger: in an
        engine given no predictions every live window starts before today,
        so a lifted incremental problem has none holding the new element.
        Where that does not hold (today's leaf is already live because the
        engine ingested predictions, or the problem's windows depend on
        more than their permanents) the insertion is a ``ScheduleBug``.

        After day 1 the root must be live: an engine that ``resume``d and
        never ingested predictions has no windows above today's to build
        on, so its days are a ``ScheduleBug`` too."""
        online = predicted_deletion_day is not None and event.kind == INSERT
        rec = self.schedule.by_key.get(event.key)
        need = self.problem.payload_fields
        self.check_day(day)
        if day > 1 and self.memory[0] is None:
            raise ScheduleBug(f"day {day}: no live root (a resumed engine must ingest first)")
        if event.kind == DELETE:
            ins = self.schedule.by_key.get((event.element, INSERT))
            if ins is None or not ins.realized:
                raise ScheduleBug(f"day {day}: deletion of never-inserted {event.element}")
        elif len(event.payload) < need:
            raise ScheduleBug(_short_payload(f"day {day}: insertion", event, need))
        elif (
            rec is not None
            and not rec.realized
            and event.payload != (predicted := self.schedule.payloads.get(event.element, ()))
            and event.payload[:need] != predicted[:need]
        ):
            raise ScheduleBug(
                f"day {day}: insertion of {event.element} carries payload {event.payload}, "
                f"its prediction {predicted}"
            )
        elif online and not isinstance(self.problem, LiftedIncremental):
            raise ScheduleBug(
                f"day {day}: online insertion of {event.element} needs a lifted "
                "incremental problem"
            )
        elif online and self.memory[self.tree.leaf_of[day]] is not None:
            raise ScheduleBug(
                f"day {day}: online insertion of {event.element} into an engine "
                "that ingested predictions"
            )
        if rec is not None and online:
            raise ScheduleBug(f"element {event.element} inserted twice")
        if rec is not None and rec.realized:
            raise ScheduleBug(f"lifetime of {event.key} reused on day {day}")
        if rec is not None and rec.day < day:
            raise ScheduleBug(f"stale prediction {rec!r} survived past its day")
        self.current_day = day
        self.counters.day_overhead += 1
        yield 1
        if event.payload and event.kind == INSERT:
            self.schedule.payloads[event.element] = event.payload

        spans = []
        if online:
            self.schedule.add(event.element, INSERT, day, realized=True)
            self.schedule_deletion_prediction(event.element, predicted_deletion_day)
            yield 1
        elif rec is None:
            # never predicted: default prediction at the end of the horizon
            self.schedule.add(event.element, event.kind, day, realized=True)
            spans.append((day, self.T + 1))
        elif day < rec.day:
            spans.append(self.process_event_earlier(rec, day))
        else:
            rec.realized = True

        # snapshot, then reschedule every unrealized prediction of this day
        batch = list(self.schedule.days[day])
        if len(batch) > self.counters.batch_max:
            self.counters.batch_max = len(batch)
        for r in batch:
            if not r.realized:
                spans.append(self.process_event_later(r, day))
                yield 1
        if spans:
            yield from self.retrigger(spans)

        if self.memory[self.tree.leaf_of[day]] is None:
            for nid in self.tree.windows_starting_at(day):
                yield self._recompute(nid, "preprocess")

        self.outputs.append(self.day_output_value(day))

    # -- outputs ----------------------------------------------------------------

    def day_output_value(self, day: int) -> Any:
        nid = self.tree.leaf_of[day]
        if self.memory[nid] is None:
            raise ScheduleBug(f"leaf for day {day} never computed")
        return self.problem.day_output(self.memory[nid], self.contexts[nid])


def _short_payload(what: str, event: Event, need: int) -> str:
    return (
        f"{what} of {event.element} carries payload {event.payload}, "
        f"the problem reads {need} fields"
    )


def drain(gen: Iterator[int]) -> int:
    """Run a unit-yielding generator to completion; returns units seen."""
    total = 0
    for units in gen:
        total += units
    return total


def run_predicted(
    problem,
    T: int,
    predictions: list[Prediction],
    stream: list[tuple[int, Event]],
    seed: int,
) -> Engine:
    """Convenience driver: preprocess, then process the whole stream."""
    eng = Engine(problem, T, seed)
    drain(eng.ingest_predictions(predictions))
    for day, ev in stream:
        drain(eng.process_day(day, ev))
    return eng


def run_offline(problem, T: int, stream: list[tuple[int, Event]], seed: int) -> Engine:
    """Pure offline divide-and-conquer run: the realized stream is its own
    exact prediction, payloads included, so no handler fires and the tree
    is computed once."""
    predictions = [Prediction(ev, day) for day, ev in stream]
    return run_predicted(problem, T, predictions, stream, seed)
