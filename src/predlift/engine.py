"""Day loop over a random partition tree: schedule maintenance, retrigger
recomputation, early/late event handlers, and work accounting.

The engine owns a live schedule giving each event lifetime endpoint one
day in 0..T+1, which has come exactly when the endpoint has happened.  Day
0 holds pre-horizon insertions (elements present before the stream
starts); day T+1 is the parking zone for predictions pushed past the
horizon, outside every window of the tree.  Exactly one real event arrives
per day in [1, T].

When a real event lands earlier than its prediction, the prediction is
pulled back to the real day; when a predicted event fails to materialize on
its day, it is pushed 2^i days ahead (doubling with each miss).  Either move
can change only the windows below the smallest window containing both of
its days that meet the days between them, so each move yields that span
of days.  Every span of a day holds today, so the spans' covering windows
all lie on the path from the root to today's leaf, and the highest of them
holds the others.  Once a day has moved its records, one repair walk
descends from that one covering window in preorder, each window after its
parent, and visits every window below it that meets a moved day: one that
has not ended and starts on or before the farthest day of any span.  A
window whose last day has passed keeps its last memory but is never
recomputed or read again, since a day's answer is read from its own leaf.
A window that starts after every moved day keeps its memory too: it still
answers its days, as the problem protocol requires.

A lifted incremental window's memory depends only on the set of elements
alive across it: inserted on or before its start and deleted after its
end.  So for such a problem the walk recomputes a visited window exactly
when some element moved today flips its membership of that set, compared
between its endpoint days before its first move of the day and its days
now (the flip rule), and descends through the others, keeping their
memories: repair work follows the alive-across sets the moves change,
which is what ties it to the l1 prediction error.  An MSF window also
reads the events inside it, so the walk recomputes every window it
visits.

All long-running entry points are generators that yield work-unit counts,
so an engine can be driven to completion in a tight loop or preempted after
any single unit (see the boosting module).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator

from .incremental import LiftedIncremental
from .model import DELETE, END_OF_HORIZON, INSERT, Event, Prediction
from .scheduling import SlotLine, fix_ordering
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


class Schedule:
    """Each event lifetime endpoint's day: ``ins_day``/``del_day`` map an
    element to it, and ``days[d]`` lists the ``(element, kind)`` keys on day
    d in arrival order.  An endpoint has happened exactly when its day is
    at most the engine's ``current_day``; until then its day is a
    prediction, pushed ahead ``misses[key]`` times so far.

    Each (element, kind) pair has at most one record: the framework tracks
    one lifetime per element id (reinsertions must be instanced by the
    caller; the decremental adapter does this)."""

    def __init__(self, T: int):
        self.T = T
        self.days: list[list[tuple[str, str]]] = [[] for _ in range(T + 2)]
        self.payloads: dict[str, tuple] = {}
        # the hot lookups of every window recompute
        self.ins_day: dict[str, int] = {}
        self.del_day: dict[str, int] = {}
        self.misses: dict[tuple[str, str], int] = {}

    def add(self, element: str, kind: str, day: int) -> None:
        days = self.ins_day if kind == INSERT else self.del_day
        if element in days:
            raise ScheduleBug(f"duplicate lifetime for {(element, kind)}")
        days[element] = day
        self.days[day].append((element, kind))

    def move(self, key: tuple[str, str], new_day: int) -> int:
        """Move the record ``key`` to ``new_day``; returns the day it left."""
        element, kind = key
        days = self.ins_day if kind == INSERT else self.del_day
        old_day = days[element]
        self.days[old_day].remove(key)
        self.days[new_day].append(key)
        days[element] = new_day
        return old_day


class WindowCtx:
    """What a window's computation may look at: its span ``start``..``end``,
    the elements permanent for it (``permanents``), current element
    lifetimes (``lifetime_maps``), and element payloads.  A context holds
    only what the tree fixes and the engine's schedule, so the engine
    builds one per window and keeps it.  It does not refer to the engine,
    so a kept context makes no reference cycle and a dropped engine (an old
    epoch's in ``boost_run``) is freed at once, not later by the cyclic
    collector inside some day's update."""

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

    def permanents(self) -> list[str]:
        """The elements permanent for this window, sorted: alive across it
        and not across its parent.  Each has exactly one record that keeps
        it from being permanent for the parent: it dies inside (own end,
        parent end] when this is a left child (one sharing the parent's
        first day), and is born inside (parent start, own start] otherwise.
        So one pass reads the DELETE records on days end+1 .. parent end
        of a left child, and the INSERT records on days parent start+1 ..
        start of any other window (days 0 .. 1 for the root, day 0 holding
        the pre-horizon insertions).  A record there already lies on the
        right side of its own end of the window, so only the element's
        other event is tested; an element never inserted reads as inserted
        after every window.  Each element has at most one record of each
        kind, so none repeats.  This scan runs for every window compute."""
        sched = self._schedule
        never = sched.T + 1
        days = sched.days[self._lo : self._hi + 1]
        if self._kind == INSERT:
            end, del_get = self.end, sched.del_day.get
            out = [
                el
                for keys in days
                for el, kind in keys
                if kind == INSERT and del_get(el, never) > end
            ]
        else:
            start, ins_get = self.start, sched.ins_day.get
            out = [
                el
                for keys in days
                for el, kind in keys
                if kind == DELETE and ins_get(el, never) <= start
            ]
        if len(out) > 1:
            out.sort()
        return out

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
        day_output(leaf_memory) -> the day's answer, read from its leaf's memory

    A leaf's memory answers its day, so only ``compute_window`` reads the
    schedule, and only through the ``WindowCtx`` it is handed: a window's
    permanent elements through ``permanents``, lifetimes through
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
    window keeps a union-find of another shape).  A ``LiftedIncremental``
    window (``lifted`` is set) answers for its alive-across set alone, so
    the walk also keeps one whose set no element moved today entered or
    left: that set is the same, so the kept memory still answers as a fresh
    one.

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
        # a lifted window's memory is its alive-across set; see ``retrigger``
        self.lifted = isinstance(problem, LiftedIncremental)
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
        # each element whose records moved or were added today, mapped to its
        # (insertion day, deletion day) before its first move of the day, T+1
        # for none; today's repair walk has not been handed it yet
        self.moves: dict[str, tuple[int, int]] = {}
        self.outputs: list[Any] = []

    # -- preprocessing -----------------------------------------------------

    def resume(self, history: list[tuple[int, Event]]) -> None:
        """Start a fresh engine after the realized events of days 1, 2, ...
        in ``history``: each goes into the schedule on its day, with its
        payload, and ``current_day`` becomes the last of those days.  The
        next ``ingest_predictions`` folds them in, so nothing is replayed
        and ``outputs`` start at the first live day.  Raises ``ScheduleBug``
        once the engine has started, or when the history is not a stream (a
        day out of order, a lifetime reused, a deletion of a never-inserted
        element) or holds an insertion whose payload is too short for the
        problem."""
        if self.current_day or self.memory[0] is not None:
            raise ScheduleBug("only a fresh engine can resume")
        need = self.problem.payload_fields
        for day, event in history:
            self.check_day(day)
            if event.kind == DELETE:
                if event.element not in self.schedule.ins_day:
                    raise ScheduleBug(f"day {day}: deletion of never-inserted {event.element}")
            elif len(event.payload) < need:
                raise ScheduleBug(_short_payload(f"day {day}: insertion", event, need))
            self.schedule.add(event.element, event.kind, day)
            if event.payload and event.kind == INSERT:
                self.schedule.payloads[event.element] = event.payload
            self.current_day = day

    def ingest_predictions(self, predictions: list[Prediction]) -> Iterator[int]:
        """Convert raw predictions into a feasible schedule (harmonic online
        matching plus the insert-before-delete ordering fix) and compute,
        in node-id order and so each parent before its children, every
        window that has not ended: the whole tree in a fresh engine.

        After ``resume``, the slot line first takes the past days, a
        prediction of a lifetime the history holds is dropped, and the
        ordering fix reads the past insertion days from the schedule, so a
        predicted deletion of an element inserted in the past is matched
        to that insertion, not parked past the horizon.  Each kept
        predicted insertion brings its payload; a ``ScheduleBug`` for a
        reused lifetime or a payload too short for the problem is raised
        before any state changes."""
        live = [p for p in predictions if not p.is_sentinel]
        seen = set()
        ins_day, del_day = self.schedule.ins_day, self.schedule.del_day
        need = self.problem.payload_fields
        for p in live:
            key = p.event.key
            if key in seen:
                raise ScheduleBug(f"prediction file reuses lifetime {key}")
            seen.add(key)
            if len(p.event.payload) < need and key[1] == INSERT and key[0] not in ins_day:
                raise ScheduleBug(_short_payload("predicted insertion", p.event, need))
        held = {INSERT: ins_day, DELETE: del_day}
        live = [p for p in live if p.event.element not in held[p.event.kind]]
        before = self._slotline.ops
        for day in range(1, self.current_day + 1):
            self._slotline.take(day)
        days = [self._slotline.assign_harmonic(p.predicted_day, self._rng) for p in live]
        days = fix_ordering(live, days, ins_day, self.T)
        ops = self._slotline.ops - before
        self.counters.scheduler_ops += ops
        yield max(1, ops)
        payloads = self.schedule.payloads
        for p, day in zip(live, days):
            ev = p.event
            self.schedule.add(ev.element, ev.kind, min(day, self.T + 1))
            if ev.payload and ev.kind == INSERT:
                payloads[ev.element] = ev.payload
        for nid in range(self.tree.n_nodes()):
            if self.tree.end[nid] > self.current_day:
                yield self._recompute(nid)

    def preload_day0(self, elements: list[str]) -> None:
        """Record elements present before day 1 (pre-horizon insertions,
        which have happened on day 0); used by the decremental adapter."""
        for element in elements:
            self.schedule.add(element, INSERT, 0)

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

    def _recompute(self, nid: int) -> int:
        """Compute window ``nid`` outside a repair walk (at ingest, or on
        its start day in an engine given no predictions), charged to
        ``preprocess_units``; returns the units to yield, at least one.
        It builds the window's context, which the repair walk reuses."""
        ctx = self.contexts[nid] = WindowCtx(self, nid)
        parent = self.tree.parent[nid]
        pmem = self.memory[parent] if parent != -1 else None
        mem, compute_units, clone_units = self.problem.compute_window(ctx, pmem)
        self.memory[nid] = mem
        units = compute_units + clone_units
        self.counters.window_compute_units += compute_units
        self.counters.clone_units += clone_units
        self.counters.preprocess_units += units
        return max(1, units)

    def retrigger(
        self, spans: list[tuple[int, int]], moves: dict[str, tuple[int, int]]
    ) -> Iterator[int]:
        """Repair the windows a day's moved records can have changed: each
        ``(lo, hi)`` span of days charges one retrigger call, and then one
        walk descends in preorder from the spans' one covering window.
        Every span holds today (``lo`` is today-1 or today, ``hi`` after
        today), so each span's covering window lies on the path from the
        root to today's leaf, and ``smallest_window(min lo, max hi)``, the
        highest of them, holds the others.  The walk visits every live
        window strictly below it that meets some moved day, once each and
        after its parent, so each reads its parent's fresh memory.  It calls
        the problem's ``compute_window`` itself and charges each
        recompute's units to ``retrigger_units``.

        Every span holds today, so a window meets a moved day exactly when
        it has not ended and starts on or before ``reach``, the farthest
        day of any span.  Once a window fails one of these tests, or is not
        live, every window below it does too, so the walk does not descend
        below it.  A window that ended before today
        keeps its last memory but is never read again.  A window that
        starts after ``reach`` keeps a memory that still answers its days:
        every moved record stayed before it, so it has the same elements
        alive across it and the same events inside it (the protocol's
        requirement in ``Engine``).

        ``moves`` maps each element whose records moved or were added today
        to its ``(insertion day, deletion day)`` before its first move of
        the day, T+1 meaning none.  For a lifted problem a visited window
        ``[s, e]`` is recomputed exactly when some such element flips: its
        ``ins <= s and del > e`` differs between those days and its days in
        the schedule now.  Only then can its alive-across set, and so its
        memory, have changed.  Any other visited window keeps its memory,
        is charged nothing, and the walk descends through it; when no
        element's days changed, the walk does not run.  A flipped
        window lies strictly below the covering window of the element's
        span: its start or end lies between the element's two days of one
        endpoint, which that span holds, widened one day left for an
        insertion.  Every other problem recomputes every window the walk
        visits.

        A span leaving ``[1, T]`` means the event left or entered the tree
        entirely, which invalidates the root as well: the walk starts at the
        root, and ``reach`` is T+1, so it visits every live window that has
        not ended.  An element alive across the root before the day (on
        day 0 or 1, never deleted) that has died by today is alive across
        no window the walk can visit, every one of which ends on or after
        today, so the walk recomputes them all without the per-window test.
        That is the decremental adapter's admission of an element outside
        its set, whose root reads the grown ground set."""
        tree, T, counters = self.tree, self.T, self.counters
        lo, reach = T + 1, 0
        for span_lo, span_hi in spans:
            counters.retrigger_calls += 1
            yield 1
            if span_lo < lo:
                lo = span_lo
            if span_hi > reach:
                reach = span_hi
        today = self.current_day
        recompute_all = not self.lifted
        flips = []
        if not recompute_all:
            never = T + 1
            ins_get, del_get = self.schedule.ins_day.get, self.schedule.del_day.get
            for element, (ins0, del0) in moves.items():
                ins1, del1 = ins_get(element, never), del_get(element, never)
                if ins0 <= 1 and del0 > T and del1 <= today:
                    recompute_all = True
                    break
                if (ins0, del0) != (ins1, del1):
                    flips.append((ins0, del0, ins1, del1))
            if not (recompute_all or flips):
                return
        memory, contexts = self.memory, self.contexts
        compute, parent = self.problem.compute_window, tree.parent
        start, end, left, right = tree.start, tree.end, tree.left, tree.right
        if lo < 1 or reach > T:
            first = (0,)
        else:
            top = tree.smallest_window(lo, reach)
            first = (right[top], left[top])
        # the stack holds only windows that are live, have not ended and start
        # on or before ``reach``: below a window failing one, every window does
        stack = []
        for nid in first:
            if memory[nid] is not None and end[nid] >= today and start[nid] <= reach:
                stack.append(nid)
        while stack:
            nid = stack.pop()
            flipped = recompute_all
            if not flipped:
                s, e = start[nid], end[nid]
                for ins0, del0, ins1, del1 in flips:
                    if (ins0 <= s and del0 > e) != (ins1 <= s and del1 > e):
                        flipped = True
                        break
            if flipped:
                p = parent[nid]
                # a live window's context was built at its first compute
                mem, compute_units, clone_units = compute(
                    contexts[nid], memory[p] if p != -1 else None
                )
                memory[nid] = mem
                units = compute_units + clone_units
                counters.window_compute_units += compute_units
                counters.clone_units += clone_units
                counters.retrigger_units += units
                yield max(1, units)
            l = left[nid]
            if l != -1:
                # a right child ends where its parent does and a left child
                # starts there, so each needs only the other day test
                r = right[nid]
                if start[r] <= reach and memory[r] is not None:
                    stack.append(r)
                if end[l] >= today and memory[l] is not None:
                    stack.append(l)

    # -- handlers ------------------------------------------------------------

    def process_event_earlier(self, key: tuple[str, str], t: int) -> tuple[int, int]:
        """Real event ``key`` on day t ahead of its prediction: note its
        element's endpoint days in ``self.moves`` (``_note_days``), then pull
        its record back to t.  Returns the span of days to repair: the move
        changes only windows below the span's covering window that meet its
        days, and no window starting after the old predicted day.

        The span runs one day further left when the moved record is an
        insertion: a window starting exactly at t tests "inserted on or
        before my first day" against the moved record, so its own
        computation can change even though its unordered event set did not.
        Widening the span makes every such window a strict descendant of the
        covering window.  (Deletion moves cannot flip a containing window's
        tests: both days stay inside its span, hence at or before its end.)"""
        self._note_days(key[0])
        t_predict = self.schedule.move(key, t)
        return (t - 1 if key[1] == INSERT else t), t_predict

    def process_event_later(self, key: tuple[str, str], t: int) -> tuple[int, int]:
        """Predicted event ``key`` missed its day t: push it 2^i days ahead
        on its i-th miss, and drag its element's deletion, which cannot have
        happened either, onto the new day when it lies before it, to keep
        insert-before-delete.  The element's endpoint days are noted in
        ``self.moves`` first (``_note_days``), so the dragged deletion needs
        no note of its own.  Returns the span of days to repair, widened for
        an insertion as in ``process_event_earlier``: the moves change only
        windows below the span's covering window that meet its days, none
        starting after the new day.

        A push past the horizon clamps to day T while earlier days remain
        (the real event, if any, will find it there at cost proportional to
        the remaining gap, which the doubling keeps within twice the
        original error).  Only a miss on day T itself proves the prediction
        will never realize; then the record parks outside the tree at T+1,
        work charged like the l1 cost T of an unmatched prediction."""
        sched = self.schedule
        misses = sched.misses[key] = sched.misses.get(key, 0) + 1
        self.counters.reschedules += 1
        target = t + (1 << misses)
        if target > self.T:
            target = self.T if t < self.T else self.T + 1
        element, kind = key
        self._note_days(element)
        sched.move(key, target)
        if kind == INSERT and sched.del_day.get(element, target) < target:
            dkey = (element, DELETE)
            sched.move(dkey, target)
            sched.misses[dkey] = sched.misses.get(dkey, 0) + 1
            self.counters.reschedules += 1
        return (t - 1 if kind == INSERT else t), target

    def _note_days(self, element: str) -> None:
        """Record in ``self.moves`` the element's (insertion day, deletion
        day), T+1 for none, unless today already did: the days before its
        first move of the day, against which the walk's flip rule tests its
        days after."""
        if element not in self.moves:
            sched, never = self.schedule, self.T + 1
            self.moves[element] = (
                sched.ins_day.get(element, never),
                sched.del_day.get(element, never),
            )

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

        The event's record moves to (or, never predicted, is added on)
        today, the only record of today that has happened; every other one
        is pushed ahead, and one walk repairs the moves' spans.

        An insertion carrying ``predicted_deletion_day`` is recorded on
        today and its deletion scheduled online, with no retrigger: in an
        engine given no predictions every live window starts before today,
        so a lifted incremental problem has none holding the new element.
        Where that does not hold (today's leaf is already live because the
        engine ingested predictions, or the problem's windows depend on
        more than their permanents) the insertion is a ``ScheduleBug``.

        After day 1 the root must be live: an engine that ``resume``d and
        never ingested predictions has no windows above today's to build
        on, so its days are a ``ScheduleBug`` too."""
        element, kind = event.element, event.kind
        key = (element, kind)
        online = predicted_deletion_day is not None and kind == INSERT
        sched = self.schedule
        # today's record, if any: a day before today means it has happened
        scheduled = (sched.ins_day if kind == INSERT else sched.del_day).get(element)
        need = self.problem.payload_fields
        self.check_day(day)
        if day > 1 and self.memory[0] is None:
            raise ScheduleBug(f"day {day}: no live root (a resumed engine must ingest first)")
        if kind == DELETE:
            inserted = sched.ins_day.get(element)
            if inserted is None or inserted >= day:
                raise ScheduleBug(f"day {day}: deletion of never-inserted {element}")
        elif len(event.payload) < need:
            raise ScheduleBug(_short_payload(f"day {day}: insertion", event, need))
        elif (
            scheduled is not None
            and scheduled >= day
            and event.payload != (predicted := sched.payloads.get(element, ()))
            and event.payload[:need] != predicted[:need]
        ):
            raise ScheduleBug(
                f"day {day}: insertion of {element} carries payload {event.payload}, "
                f"its prediction {predicted}"
            )
        elif online and not self.lifted:
            raise ScheduleBug(
                f"day {day}: online insertion of {element} needs a lifted "
                "incremental problem"
            )
        elif online and self.memory[self.tree.leaf_of[day]] is not None:
            raise ScheduleBug(
                f"day {day}: online insertion of {element} into an engine "
                "that ingested predictions"
            )
        if scheduled is not None and online:
            raise ScheduleBug(f"element {element} inserted twice")
        if scheduled is not None and scheduled < day:
            raise ScheduleBug(f"lifetime of {key} reused on day {day}")
        self.current_day = day
        self.counters.day_overhead += 1
        yield 1
        if event.payload and kind == INSERT:
            sched.payloads[element] = event.payload

        spans = []
        if online:
            sched.add(element, INSERT, day)
            self.schedule_deletion_prediction(element, predicted_deletion_day)
            yield 1
        elif scheduled is None:
            # never predicted: default prediction at the end of the horizon
            self._note_days(element)
            sched.add(element, kind, day)
            spans.append((day, self.T + 1))
        elif day < scheduled:
            spans.append(self.process_event_earlier(key, day))

        # snapshot, then push ahead every record of today but today's event,
        # none of which has happened; a deletion its insertion's push dragged
        # ahead has left today and is not pushed again
        today = sched.days[day]
        batch = list(today)
        if len(batch) > self.counters.batch_max:
            self.counters.batch_max = len(batch)
        for other in batch:
            if other != key and other in today:
                spans.append(self.process_event_later(other, day))
                yield 1
        if spans:
            # a day that moves nothing allocates nothing for its moves
            moves, self.moves = self.moves, {}
            yield from self.retrigger(spans, moves)

        if self.memory[self.tree.leaf_of[day]] is None:
            for nid in self.tree.windows_starting_at(day):
                yield self._recompute(nid)

        self.outputs.append(self.day_output_value(day))

    # -- outputs ----------------------------------------------------------------

    def day_output_value(self, day: int) -> Any:
        nid = self.tree.leaf_of[day]
        if self.memory[nid] is None:
            raise ScheduleBug(f"leaf for day {day} never computed")
        return self.problem.day_output(self.memory[nid])


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
