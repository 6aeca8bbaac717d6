"""Lift a worst-case decremental algorithm to the predicted-insertion
model by reinterpreting it as an incremental algorithm over anti-elements.

An anti-element is present exactly while its element is absent: deleting e
from the real system inserts anti-e, inserting e deletes anti-e, and a
predicted insertion day for e is a predicted deletion day for anti-e.  The
anti-view is therefore a predicted-deletion instance and runs unchanged on
an engine given no predictions (which computes each window on its start
day), with all anti-elements of the predicted set S present before day 1.

Elements can be deleted and reinserted repeatedly; each absence interval of
e becomes a fresh anti-element instance ``e~k`` so the engine always sees
one lifetime per id.  Inserting an element outside S grows S, reruns the
decremental initialization from scratch at the root, and recomputes the
windows below it that can still be read (charged like an l1 error of T).
"""

from __future__ import annotations

from typing import Any, Protocol

from .engine import Engine, ScheduleBug, drain
from .model import DELETE, END_OF_HORIZON, INSERT, Event
from .incremental import lift_incremental


class DecrementalContract(Protocol):
    """The pluggable worst-case decremental algorithm: ``initialize`` on
    the whole predicted set, then ``delete``, ``clone`` and
    ``output(state)``, whose answer depends on the state alone.
    ``initialize`` gets the set as (element, value) pairs in the order its
    elements joined it: the predicted set's order, then each element
    admitted from outside it, in the order of admission: each element's
    value is the first field of its payload, of which the algorithm reads
    ``payload_fields``.  ``delete`` of an element not in the state (never
    in the set, or already deleted) raises ``ValueError``; its units must
    stay within the algorithm's worst-case deletion bound."""

    payload_fields: int

    def initialize(self, items: list[tuple[str, int]]) -> tuple[Any, int]: ...

    def delete(self, state: Any, element: str) -> int: ...

    def clone(self, state: Any) -> tuple[Any, int]: ...

    def output(self, state: Any) -> Any: ...


class _AntiContract:
    """IncrementalContract facade: inserting anti-e deletes e.  It holds the
    run's ``ground`` dict, which the run grows in place, and never the run:
    a reference back would make every run a cycle through its engine,
    freed only by the cyclic collector.  An anti-element carries no
    payload: its element's stays in ``ground``."""

    payload_fields = 0

    def __init__(self, contract: DecrementalContract, ground: dict[str, tuple]):
        self.contract = contract
        self.ground = ground

    def init(self):
        items = [(el, payload[0]) for el, payload in self.ground.items()]
        return self.contract.initialize(items)

    def insert(self, state, anti_element, payload):
        return self.contract.delete(state, anti_element.rsplit("~", 1)[0])

    def clone(self, state):
        return self.contract.clone(state)

    def output(self, state):
        return self.contract.output(state)


def _check_payload(contract: DecrementalContract, element: str, payload: tuple) -> None:
    if len(payload) < contract.payload_fields:
        raise ScheduleBug(
            f"element {element} carries payload {payload}, "
            f"the problem reads {contract.payload_fields} fields"
        )


class DecrementalRun:
    """Drives one predicted-insertion instance end to end.

    ``predicted_set`` lists (element, predicted_insertion_day, payload) for
    the elements announced at the outset; payload[0] is the element's value
    for the max problem (opaque to this adapter otherwise).  An element,
    announced or admitted from outside the set, whose payload has fewer
    than the contract's ``payload_fields`` fields is a ``ScheduleBug``, and
    so is an insertion whose payload differs in those fields from the one
    its element is known by (its predicted set line's or its first
    admission's), since the decremental algorithm was initialized with the
    known one; each is raised before the run changes any state.
    """

    def __init__(
        self,
        contract: DecrementalContract,
        predicted_set: list[tuple[str, int, tuple]],
        T: int,
        seed: int,
    ):
        for el, _, payload in predicted_set:
            _check_payload(contract, el, payload)
        self.contract = contract
        self.T = T
        self.ground: dict[str, tuple] = {el: payload for el, day, payload in predicted_set}
        self.generation: dict[str, int] = {el: 0 for el in self.ground}
        self.out_of_set_inserts = 0  # the theorem's K
        anti = _AntiContract(contract, self.ground)
        self.engine = Engine(lift_incremental(anti), T, seed)
        self.engine.preload_day0([self._anti(el) for el, _, _ in predicted_set])
        for el, day, _ in predicted_set:
            self.engine.schedule_deletion_prediction(self._anti(el), day)

    def _anti(self, element: str) -> str:
        return f"{element}~{self.generation[element]}"

    def process_day(self, day: int, ev: Event, reinsertion_day: int | None = None) -> Any:
        """Process the real event of ``day`` and return the day's answer.
        Every ``ScheduleBug`` (a day out of order, an insertion with a short
        payload or one other than its element's known payload, an insertion
        of a present element, a deletion of an absent one, or one the engine
        raises) is raised before the run or its engine changes any state."""
        self.engine.check_day(day)
        present = self._present(ev.element)
        if ev.kind == INSERT:
            if present:
                raise ScheduleBug(f"day {day}: insertion of present element {ev.element}")
            if ev.element in self.ground:
                need, known = self.contract.payload_fields, self.ground[ev.element]
                if ev.payload[:need] != known[:need]:
                    raise ScheduleBug(
                        f"day {day}: insertion of {ev.element} carries payload "
                        f"{ev.payload}, the element is known by {known}"
                    )
            else:
                _check_payload(self.contract, ev.element, ev.payload)
                self._admit_new_element(ev)
            anti = self._anti(ev.element)
            drain(self.engine.process_day(day, Event(anti, DELETE)))
        else:
            if not present:
                raise ScheduleBug(f"day {day}: deletion of absent element {ev.element}")
            self.generation[ev.element] += 1
            anti = self._anti(ev.element)
            pred = END_OF_HORIZON if reinsertion_day is None else reinsertion_day
            drain(
                self.engine.process_day(
                    day, Event(anti, INSERT), predicted_deletion_day=pred
                )
            )
        return self.engine.outputs[-1]

    def _present(self, element: str) -> bool:
        """Whether ``element`` is present: its anti-instance's deletion has happened."""
        if element not in self.ground:
            return False
        deleted = self.engine.schedule.del_day.get(self._anti(element))
        return deleted is not None and deleted <= self.engine.current_day

    def _admit_new_element(self, ev: Event) -> None:
        """Insertion outside S: grow the set, with the new element's
        anti-instance alive from day 0.  ``process_day`` then deletes it as
        a never-predicted event, which recomputes the root (reinitializing
        the decremental algorithm on the grown set) and below it only the
        windows containing today, the only ones still read."""
        self.ground[ev.element] = ev.payload
        self.generation[ev.element] = 0
        self.out_of_set_inserts += 1
        self.engine.preload_day0([self._anti(ev.element)])

    @property
    def outputs(self):
        return self.engine.outputs

    @property
    def counters(self):
        return self.engine.counters

