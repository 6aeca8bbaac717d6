"""Wrap a worst-case incremental algorithm as a divide-and-conquer problem.

The algorithm is an ``IncrementalContract``: ``init``, ``insert``, ``clone``
and ``output(state)``.  ``LiftedIncremental`` turns it into the engine's
two-method problem: ``compute_window`` builds a window's state, and
``day_output`` returns ``output`` of a day's leaf state, which holds every
element active on that day.

An element is permanent for a window when it is inserted on or before the
window's first day, deleted after its last day, and not permanent for any
ancestor.  The windows an element is permanent for partition its lifetime;
dually, the windows containing a day partition the elements active on that
day.  A window's computation therefore just clones the parent state and
inserts the window's permanents, giving work update(A) per element.

``WindowCtx.permanents`` finds a window's permanents in one scan: each has
exactly one event that rules out the parent (for a left child, its
deletion inside the sibling; for any other window, its insertion inside
(parent start, own start], which for the root means on day 0 or 1).  A
window reads nothing else of the schedule but its permanents' payloads.

By induction from the root, a window's state holds exactly the elements
alive across it: inserted on or before its first day and deleted after its
last.  So the engine's repair walk recomputes a lifted window only when an
element moved today enters or leaves that set, judged from the element's
endpoint days before the day and after its moves; any other window keeps
its state, which holds the same elements and so answers as a fresh
compute would, even when its parent was rebuilt (``Engine.retrigger``).

No state changes after the compute that built it, since ``insert`` only
ever touches a fresh ``init`` or ``clone``.  So a window with no
permanents holds its parent's state object itself, at no cost: the
persistence by structure sharing of Driscoll, Sarnak, Sleator and Tarjan,
"Making data structures persistent", JCSS 1989.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:  # the engine imports this module
    from .engine import WindowCtx


class IncrementalContract(Protocol):
    """The pluggable worst-case incremental algorithm: four methods, and the
    answer depends on the state alone.  ``insert`` reads the first
    ``payload_fields`` fields of an element's payload.

    A state never changes after the window compute that built it: the
    lifted problem calls ``insert`` only on a state it has just made with
    ``init`` or ``clone``, and never again once the compute returns.  A
    window with no permanents therefore holds its parent's state object,
    which several windows may share; nothing may mutate a state outside
    ``insert``."""

    payload_fields: int

    def init(self) -> tuple[Any, int]:
        """Fresh empty state plus the units spent building it.  A state is
        never None: the engine reads None as a window not computed yet."""

    def insert(self, state: Any, element: str, payload: tuple) -> int:
        """Mutate state to include element; returns cost units spent, which
        must stay within the declared worst-case update bound."""

    def clone(self, state: Any) -> tuple[Any, int]:
        """Independent copy plus its size in units."""

    def output(self, state: Any) -> Any:
        """The answer for the elements inserted into ``state``."""


class LiftedIncremental:
    """c = 1 divide-and-conquer problem over an IncrementalContract; a
    window's memory is the contract state itself."""

    def __init__(self, contract: IncrementalContract):
        self.contract = contract
        self.payload_fields = contract.payload_fields

    def compute_window(self, ctx: WindowCtx, parent_memory: Any):
        """The root's state is a fresh ``init``; any other window's is a
        clone of its parent's, or, with no permanents to insert, its
        parent's state itself, charged nothing.  A contract with no
        ``payload_fields`` is handed ``()`` for every element, without a
        payload lookup."""
        permanents = ctx.permanents()
        if parent_memory is None:
            state, clone_units = self.contract.init()
        elif not permanents:
            return parent_memory, 0, 0
        else:
            state, clone_units = self.contract.clone(parent_memory)
        insert = self.contract.insert
        compute_units = 0
        if self.payload_fields:
            payload = ctx.payload
            for element in permanents:
                compute_units += insert(state, element, payload(element))
        else:
            for element in permanents:
                compute_units += insert(state, element, ())
        return state, compute_units, clone_units

    def day_output(self, leaf_memory: Any) -> Any:
        return self.contract.output(leaf_memory)


def lift_incremental(contract: IncrementalContract) -> LiftedIncremental:
    return LiftedIncremental(contract)
