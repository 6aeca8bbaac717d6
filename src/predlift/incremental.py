"""Wrap a worst-case incremental algorithm as a divide-and-conquer problem.

The algorithm is an ``IncrementalContract``: ``init``, ``insert``, ``clone``
and ``output(state)``.  ``LiftedIncremental`` turns it into the engine's
two-method problem: ``compute_window`` builds a window's state, and
``day_output`` reads the answer from the current day's leaf state.

An element is permanent for a window when it is inserted on or before the
window's first day, deleted after its last day, and not permanent for any
ancestor.  The windows an element is permanent for partition its lifetime;
dually, the windows containing a day partition the elements active on that
day.  A window's computation therefore just clones the parent state and
inserts the window's permanents, giving work update(A) per element.

Each permanent of a window has exactly one event that rules out the
parent: for a left child, its deletion inside the sibling; for any other
window, its insertion inside (parent start, own start], which for the root
means on day 0 or 1.  ``WindowCtx.permanent_candidates`` returns just those
records, and a candidate is permanent exactly when its element is alive
across the window by ``WindowCtx.lifetime_maps``.  A window reads nothing
else of the schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:  # the engine imports this module
    from .engine import WindowCtx


class IncrementalContract(Protocol):
    """The pluggable worst-case incremental algorithm: four methods, and the
    answer depends on the state alone.  ``insert`` reads the first
    ``payload_fields`` fields of an element's payload."""

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


def window_permanents(ctx: WindowCtx) -> list[str]:
    """Elements permanent for the window of ``ctx``, sorted: those of
    ``ctx.permanent_candidates()`` alive across the whole window.  An
    element never inserted reads as inserted after every window.  This scan
    runs for every window recompute."""
    s, e = ctx.start, ctx.end
    ins_map, del_map, never = ctx.lifetime_maps()
    ins_get, del_get = ins_map.get, del_map.get
    return sorted(
        [
            rec.element
            for rec in ctx.permanent_candidates()
            if ins_get(rec.element, never) <= s and del_get(rec.element, never) > e
        ]
    )


class LiftedIncremental:
    """c = 1 divide-and-conquer problem over an IncrementalContract; a
    window's memory is the contract state itself."""

    def __init__(self, contract: IncrementalContract):
        self.contract = contract
        self.payload_fields = contract.payload_fields

    def compute_window(self, ctx: WindowCtx, parent_memory: Any):
        if parent_memory is None:
            state, clone_units = self.contract.init()
        else:
            state, clone_units = self.contract.clone(parent_memory)
        compute_units = 0
        for element in window_permanents(ctx):
            compute_units += self.contract.insert(state, element, ctx.payload(element))
        return state, compute_units, clone_units

    def day_output(self, leaf_memory: Any, ctx: WindowCtx) -> Any:
        return self.contract.output(leaf_memory)


def lift_incremental(contract: IncrementalContract) -> LiftedIncremental:
    return LiftedIncremental(contract)
