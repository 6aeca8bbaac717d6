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

Every permanent of a window has an event inside the parent window (else it
would be permanent for the parent too), so candidates are enumerated from
the parent's event set, whose size is what the work bound charges;
``WindowCtx.permanent_candidates`` narrows it to the days where such an
event can lie, and ``WindowCtx.lifetime_maps`` gives each candidate's
current insertion and deletion days.  A window reads nothing else of the
schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:  # the engine imports this module
    from .engine import WindowCtx


class IncrementalContract(Protocol):
    """The pluggable worst-case incremental algorithm: four methods, and the
    answer depends on the state alone."""

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
    """Elements permanent for the window of ``ctx``, sorted: alive across
    all of it, but not across all of the parent.  Candidates come from
    ``ctx.permanent_candidates()``; this scan runs for every window
    recompute."""
    s, e = ctx.start, ctx.end
    ins_map, del_map, never = ctx.lifetime_maps()
    ins_get, del_get = ins_map.get, del_map.get
    pspan = ctx.parent_span()
    seen: set[str] = set()
    out: list[str] = []
    for rec in ctx.permanent_candidates():
        el = rec.element
        if el in seen:
            continue
        seen.add(el)
        ins = ins_get(el)
        if ins is None or ins > s:
            continue
        dl = del_get(el, never)
        if dl <= e:
            continue
        if pspan is not None and ins <= pspan[0] and dl > pspan[1]:
            continue  # an ancestor already carries it
        out.append(el)
    out.sort()
    return out


class LiftedIncremental:
    """c = 1 divide-and-conquer problem over an IncrementalContract; a
    window's memory is the contract state itself."""

    def __init__(self, contract: IncrementalContract):
        self.contract = contract

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
