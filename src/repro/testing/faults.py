"""Deterministic fault injection for the resilience test-suite.

The failure handling in :mod:`repro.simulator.resilience` and the
sampler's grouped walk is a *specified protocol* (reject before any
allocation, degrade along a declared ladder), and a specified protocol
needs a way to exercise every branch on demand.  This module provides
that: production code calls :func:`fault_point` at named injection
points, and a test arms a :class:`FaultPlan` of :class:`Fault` specs
around the code under test with :func:`inject_faults`.

Design constraints, in order:

*Deterministic.*  A fault fires at an exact point — "fail trajectory
group 0", "fail the 2nd admission check" — never "sometimes".  Matching
is by point name plus either an explicit context index (the group index
the caller passes in) or, for points without a natural index, the
1-based ordinal of the call.

*Near-free when disarmed.*  :func:`fault_point` is one global read and a
``None`` check when no plan is active; the injection points can stay in
production code permanently.

*Honest failures.*  A fault raises :class:`repro.errors.FaultInjected`
(a distinct :class:`~repro.errors.ReproError`), so a recovery test can
tell its own injected failure from a genuine defect.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.errors import FaultInjected

#: The armed plan, or ``None``; armed/disarmed only via
#: :func:`inject_faults`.
ACTIVE: Optional["FaultPlan"] = None


@dataclass
class Fault:
    """One deterministic failure specification: raise
    :class:`FaultInjected` when it fires.

    ``point``
        Injection-point name (``"engine.span"``, fired once per
        trajectory group by the grouped walk, or
        ``"resilience.admission"``).
    ``index``
        Fire only at this index.  Matched against the caller-supplied
        context index when the point has one (the group's visit-order
        index); points without a natural index match their 1-based call
        ordinal.  ``None`` matches every call.
    ``times``
        Total number of firings (``None`` = unlimited).  The default 1
        is the interesting case: fail once, then let recovery succeed.
    """

    point: str
    index: Optional[int] = None
    times: Optional[int] = 1
    _calls: int = field(default=0, repr=False, compare=False)
    _budget: Optional[int] = field(default=None, repr=False, compare=False)

    def _arm(self) -> None:
        """Reset the call ordinal and the firing budget."""
        self._calls = 0
        self._budget = self.times

    def _matches(self, point: str, index: Optional[int]) -> bool:
        if self.point != point:
            return False
        if self.index is None:
            return True
        if index is not None:
            return index == self.index
        # No context index at this point: match the 1-based call ordinal
        # ("fail allocation n").
        self._calls += 1
        return self._calls == self.index

    def _consume_budget(self) -> bool:
        if self._budget is None:
            return True
        if self._budget <= 0:
            return False
        self._budget -= 1
        return True


class FaultPlan:
    """An ordered set of armed :class:`Fault` specs."""

    def __init__(self, faults: Tuple[Fault, ...]) -> None:
        self.faults = tuple(faults)
        for fault in self.faults:
            fault._arm()


def fault_point(point: str, index: Optional[int] = None) -> None:
    """Production-side injection hook: fire any armed fault matching
    *point* (and *index*, when the caller has one).  A single global
    read when no plan is armed."""
    plan = ACTIVE
    if plan is None:
        return
    for fault in plan.faults:
        if not fault._matches(point, index):
            continue
        if not fault._consume_budget():
            continue
        where = point if index is None else f"{point}[{index}]"
        raise FaultInjected(f"injected fault at {where}")


@contextmanager
def inject_faults(*faults: Fault) -> Iterator[FaultPlan]:
    """Arm *faults* for the dynamic extent of the block.

    Arming resets every fault's call ordinal and firing budget, so one
    :class:`Fault` can be re-armed.  Nesting replaces the outer plan for
    the inner block (restored on exit).
    """
    global ACTIVE
    plan = FaultPlan(faults)
    previous = ACTIVE
    ACTIVE = plan
    try:
        yield plan
    finally:
        ACTIVE = previous


__all__ = [
    "ACTIVE",
    "Fault",
    "FaultPlan",
    "fault_point",
    "inject_faults",
]
