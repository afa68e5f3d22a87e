"""Linear-scan register allocation — Figure 3 of the paper, verbatim.

Given R available registers and the list of live intervals sorted by
increasing end point, the algorithm traverses the list in *reverse* order
(jumping from end point to end point) while maintaining ``active``, the list
of intervals live at the current point, sorted by increasing start point.
When more than R intervals are active, the longest one (earliest start
point) is spilled; because ``active`` is sorted, that is its first element.
Asymptotic cost: O(I * R).

This paper is the origin of linear-scan allocation; the algorithm here is
kept deliberately faithful to the published pseudocode rather than to the
later (1999) formulation.
"""

from __future__ import annotations

from repro.runtime.costmodel import (
    REGALLOC_ACTIVE_OP,
    REGALLOC_SCAN_STEP,
    REGALLOC_SPILL,
)


def linear_scan(intervals, registers, slot_alloc, cost=None) -> int:
    """Allocate ``registers`` to ``intervals`` (sorted by increasing end).

    ``slot_alloc()`` returns a fresh spill-slot index.  Mutates
    ``interval.reg`` / ``interval.location``; returns the number of spilled
    intervals.
    """
    free = list(registers)
    active: list = []  # sorted by increasing start point
    spilled = 0

    def expire_old_intervals(current) -> None:
        # Paper: scan active from last to first; stop at the first interval
        # whose start point precedes the current end point.
        nonlocal_active = active
        while nonlocal_active:
            j = nonlocal_active[-1]
            if cost is not None:
                cost.charge(REGALLOC_ACTIVE_OP)
            if j.start <= current.end:
                return
            nonlocal_active.pop()
            free.append(j.reg)

    def spill_longest_interval(current):
        # The longest active interval is the one with the earliest start.
        j = active[0]
        if cost is not None:
            cost.charge(REGALLOC_ACTIVE_OP)
        if j.start < current.start:
            reg = j.reg
            j.reg = None
            j.location = slot_alloc()
            active.pop(0)
            return reg
        return None

    def add_active(interval) -> None:
        # Insert keeping active sorted by increasing start point.
        lo, hi = 0, len(active)
        while lo < hi:
            mid = (lo + hi) // 2
            if active[mid].start < interval.start:
                lo = mid + 1
            else:
                hi = mid
        active.insert(lo, interval)
        if cost is not None:
            cost.charge(REGALLOC_ACTIVE_OP)

    for interval in reversed(intervals):
        if cost is not None:
            cost.charge(REGALLOC_SCAN_STEP)
        expire_old_intervals(interval)
        if free:
            reg = free.pop()
        else:
            reg = spill_longest_interval(interval)
            spilled += 1
            if cost is not None:
                cost.charge(REGALLOC_SPILL)
        if reg is not None:
            interval.reg = reg
            add_active(interval)
        else:
            interval.location = slot_alloc()
    return spilled
