"""Live intervals (tcc 5.2, "Finding live intervals").

A live interval of a variable v is [m, n] where m is the first instruction
at which v is ever live and n the last — a deliberately coarse
approximation of the exact live ranges ("there may be large portions of
[m, n] in which v is not live, but we simply ignore them").
"""

from __future__ import annotations

from repro.runtime.costmodel import INTERVALS_INSTR, INTERVALS_INTERVAL


class Interval:
    __slots__ = ("vreg", "start", "end", "reg", "location", "weight")

    def __init__(self, vreg, start: int, end: int, weight: float = 0.0):
        self.vreg = vreg
        self.start = start
        self.end = end
        self.reg = None        # physical register number, if allocated
        self.location = None   # spill slot index, if spilled
        self.weight = weight

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.end and other.start <= self.end

    def __repr__(self) -> str:
        where = f"r{self.reg}" if self.reg is not None else (
            f"slot{self.location}" if self.location is not None else "?"
        )
        return f"<{self.vreg} [{self.start},{self.end}] {where}>"


def build_intervals(ir, fg, cost=None) -> list:
    """One pass over the code: the interval of v spans from the first to the
    last instruction at which v is live.  Returns intervals sorted by
    increasing end point (the order the allocator wants)."""
    instrs = ir.instrs
    first: dict = {}
    last: dict = {}

    def touch(vreg, pos: int) -> None:
        if vreg not in first:
            first[vreg] = pos
            last[vreg] = pos
        else:
            if pos < first[vreg]:
                first[vreg] = pos
            if pos > last[vreg]:
                last[vreg] = pos

    for block in fg.blocks:
        start_pos, end_pos = block.start, max(block.start, block.end - 1)
        for vreg in block.live_in:
            touch(vreg, start_pos)
        for vreg in block.live_out:
            touch(vreg, end_pos)
        for i in range(block.start, block.end):
            defs, uses = instrs[i].defs_uses()
            for vreg in defs:
                touch(vreg, i)
            for vreg in uses:
                touch(vreg, i)
        if cost is not None:
            cost.charge(INTERVALS_INSTR, block.end - block.start)

    intervals = [
        Interval(vreg, first[vreg], last[vreg],
                 ir.weights.get(vreg.id, 0.0))
        for vreg in first
    ]
    intervals.sort(key=lambda iv: (iv.end, iv.start))
    if cost is not None:
        cost.charge(INTERVALS_INTERVAL, len(intervals))
    return intervals
