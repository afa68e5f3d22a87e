"""Chaitin-style graph-coloring register allocation.

The paper provides a Chaitin-style colorer as the baseline against which
linear scan is measured (Figure 7): "it has been studied and optimized
extensively, performs well in many cases, and is simple to implement".

Interference is built from precise per-instruction liveness (a def
interferes with everything live across it), then Briggs-style optimistic
simplify/select runs with the ICODE usage-frequency weights steering spill
choice (lowest weight/degree spilled first).
"""

from __future__ import annotations

from repro.runtime.costmodel import (
    REGALLOC_IG_EDGE,
    REGALLOC_IG_NODE,
    REGALLOC_IG_PROBE,
    REGALLOC_SIMPLIFY_STEP,
    REGALLOC_SPILL,
)


def build_interference(ir, fg, cost=None) -> dict:
    """vreg -> set of interfering vregs (same register class only)."""
    adjacency: dict = {}

    def ensure(v):
        if v not in adjacency:
            adjacency[v] = set()
            if cost is not None:
                cost.charge(REGALLOC_IG_NODE)
        return adjacency[v]

    def add_edge(a, b):
        if a == b or a.cls != b.cls:
            return
        if b not in adjacency[a]:
            adjacency[a].add(b)
            adjacency[b].add(a)
            if cost is not None:
                cost.charge(REGALLOC_IG_EDGE)

    instrs = ir.instrs
    for block in fg.blocks:
        live = set(block.live_out)
        for v in live:
            ensure(v)
        for i in range(block.end - 1, block.start - 1, -1):
            defs, uses = instrs[i].defs_uses()
            for d in defs:
                ensure(d)
                if cost is not None and live:
                    # Chaitin's build walks the live set per definition,
                    # whether or not the edges are new.
                    cost.charge(REGALLOC_IG_PROBE, len(live))
                for l in live:
                    add_edge(d, l)
            live -= set(defs)
            for u in uses:
                ensure(u)
                live.add(u)
    return adjacency


def color_class(vregs, adjacency, registers, weights, slot_alloc, cost=None):
    """Color one register class.  Returns {vreg: reg or None}; vregs mapped
    to None were spilled (they also receive a slot via ``slot_alloc``)."""
    nodes = list(vregs)
    r = len(registers)
    node_set = set(nodes)
    degree = {
        v: sum(1 for n in adjacency.get(v, ()) if n in node_set) for v in nodes
    }
    remaining = set(nodes)
    stack = []

    def pick_spill_candidate():
        # Chaitin heuristic: lowest weight / degree.
        return min(
            remaining,
            key=lambda v: (weights.get(v.id, 0.0) / (degree[v] + 1), -degree[v]),
        )

    while remaining:
        trivial = next((v for v in remaining if degree[v] < r), None)
        candidate = trivial if trivial is not None else pick_spill_candidate()
        stack.append(candidate)
        remaining.discard(candidate)
        for n in adjacency.get(candidate, ()):
            if n in remaining:
                degree[n] -= 1
        if cost is not None:
            cost.charge(REGALLOC_SIMPLIFY_STEP)

    assignment: dict = {}
    spill_slots: dict = {}
    while stack:
        v = stack.pop()
        taken = {
            assignment[n]
            for n in adjacency.get(v, ())
            if n in assignment and assignment[n] is not None
        }
        free = [reg for reg in registers if reg not in taken]
        if free:
            assignment[v] = free[0]
        else:
            assignment[v] = None
            spill_slots[v] = slot_alloc()
            if cost is not None:
                cost.charge(REGALLOC_SPILL)
        if cost is not None:
            cost.charge(REGALLOC_SIMPLIFY_STEP)
    return assignment, spill_slots


def graph_color(ir, fg, intervals, int_registers, float_registers,
                slot_alloc, cost=None) -> int:
    """Allocate via graph coloring; mutates the Interval objects so the
    translator sees the same shape linear scan produces.  Returns the number
    of spilled vregs."""
    adjacency = build_interference(ir, fg, cost)
    by_vreg = {iv.vreg: iv for iv in intervals}
    for v in adjacency:
        if v not in by_vreg:
            # vreg appears in the graph but had no interval (dead def);
            # give it a synthetic record so translation can map it.
            from repro.icode.intervals import Interval

            by_vreg[v] = Interval(v, 0, 0)
            intervals.append(by_vreg[v])
    spilled = 0
    for cls, registers in (("i", int_registers), ("f", float_registers)):
        vregs = [v for v in adjacency if v.cls == cls]
        assignment, spill_slots = color_class(
            vregs, adjacency, registers, ir.weights, slot_alloc, cost
        )
        for v, reg in assignment.items():
            interval = by_vreg[v]
            if reg is None:
                interval.location = spill_slots[v]
                spilled += 1
            else:
                interval.reg = reg
    return spilled
