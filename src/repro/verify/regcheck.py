"""Layer 3 — independent register-allocation checker.

Recomputes per-instruction liveness from the emitted ICODE — with its own
mini flow graph, sharing none of the allocator's data structures — and
cross-checks the :class:`~repro.icode.intervals.Interval` assignments that
linear scan or the graph colorer produced:

``register-aliasing``
    a definition writes a register that another simultaneously-live value
    of the same class occupies, or two values live into the same block
    share a register.
``spill-slot-overlap``
    two simultaneously-live spilled values share a spill slot (the case the
    old ``check_allocation`` in ``icode/linearscan.py`` never covered).
``caller-saved-across-call``
    a value that is live across a ``call``/``hostcall`` sits in a register
    the callee is allowed to clobber (the dynamic back ends must allocate
    exclusively from the callee-saved files).
``bad-register``
    an assigned register is outside the allocatable file for its class.
``unallocated``
    a live value has neither a register nor a spill slot (or no interval
    record at all).

Because the liveness here is exact (per instruction) while linear scan's
intervals are coarse over-approximations, every conflict this reports is a
genuine allocator bug — the checker can under-report relative to the
interval view, never over-report.  Unreachable blocks are excluded for the
same reason: a folded branch's dead arm may formally co-locate two values
in one register, but code no path executes clobbers nothing.
"""

from __future__ import annotations

from repro import verify
from repro.target.isa import ALLOCATABLE_FREGS, ALLOCATABLE_REGS

_CALLEE_SAVED = {
    "i": frozenset(int(r) for r in ALLOCATABLE_REGS),
    "f": frozenset(int(r) for r in ALLOCATABLE_FREGS),
}


class _MiniBlock:
    __slots__ = ("start", "end", "succs", "use", "defs", "live_in",
                 "live_out")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end
        self.succs: list = []
        self.use: set = set()
        self.defs: set = set()
        self.live_in: set = set()
        self.live_out: set = set()


def _build_blocks(ir, du) -> list:
    """``du[i]`` is ``instrs[i].compute_defs_uses()``, precomputed by
    the caller (the checker walk needs the same tuples; computing them
    once is the bulk of this layer's cost)."""
    instrs = ir.instrs
    n = len(instrs)
    leaders = {0} if n else set()
    label_pos: dict = {}
    for i, instr in enumerate(instrs):
        if instr.op == "label":
            leaders.add(i)
            label_pos[id(instr.a)] = i
        if instr.ends_block() and i + 1 < n:
            leaders.add(i + 1)
    order = sorted(leaders)
    blocks = []
    start_block: dict = {}
    for bi, start in enumerate(order):
        end = order[bi + 1] if bi + 1 < len(order) else n
        blocks.append(_MiniBlock(start, end))
        start_block[start] = bi
    for bi, block in enumerate(blocks):
        if block.end == 0:
            continue
        last = instrs[block.end - 1]
        target = last.branch_target()
        if target is not None and id(target) in label_pos:
            block.succs.append(start_block[label_pos[id(target)]])
        falls = not (last.op == "ret" or (
            not isinstance(last.op, str) and target is not None
            and last.op.name == "JMP"))
        if falls and bi + 1 < len(blocks):
            block.succs.append(bi + 1)
        # Local def/use (upward-exposed uses).
        use: set = set()
        defs: set = set()
        for i in range(block.start, block.end):
            d, u = du[i]
            for vr in u:
                if vr not in defs:
                    use.add(vr)
            defs.update(d)
        block.use = use
        block.defs = defs
    # Backward may-live fixpoint.
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            out: set = set()
            for succ in block.succs:
                out |= blocks[succ].live_in
            new_in = block.use | (out - block.defs)
            if out != block.live_out or new_in != block.live_in:
                block.live_out = out
                block.live_in = new_in
                changed = True
    return blocks


def check_allocation(ir, intervals, where: str = "allocation") -> list:
    """Cross-check one function's register allocation.  Returns
    Diagnostics; empty means the assignment is consistent with an
    independently recomputed liveness."""
    diags: list = []
    seen: set = set()
    assign = {iv.vreg: iv for iv in intervals}
    # Flat lookup tables (the walk below probes these constantly).
    regmap = {iv.vreg: iv.reg for iv in intervals}
    slotmap = {iv.vreg: iv.location for iv in intervals if iv.reg is None}

    def report(rule: str, key, message: str) -> None:
        if key in seen:
            return
        seen.add(key)
        diags.append(verify.Diagnostic("regcheck", rule, message,
                                       where=where))

    def check_live_set(live, context: str) -> None:
        by_reg: dict = {}
        by_slot: dict = {}
        for vr in live:
            reg = regmap.get(vr)
            if reg is not None:
                other = by_reg.get((vr.cls, reg))
                if other is not None:
                    report("register-aliasing",
                           ("alias", vr.cls, min(vr.id, other.id),
                            max(vr.id, other.id)),
                           f"{vr} and {other} are simultaneously live in "
                           f"register {reg} ({context})")
                else:
                    by_reg[(vr.cls, reg)] = vr
            slot = slotmap.get(vr)
            if slot is not None:
                other = by_slot.get((vr.cls, slot))
                if other is not None:
                    report("spill-slot-overlap",
                           ("slot", vr.cls, min(vr.id, other.id),
                            max(vr.id, other.id)),
                           f"{vr} and {other} are simultaneously live in "
                           f"spill slot {slot} ({context})")
                else:
                    by_slot[(vr.cls, slot)] = vr

    instrs = ir.instrs
    du = [instr.compute_defs_uses() for instr in instrs]
    blocks = _build_blocks(ir, du)
    across_call: set = set()

    # Conflicts confined to unreachable blocks are harmless: a folded
    # branch (`1 ? x : y`) leaves its dead arm in the IR until DCE (which
    # dev-mode dynamic code may not run), and the allocator's
    # per-instruction liveness rightly ignores code no path executes.
    reachable: set = set()
    work = [0] if blocks else []
    while work:
        bi = work.pop()
        if bi in reachable:
            continue
        reachable.add(bi)
        work.extend(blocks[bi].succs)

    for bi, block in enumerate(blocks):
        if bi not in reachable:
            continue
        check_live_set(block.live_in, f"live into block at {block.start}")
        live = set(block.live_out)
        for i in range(block.end - 1, block.start - 1, -1):
            instr = instrs[i]
            defs, uses = du[i]
            survivors = live.difference(defs) if defs else live
            if instr.op in ("call", "hostcall"):
                for vr in survivors:
                    across_call.add(vr)
                    reg = regmap.get(vr)
                    if reg is not None and reg not in _CALLEE_SAVED[vr.cls]:
                        report("caller-saved-across-call",
                               ("caller-saved", vr.cls, vr.id),
                               f"{vr} is live across {instr!r} in "
                               f"caller-saved register {reg}")
            for d in defs:
                iv = assign.get(d)
                if iv is None:
                    report("unallocated", ("noiv", d.cls, d.id),
                           f"{d} defined by {instr!r} has no interval "
                           "record")
                    continue
                if iv.reg is None:
                    # Spilled defs go through scratch registers, but the
                    # slot write must not land on another live value.
                    slot = iv.location
                    if slot is None:
                        continue
                    for vr in survivors:
                        if vr is d or vr.cls != d.cls:
                            continue
                        if slotmap.get(vr) == slot:
                            report("spill-slot-overlap",
                                   ("slot", d.cls, min(d.id, vr.id),
                                    max(d.id, vr.id)),
                                   f"{instr!r} defines {d} in spill slot "
                                   f"{slot} while {vr} is live in it")
                    continue
                for vr in survivors:
                    if vr is d or vr.cls != d.cls:
                        continue
                    if regmap.get(vr) == iv.reg:
                        report("register-aliasing",
                               ("alias", d.cls, min(d.id, vr.id),
                                max(d.id, vr.id)),
                               f"{instr!r} defines {d} in register "
                               f"{iv.reg} while {vr} is live in it")
            for vr in uses:
                iv = assign.get(vr)
                if iv is None:
                    report("unallocated", ("noiv", vr.cls, vr.id),
                           f"{vr} used by {instr!r} has no interval record")
                elif iv.reg is None and iv.location is None:
                    report("unallocated", ("nowhere", vr.cls, vr.id),
                           f"{vr} used by {instr!r} has neither a register "
                           "nor a spill slot")
            live = survivors.union(uses) if uses else set(survivors)

    for iv in intervals:
        if iv.reg is None:
            continue
        if iv.reg not in _CALLEE_SAVED[iv.vreg.cls]:
            if iv.vreg in across_call:
                continue  # already reported as caller-saved-across-call
            report("bad-register", ("badreg", iv.vreg.cls, iv.vreg.id),
                   f"{iv.vreg} assigned register {iv.reg}, outside the "
                   f"allocatable {iv.vreg.cls!r} file")
    return diags


def run(ir, intervals, where: str = "allocation") -> None:
    verify.run_checker("regcheck", check_allocation, ir, intervals, where)
