"""Trace formation and trace code generation.

A **trace** widens the dispatch engine's unit of work: starting from a hot
superblock, formation follows the *observed* control flow recorded by
the profiling dispatch loop — elided unconditional jumps and calls,
guarded conditional branches — linking several superblocks into one
straight-line run.  The trace compiler then replays the superblock
code generator (:class:`repro.target.dispatch._Gen` and its
per-instruction emitters) over the widened window, which

* eliminates the per-block dispatch (dict probe + call + watchdog
  check) for every interior seam;
* keeps the exactness contract: every trap site still flushes through
  ``_Gen.site``, guard side exits flush pending charges exactly at the
  last reference checkpoint (``TAIL``-adjusted for the taken ``+1``),
  and cycle checkpoints emitted by a trace are a subset of the
  reference stepper's — so the watchdog's trap-vs-success decision is
  unchanged, with pc/cycle overshoot on the budget trap bounded by
  ``max_trace_instructions`` instead of :data:`MAX_BLOCK_INSTRUCTIONS`.

Formation is *speculative but safe*: a conditional branch inside the
trace becomes a guard whose untaken direction is a side exit back to
the dispatch loop, which re-enters on the block path.  Loops are not
closed back on themselves (a trace never branches backward into its own
interior — that would skip the watchdog); instead self-loops unroll
until the instruction cap, so each trace call covers many iterations
while the dispatch loop still interposes a budget check per call.
"""

from __future__ import annotations

from repro.target.dispatch import (
    TERMINATOR_OPS,
    _charge_site,
    _emit_one,
    _Gen,
    carve_block,
)
from repro.target.isa import CYCLE_COST, Op


class TraceForm:
    """The shape of one formed trace, before code generation.

    ``steps`` is the straight-line recipe: a list of tuples tagged

    * ``("ins", pc, ins)`` — an ordinary interior instruction;
    * ``("jmp", pc, ins)`` — an elided unconditional jump (its cycle
      cost folds into the pending batch; no control transfer emitted);
    * ``("call", pc, ins)`` — an elided call (cost folds in, but the
      return-address write ``regs[RA] = pc + 1`` is still emitted);
    * ``("guard", pc, ins, follow_taken)`` — a conditional branch whose
      ``follow_taken`` direction stays on-trace and whose other
      direction becomes a side exit.

    ``terminal`` is ``("end", pc, ins)`` for a real terminator compiled
    via the superblock emitter, or ``("cont", pc)`` for a plain
    fall-through back to the dispatch loop (cap / horizon).

    ``block_entries`` lists the entry pcs of the superblocks the trace
    covers, in execution order, with repeats when a loop unrolls.
    ``end`` is one past the highest pc covered (rollback invalidation
    key); ``instructions`` and ``cost`` count covered instructions and
    their summed base cycle costs (reporting).
    """

    __slots__ = ("entry", "steps", "terminal", "block_entries", "end",
                 "instructions", "cost")

    def __init__(self, entry, steps, terminal, block_entries, end,
                 instructions, cost):
        self.entry = entry
        self.steps = steps
        self.terminal = terminal
        self.block_entries = block_entries
        self.end = end
        self.instructions = instructions
        self.cost = cost


def form_trace(code, entry: int, succ: dict, horizon: int,
               policy) -> TraceForm:
    """Form a trace starting at ``entry`` by following the profile.

    ``succ`` maps block entry pc -> last observed successor entry pc
    (the dispatch loop's edge profile); conditional branches follow the
    observed direction and guard the other.  Only code strictly below
    ``horizon`` (the linked horizon) is traced — operands there are
    final.  Formation stops at the policy caps, at any terminator the
    trace cannot continue through (RET, CALLR, HOSTCALL, HALT, a branch
    with no usable profile), or at a fall-through that would leave the
    linked region.
    """
    cap = min(len(code), horizon)
    steps: list = []
    block_entries: list = []
    pc = entry
    end = entry
    total = 0
    cost = 0
    terminal = None
    while terminal is None:
        if len(block_entries) >= policy.max_trace_blocks:
            terminal = ("cont", pc)
            break
        instrs = carve_block(code, pc, cap)
        if not instrs or total + len(instrs) > policy.max_trace_instructions:
            terminal = ("cont", pc)
            break
        block_entry = pc
        block_entries.append(block_entry)
        end = max(end, block_entry + len(instrs))
        total += len(instrs)
        for ins in instrs:
            cost += CYCLE_COST.get(ins.op, 0)
        last = instrs[-1]
        if last.op not in TERMINATOR_OPS:
            # Cut short by the cap or the horizon: plain fall-through.
            for i, ins in enumerate(instrs):
                steps.append(("ins", block_entry + i, ins))
            nxt = block_entry + len(instrs)
            if nxt >= cap:
                terminal = ("cont", nxt)
            else:
                pc = nxt
            continue
        for i in range(len(instrs) - 1):
            steps.append(("ins", block_entry + i, instrs[i]))
        P = block_entry + len(instrs) - 1
        op = last.op
        if (op is Op.JMP and isinstance(last.a, int)
                and 0 <= int(last.a) < cap):
            steps.append(("jmp", P, last))
            pc = int(last.a)
        elif (op is Op.CALL and isinstance(last.a, int)
                and 0 <= int(last.a) < cap):
            steps.append(("call", P, last))
            pc = int(last.a)
        elif (op in (Op.BEQZ, Op.BNEZ)
                and isinstance(last.a, int) and int(last.a) != 0):
            follow = succ.get(block_entry)
            taken = last.b
            if (isinstance(taken, int) and follow == int(taken)
                    and 0 <= int(taken) < cap):
                steps.append(("guard", P, last, True))
                cost += 1                # the taken +1 rides the trace
                pc = int(taken)
            elif follow == P + 1 and P + 1 < cap:
                steps.append(("guard", P, last, False))
                pc = P + 1
            else:                        # no usable profile for this edge
                terminal = ("end", P, last)
        else:                            # RET / CALLR / HOSTCALL / HALT /
            terminal = ("end", P, last)  # static or unresolvable branch
    return TraceForm(entry, steps, terminal, block_entries, end, total, cost)


def trace_has_site(form: TraceForm) -> bool:
    """Does any covered instruction need an exact pre-charge?"""
    for step in form.steps:
        if step[0] == "ins" and _charge_site(step[2]):
            return True
    t = form.terminal
    return t[0] == "end" and _charge_site(t[2])


def _emit_guard(g: _Gen, P: int, ins, follow_taken: bool) -> None:
    """A trace-interior conditional branch.

    The followed direction stays on-trace; the other direction is a
    side exit that flushes the charges accrued so far — landing exactly
    on the reference stepper's checkpoint for this branch — and returns
    the off-trace pc to the dispatch loop.  ``pend`` survives the side
    exit unreset (the main path continues with it), mirroring the
    two-way branch emission in ``_emit_one``.
    """
    op = ins.op
    g.pend += CYCLE_COST[op]
    reg = f"regs[{g.ridx(ins.a)}]"
    if follow_taken:
        # Side exit = fall-through (condition false for the branch).
        rel = "!=" if op is Op.BEQZ else "=="
        g.line(f"if {reg} {rel} 0:")
        g.charge(0, indent=1)
        g.line(f"return {P + 1}", indent=1)
        g.pend += 1                      # taken +1, charged-not-checked
    else:
        # Side exit = taken: the +1 is charged past the checkpoint and
        # never itself checked, so report it through TAIL.
        rel = "==" if op is Op.BEQZ else "!="
        g.line(f"if {reg} {rel} 0:")
        g.charge(1, indent=1)
        g.line("TAIL[0] = 1", indent=1)
        g.line(f"return {g.imm(ins.b)}", indent=1)


def emit_trace(g: _Gen, form: TraceForm) -> None:
    """Generate the trace body into ``g``: one emitter per step, with
    elided jumps and calls folding their cycle cost into the pending
    batch and the terminal closing the unit."""
    for step in form.steps:
        tag = step[0]
        if tag == "ins":
            _emit_one(g, step[1], step[2])
        elif tag == "jmp":
            g.pend += CYCLE_COST[Op.JMP]
        elif tag == "call":
            g.pend += CYCLE_COST[Op.CALL]
            g.line(f"regs[1] = {step[1] + 1}")
        else:                            # guard
            _emit_guard(g, step[1], step[2], step[3])
    term = form.terminal
    if term[0] == "end":
        _emit_one(g, term[1], term[2])
        if not g.closed:                 # defensive: terminator must close
            g.charge(0)
            g.pend = 0
            g.line(f"return {term[1] + 1}")
    else:
        g.charge(0)
        g.pend = 0
        g.line(f"return {term[1]}")
