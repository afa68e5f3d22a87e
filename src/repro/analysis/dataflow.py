"""Worklist forward-dataflow analysis over the ICODE flowgraph.

The engine walks the flowgraph from :mod:`repro.icode.flowgraph` with a
classic worklist, mapping each virtual register to an
:class:`~repro.analysis.lattice.AbstractValue` (wrap32 interval x
alignment x nullness x region).  Interval widening kicks in after a few
visits per block, so loops converge fast; states are trimmed to each
block's ``live_in`` set when liveness is supplied.

Two consumers read the result:

* **dead-branch verdicts** — conditional branches whose condition
  interval excludes (or pins) zero.  ``optim.fold_dead_branches``
  rewrites these; the verdict carries the condition's patch-hole tags
  so the rewrite pins them (a Tier-2 clone with different hole values
  must not inherit the decision).
* **const-elision marks** — absolute-address memory ops (base folded
  to the zero register) whose whole access window is proven inside the
  *stable* heap region (below :meth:`Memory.stable_limit`, which a
  ``release`` can never unmap).  The backend emits these with the
  proven-safe opcode and a ``("const", ...)`` fact.

This module also hosts :func:`elide_duplicate_checks`, the machine-level
value-numbering pass that converts a re-access of an already-checked
address into the safe form (``("dup", ...)`` facts).  The factcheck
verifier re-derives the same proof independently from the installed
instructions.
"""

from __future__ import annotations

from collections import deque

from repro.core.operands import VReg
from repro.runtime.costmodel import IR_ANALYSIS
from repro.target.isa import (
    CHECKED_TO_SAFE, MEM_WIDTH, SAFE_MEM_OPS, Op,
)
from repro.analysis.lattice import TOP, AbstractValue
from repro.icode.flowgraph import build_flowgraph

#: Checked memory opcodes at both the IR and machine level.
CHECKED_MEM_OPS = frozenset(CHECKED_TO_SAFE)

#: Widths that must sit on a 4-byte boundary (the double fast path in
#: ``target/memory.py`` also only requires 4-byte alignment).
_ALIGNED_WIDTHS = frozenset((4, 8))

#: Number of block visits before interval widening engages.
_WIDEN_AFTER = 3


class Analysis:
    """Result of one :func:`analyze` run over an ``IRFunction``."""

    __slots__ = ("verdicts", "const_marks", "instrs_visited")

    def __init__(self):
        #: instr index -> (branch_taken: bool, tags frozenset)
        self.verdicts = {}
        #: id(IRInstr) -> (addr, width) for provably-stable absolute
        #: accesses (the backend emits these as safe ops)
        self.const_marks = {}
        self.instrs_visited = 0


def _value_of(state, operand, origin_of):
    if isinstance(operand, VReg):
        return state.get(operand, TOP)
    if isinstance(operand, int) and not isinstance(operand, bool):
        origin = origin_of(operand)
        tags = frozenset((origin,)) if origin is not None else frozenset()
        return AbstractValue.const(int(operand), tags)
    return TOP


def _transfer_instr(instr, state, origin_of, lattice_transfer):
    """Apply one IR instruction to ``state`` (mutating it)."""
    op = instr.op
    if isinstance(op, str):
        if op == "label" or op == "ret":
            return
        if op == "getarg":
            if isinstance(instr.a, VReg):
                state[instr.a] = AbstractValue.opaque(
                    region=("param", instr.b))
            return
        # call / hostcall: the result is opaque; vreg state is
        # otherwise unaffected (vregs are function-local values, not
        # machine registers).
        if isinstance(instr.a, VReg):
            state[instr.a] = TOP
        return
    if op in (Op.BEQZ, Op.BNEZ, Op.JMP, Op.NOP, Op.HALT, Op.RET):
        return
    defs, _uses = instr.defs_uses()
    if not defs:
        return                      # stores define nothing
    dst = defs[0]
    if dst.cls != "i":
        state[dst] = TOP
        return
    if op is Op.LI:
        imm = instr.b
        if isinstance(imm, int) and not isinstance(imm, bool):
            origin = origin_of(imm)
            tags = (frozenset((origin,)) if origin is not None
                    else frozenset())
            state[dst] = AbstractValue.const(int(imm), tags)
        else:
            state[dst] = TOP        # FuncRef / float: opaque
        return
    if op in CHECKED_MEM_OPS or op in SAFE_MEM_OPS:
        state[dst] = TOP            # loads produce unknown values
        return
    a = _value_of(state, instr.b, origin_of)
    b = _value_of(state, instr.c, origin_of)
    state[dst] = lattice_transfer(op, a, b)


def _refined(state, cond, nonzero: bool):
    """Copy of ``state`` with the branch condition ``cond`` refined on
    one outgoing edge."""
    value = state.get(cond, TOP)
    out = dict(state)
    if nonzero:
        lo, hi = value.lo, value.hi
        if lo == 0 and hi > 0:
            lo = 1
        if hi == 0 and lo < 0:
            hi = -1
        out[cond] = AbstractValue(lo, hi, value.align, True,
                                  value.region, value.tags)
    else:
        out[cond] = AbstractValue(0, 0, 16, False, None, value.tags)
    return out


def _join_states(old, new, widen: bool):
    """Join ``new`` into ``old`` (missing keys are TOP and stay
    absent); returns (result, changed)."""
    if old is None:
        return dict(new), True
    changed = False
    result = {}
    for key, prev in old.items():
        incoming = new.get(key)
        if incoming is None:
            changed = True          # joined with TOP: key drops out
            continue
        merged = prev.widen(incoming) if widen else prev.join(incoming)
        result[key] = merged
        if not merged.same_as(prev):
            changed = True
    return result, changed


def analyze(ir, memory=None, cost=None, fg=None, liveness=None) -> Analysis:
    """Run the forward dataflow over ``ir`` and harvest branch verdicts
    and const-elision marks.  ``memory`` (a ``target.memory.Memory``)
    gates the const marks; without it only verdicts are produced."""
    from repro.core.codecache import origin_of
    from repro.analysis.lattice import transfer as lattice_transfer

    result = Analysis()
    instrs = ir.instrs
    if not instrs:
        return result
    if fg is None:
        fg = build_flowgraph(ir, None)
    if liveness is not None:
        liveness(fg, None)
    blocks = fg.blocks

    block_in = [None] * len(blocks)
    block_in[0] = {}
    visits = [0] * len(blocks)
    worklist = deque((0,))
    queued = [False] * len(blocks)
    queued[0] = True

    def out_states(block, state):
        """(successor block index, out-state) pairs with branch
        refinement applied per edge."""
        last = instrs[block.end - 1] if block.end > block.start else None
        pairs = []
        if last is not None and last.op in (Op.BEQZ, Op.BNEZ):
            taken = fg.label_block.get(id(last.b))
            fall = block.index + 1 if block.index + 1 < len(blocks) else None
            cond = last.a
            taken_nonzero = last.op is Op.BNEZ
            for succ in block.succs:
                if succ == taken and succ == fall:
                    pairs.append((succ, dict(state)))
                elif succ == taken:
                    pairs.append((succ, _refined(state, cond,
                                                 taken_nonzero)))
                elif succ == fall:
                    pairs.append((succ, _refined(state, cond,
                                                 not taken_nonzero)))
                else:
                    pairs.append((succ, dict(state)))
        else:
            for succ in block.succs:
                pairs.append((succ, dict(state)))
        return pairs

    while worklist:
        bi = worklist.popleft()
        queued[bi] = False
        block = blocks[bi]
        visits[bi] += 1
        state = dict(block_in[bi])
        if liveness is not None and block.live_in:
            state = {vr: v for vr, v in state.items()
                     if vr in block.live_in}
        for i in range(block.start, block.end):
            _transfer_instr(instrs[i], state, origin_of, lattice_transfer)
            result.instrs_visited += 1
        widen = visits[bi] >= _WIDEN_AFTER
        for succ, out in out_states(block, state):
            merged, changed = _join_states(block_in[succ], out, widen)
            if changed or block_in[succ] is None:
                block_in[succ] = merged
                if not queued[succ]:
                    queued[succ] = True
                    worklist.append(succ)

    if cost is not None:
        cost.charge(IR_ANALYSIS, result.instrs_visited)

    # -- decision pass over the fixpoint ---------------------------------
    if memory is not None:
        from repro.target.memory import NULL_GUARD
        stable_limit = memory.stable_limit()
        null_guard = NULL_GUARD
    else:
        stable_limit = null_guard = None
    for block in blocks:
        state = dict(block_in[block.index] or {})
        for i in range(block.start, block.end):
            instr = instrs[i]
            op = instr.op
            if op in (Op.BEQZ, Op.BNEZ) and isinstance(instr.a, VReg):
                cond = state.get(instr.a, TOP)
                if cond.is_zero():
                    result.verdicts[i] = (op is Op.BEQZ, cond.tags)
                elif cond.excludes_zero():
                    result.verdicts[i] = (op is Op.BNEZ, cond.tags)
            elif (stable_limit is not None and op in CHECKED_MEM_OPS
                    and instr.b is None
                    and isinstance(instr.c, int)
                    and not isinstance(instr.c, bool)):
                addr = int(instr.c)
                width = MEM_WIDTH[op]
                aligned = (width not in _ALIGNED_WIDTHS
                           or addr % 4 == 0)
                if (aligned and addr >= null_guard
                        and addr + width <= stable_limit):
                    result.const_marks[id(instr)] = (addr, width)
            _transfer_instr(instr, state, origin_of, lattice_transfer)
    return result


# -- machine-level duplicate-check elision ------------------------------------------

#: Ops that end a value-numbering window: control leaves the straight
#: line, or the host may mutate machine state behind our back.
#: Conditional branches are *not* breakers — the fall-through path
#: keeps dominance, and the taken path lands on a label, which resets
#: the window anyway.
WINDOW_BREAKERS = frozenset((Op.CALL, Op.CALLR, Op.HOSTCALL, Op.JMP,
                             Op.RET, Op.HALT))

#: Pure int ops value-numbered structurally; everything else that
#: writes an int register gets a fresh number.
_VN_KEYED = frozenset((
    Op.ADD, Op.ADDI, Op.SUB, Op.SUBI, Op.MUL, Op.MULI,
    Op.AND, Op.ANDI, Op.OR, Op.ORI, Op.XOR, Op.XORI,
    Op.SLL, Op.SLLI, Op.SRL, Op.SRLI, Op.SRA, Op.SRAI,
    Op.SEQ, Op.SEQI, Op.SNE, Op.SNEI, Op.SLT, Op.SLTI,
    Op.SLE, Op.SLEI, Op.SGT, Op.SGTI, Op.SGE, Op.SGEI, Op.SLTU,
))


class ValueNumbering:
    """Value numbering over one straight-line window of machine code.

    Both the emitter-side elision pass below and the independent
    re-derivation in :mod:`repro.verify.factcheck` rely on the same
    guarantee: two operands with equal numbers hold equal runtime
    values on every execution that traverses the window.
    """

    __slots__ = ("_regs", "_keys", "_next")

    def __init__(self):
        self._regs = {}             # int reg number -> value number
        self._keys = {}             # structural key -> value number
        self._next = 0

    def reset(self) -> None:
        self._regs.clear()
        self._keys.clear()

    def _fresh(self) -> int:
        self._next += 1
        return self._next

    def _keyed(self, key) -> int:
        vn = self._keys.get(key)
        if vn is None:
            vn = self._keys[key] = self._fresh()
        return vn

    def reg(self, reg) -> int:
        reg = int(reg)
        if reg == 0:                # hardwired zero
            return self._keyed(("li", 0))
        vn = self._regs.get(reg)
        if vn is None:
            vn = self._regs[reg] = self._fresh()
        return vn

    def define(self, instr) -> None:
        """Record the int-register definition of ``instr`` (memory
        address operands must be read *before* calling this)."""
        op = instr.op
        dst = instr.a
        if dst is None or int(dst) == 0:
            return
        if op is Op.MOV:
            self._regs[int(dst)] = self.reg(instr.b)
        elif op is Op.LI and isinstance(instr.b, int):
            self._regs[int(dst)] = self._keyed(("li", int(instr.b)))
        elif op in (Op.NEG, Op.NOT):
            self._regs[int(dst)] = self._keyed((op, self.reg(instr.b)))
        elif op in _VN_KEYED:
            left = self.reg(instr.b)
            if isinstance(instr.c, int) and op.name.endswith("I"):
                self._regs[int(dst)] = self._keyed((op, left,
                                                    int(instr.c)))
            elif instr.c is not None:
                self._regs[int(dst)] = self._keyed((op, left,
                                                    self.reg(instr.c)))
            else:
                self._regs[int(dst)] = self._fresh()
        else:
            self._regs[int(dst)] = self._fresh()


#: Machine ops that write an integer register, for the VN def scan
#: (imported lazily to keep this importable without the verify pkg).
def _int_dest_ops():
    from repro.verify.ircheck import I_DEST_OPS
    return I_DEST_OPS


def elide_duplicate_checks(body, targets):
    """Rewrite checked memory ops whose address was already checked
    earlier in the same straight-line window into the safe form.

    ``targets`` is the set of body indices that are (or may become)
    jump targets; windows reset there and after breaker ops.  Returns
    the list of body-relative ``("dup", index, anchor)`` facts; the
    anchor access stays checked and executes first, so a bad address
    traps identically with or without the elision.
    """
    int_dest = _int_dest_ops()
    vn = ValueNumbering()
    memo = {}                       # (base vn, offset) -> (index, width)
    facts = []
    for i, instr in enumerate(body):
        if i in targets:
            vn.reset()
            memo.clear()
        op = instr.op
        if op in WINDOW_BREAKERS:
            vn.reset()
            memo.clear()
            continue
        if (op in CHECKED_MEM_OPS or op in SAFE_MEM_OPS) \
                and isinstance(instr.c, int):
            key = (vn.reg(instr.b), int(instr.c))
            width = MEM_WIDTH[op]
            if op in CHECKED_MEM_OPS:
                prior = memo.get(key)
                if prior is not None and prior[1] >= width:
                    instr.op = CHECKED_TO_SAFE[op]
                    facts.append(("dup", i, prior[0]))
                else:
                    memo[key] = (i, width)
            # Safe ops perform no check, so they can't anchor anything.
        if op in int_dest:
            vn.define(instr)
    return facts
