"""Block-local IR optimizations: constant/copy propagation and dead-code
elimination.

These run before register allocation, in the *static* gcc-level pipeline
(our stand-in for the GNU CC baseline) and in the dynamic ICODE back end,
which charges each round to the cost model (``IR_OPTIMIZE``).
"""

from __future__ import annotations

from repro.core.operands import VReg
from repro.icode.flowgraph import block_bounds
from repro.runtime.costmodel import IR_OPTIMIZE
from repro.target.isa import Op, wrap32

#: ops with an immediate twin: reg-form -> (imm-form, python function)
_FOLDABLE = {
    Op.ADD: (Op.ADDI, lambda a, b: a + b),
    Op.SUB: (Op.SUBI, lambda a, b: a - b),
    Op.MUL: (Op.MULI, lambda a, b: a * b),
    Op.AND: (Op.ANDI, lambda a, b: a & b),
    Op.OR: (Op.ORI, lambda a, b: a | b),
    Op.XOR: (Op.XORI, lambda a, b: a ^ b),
    Op.SLL: (Op.SLLI, lambda a, b: a << (b & 31)),
    Op.SRA: (Op.SRAI, lambda a, b: a >> (b & 31)),
    Op.SEQ: (Op.SEQI, lambda a, b: int(a == b)),
    Op.SNE: (Op.SNEI, lambda a, b: int(a != b)),
    Op.SLT: (Op.SLTI, lambda a, b: int(a < b)),
    Op.SLE: (Op.SLEI, lambda a, b: int(a <= b)),
    Op.SGT: (Op.SGTI, lambda a, b: int(a > b)),
    Op.SGE: (Op.SGEI, lambda a, b: int(a >= b)),
}

#: imm-form -> the same python function
_IMM_FOLD = dict(_FOLDABLE.values())

#: Propagation + DCE rounds per :func:`optimize` call, at most.
OPTIMIZE_ROUNDS = 3

#: Memory ops whose base register, when a known constant, can fold into
#: the offset (base becomes the zero register).  Only the analysis
#: pipeline enables this: the rewrite is what exposes absolute-address
#: accesses to const-elision certification.
_MEM_BASE_OPS = frozenset((Op.LW, Op.LB, Op.LBU, Op.SW, Op.SB,
                           Op.FLW, Op.FSW))

#: Target ops with an effect besides writing their destination.
_EFFECT_OPS = frozenset((Op.SW, Op.SB, Op.FSW, Op.JMP, Op.BEQZ, Op.BNEZ,
                         Op.RET, Op.HALT, Op.CALL, Op.CALLR, Op.HOSTCALL,
                         Op.NOP))


def _is_pure(instr) -> bool:
    """Instruction has no effect besides writing its destination vreg."""
    op = instr.op
    if isinstance(op, str) or op in _EFFECT_OPS:
        return False
    # Loads are pure in this IR (no volatile memory).
    return isinstance(instr.a, VReg)


def propagate_block(ir, start: int, end: int, recorder=None,
                    fold_mem_base: bool = False) -> int:
    """Constant and copy propagation within one block; returns the number of
    rewrites performed.  ``recorder`` (a codecache PatchRecorder) is told
    when a tagged immediate is consumed by a fold that strips its
    provenance, so the affected origin stops being patchable."""
    instrs = ir.instrs
    consts: dict = {}  # VReg -> int
    copies: dict = {}  # VReg -> VReg
    rewrites = 0

    def resolve(v):
        if v not in copies:
            return v
        seen = set()
        while v in copies and v not in seen:
            seen.add(v)
            v = copies[v]
        return v

    def kill(v):
        consts.pop(v, None)
        if copies:
            copies.pop(v, None)
            for key in [k for k, val in copies.items() if val == v]:
                del copies[key]

    for i in range(start, end):
        instr = instrs[i]
        op = instr.op
        if isinstance(op, str):
            if op in ("call", "hostcall"):
                if instr.args:
                    new_args = []
                    changed = 0
                    for vr, cls in instr.args:
                        root = resolve(vr) if isinstance(vr, VReg) else vr
                        if root is not vr:
                            changed += 1
                        new_args.append((root, cls))
                    if changed:
                        instr.rewrite(args=new_args)
                        rewrites += changed
                if isinstance(instr.target, VReg):
                    root = resolve(instr.target)
                    if root is not instr.target:
                        instr.rewrite(target=root)
                if isinstance(instr.a, VReg):
                    kill(instr.a)
            elif op == "ret" and isinstance(instr.a, VReg):
                root = resolve(instr.a)
                if root is not instr.a:
                    instr.rewrite(a=root)
            elif op == "getarg" and isinstance(instr.a, VReg):
                kill(instr.a)
            continue
        # Rewrite sources through the copy/const environment.
        for field in ("b", "c"):
            v = getattr(instr, field)
            if isinstance(v, VReg):
                root = resolve(v)
                if root is not v:
                    instr.rewrite(**{field: root})
                    rewrites += 1
        if (fold_mem_base and op in _MEM_BASE_OPS
                and isinstance(instr.b, VReg) and instr.b in consts
                and isinstance(instr.c, int)):
            base_const = consts[instr.b]
            if isinstance(base_const, int) and \
                    not isinstance(base_const, bool):
                # Fold the constant base into the offset; the engines
                # compute addresses exactly (no wrapping), so the plain
                # sum preserves trap addresses bit for bit.
                folded = int(base_const) + int(instr.c)
                if recorder is not None:
                    folded = recorder.fold_binary("+", base_const,
                                                  instr.c, folded)
                instr.rewrite(b=None, c=folded)
                rewrites += 1
        if op in (Op.SW, Op.SB, Op.FSW, Op.BEQZ, Op.BNEZ):
            if isinstance(instr.a, VReg):
                root = resolve(instr.a)
                if root is not instr.a:
                    instr.rewrite(a=root)
            continue
        if op in (Op.JMP, Op.RET, Op.HALT, Op.NOP):
            continue
        dst = instr.a
        # Fold register forms to immediate forms, and immediates to LI.
        if op in _FOLDABLE and isinstance(instr.c, VReg) and instr.c in consts:
            imm_op, fn = _FOLDABLE[op]
            instr.rewrite(op=imm_op, c=consts[instr.c])
            op = imm_op
            rewrites += 1
        if op in _IMM_FOLD and isinstance(instr.b, VReg) and instr.b in consts:
            if recorder is not None:
                # The fold collapses both immediates into one plain LI;
                # any provenance they carried steers the folded value.
                recorder.pin_value(consts[instr.b])
                recorder.pin_value(instr.c)
            value = wrap32(_IMM_FOLD[op](consts[instr.b], instr.c))
            instr.rewrite(op=Op.LI, a=dst, b=value, c=None)
            op = Op.LI
            rewrites += 1
        if isinstance(dst, VReg):
            kill(dst)
            if op is Op.LI:
                consts[dst] = instr.b
            elif op is Op.MOV and isinstance(instr.b, VReg):
                src = instr.b
                if src in consts:
                    instr.rewrite(op=Op.LI, b=consts[src])
                    consts[dst] = instr.b
                    rewrites += 1
                else:
                    copies[dst] = src
    return rewrites


def fold_dead_branches(ir, verdicts, recorder=None) -> int:
    """Rewrite conditional branches the dataflow analysis proved
    one-sided: an always-taken branch becomes a ``JMP`` (dropping the
    taken-branch penalty cycle), a never-taken branch is deleted.  In
    both cases the condition computation goes dead and the next DCE
    round collects it.

    ``verdicts`` maps instruction index -> ``(taken, tags)`` as
    produced by :func:`repro.analysis.dataflow.analyze`.  Every origin
    in ``tags`` is pinned on ``recorder``: the decision depended on
    those hole values, so a template clone must not patch them.
    """
    if not verdicts:
        return 0
    folded = 0
    keep = []
    for i, instr in enumerate(ir.instrs):
        verdict = verdicts.get(i)
        if (verdict is None
                or instr.op not in (Op.BEQZ, Op.BNEZ)):
            keep.append(instr)
            continue
        taken, tags = verdict
        if recorder is not None:
            for origin in tags:
                recorder.pin(origin)
        folded += 1
        if taken:
            instr.rewrite(op=Op.JMP, a=instr.b, b=None, c=None)
            keep.append(instr)
        # Never-taken branches simply disappear.
    if folded:
        ir.instrs = keep
    return folded


def eliminate_dead_code(ir, fg) -> int:
    """Remove pure instructions whose destination is never used (backward
    block-local pass using live-out information).  Returns removals."""
    instrs = ir.instrs
    removed = 0
    dead_indices = set()
    for block in fg.blocks:
        live = set(block.live_out)
        for i in range(block.end - 1, block.start - 1, -1):
            instr = instrs[i]
            defs, uses = instr.defs_uses()
            if defs and live.isdisjoint(defs) and _is_pure(instr):
                dead_indices.add(i)
                removed += 1
                continue
            live.difference_update(defs)
            live.update(uses)
    if dead_indices:
        ir.instrs = [
            instr for i, instr in enumerate(instrs) if i not in dead_indices
        ]
    return removed


def optimize(ir, fg_builder, liveness_fn, cost=None, recorder=None,
             verifier=None, fold_mem_base: bool = False) -> None:
    """Run propagation + DCE to a fixpoint, bounded by
    :data:`OPTIMIZE_ROUNDS`.  ``fg_builder`` and
    ``liveness_fn`` are injected to avoid circular imports.  ``verifier``,
    when given, is called with a pass name after every optimization round
    so paranoid mode can re-check IR well-formedness between passes."""
    for round_no in range(OPTIMIZE_ROUNDS):
        if cost is not None:
            cost.charge(IR_OPTIMIZE, len(ir.instrs))
        work = 0
        for start, end in block_bounds(ir.instrs):
            work += propagate_block(ir, start, end, recorder,
                                    fold_mem_base=fold_mem_base)
        # Propagation rewrites operands but never a label, jump, branch
        # opcode or return, so it keeps the block bounds it ran over; the
        # one graph per round is built after it, for liveness and DCE.
        fg = fg_builder(ir, None)
        liveness_fn(fg, None)
        work += eliminate_dead_code(ir, fg)
        # A round that changed nothing left the IR bit-identical to the
        # version the previous boundary already checked: re-verifying it
        # would prove nothing.
        if verifier is not None and work != 0:
            verifier(f"optimize[{round_no}]")
        if work == 0:
            return
