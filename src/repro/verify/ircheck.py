"""Layer 2 — inter-pass IR verifier.

Well-formedness checks over the three shapes code takes on its way through
the ICODE pipeline, so a pass that emits garbage is caught at the pass
boundary (with the pass named in the diagnostic) instead of miscompiling:

* :func:`check_ir` — an :class:`~repro.icode.ir.IRFunction`: every opcode is
  a real target :class:`~repro.target.isa.Op` or a known pseudo, operand
  shapes and register classes match the opcode, every referenced label is
  placed exactly once, every VReg is consistent with the function's class
  table, and no VReg is used without a def anywhere (modulo declared storage
  vregs — uninitialized C locals are legal to read).
* :func:`check_flowgraph` — a :class:`~repro.icode.flowgraph.FlowGraph`:
  blocks partition the instruction range in order, successor/predecessor
  edges are symmetric, and the label/instruction→block maps agree.
* :func:`check_body` — a translated body (a list of target
  :class:`~repro.target.isa.Instruction`): register operands are in range
  for their file, branch targets are placed labels (or the not-yet-placed
  epilogue label), and nothing names ZERO as a destination.

In ``paranoid`` mode the back ends call the runners between lowering,
every optimization round, flowgraph/liveness, translation, and peephole.
"""

from __future__ import annotations

from repro import verify
from repro.core.operands import FuncRef, VReg
from repro.icode.ir import IRInstr
from repro.target.isa import (
    ARG_REGS,
    FARG_REGS,
    NUM_FREGS,
    NUM_REGS,
    Instruction,
    Op,
)
from repro.target.program import Label

_F3 = {Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV}
_F2 = {Op.FMOV, Op.FNEG}
_FCMP = {Op.FSEQ, Op.FSNE, Op.FSLT, Op.FSLE, Op.FSGT, Op.FSGE}
_ILOADS = {Op.LW, Op.LB, Op.LBU, Op.LWS, Op.LBS, Op.LBUS}
_ISTORES = {Op.SW, Op.SB, Op.SWS, Op.SBS}
_PSEUDO_OPS = frozenset({"label", "call", "hostcall", "ret", "getarg"})

#: target ops that write an integer register as their first operand
I_DEST_OPS = frozenset(
    {Op.LI, Op.MOV, Op.NEG, Op.NOT, Op.SLTU, Op.CVTFI}
    | _ILOADS | _FCMP
    | {op for op in Op
       if op.name.rstrip("I") in (
           "ADD", "SUB", "MUL", "DIV", "DIVU", "MOD", "MODU",
           "AND", "OR", "XOR", "SLL", "SRL", "SRA",
           "SEQ", "SNE", "SLT", "SLE", "SGT", "SGE",
       )}
)
#: target ops that write a float register as their first operand
F_DEST_OPS = frozenset({Op.FLI, Op.CVTIF, Op.FLW, Op.FLWS} | _F2 | _F3)


def _diag(diags, rule, message, where):
    diags.append(verify.Diagnostic("ircheck", rule, message, where=where))


def _check_vreg(diags, ir, vr, cls, instr, where) -> None:
    """One VReg operand: the right class for its slot and consistent with
    the IRFunction's class table."""
    if cls is not None and vr.cls != cls:
        _diag(diags, "operand-class",
              f"{instr!r}: operand {vr} has class {vr.cls!r}, "
              f"expected {cls!r}", where)
    recorded = ir.vreg_cls.get(vr.id)
    if recorded is None or vr.id >= ir.next_vreg:
        _diag(diags, "unknown-vreg",
              f"{instr!r}: {vr} is not a vreg of this function", where)
    elif recorded != vr.cls:
        _diag(diags, "vreg-class-mismatch",
              f"{instr!r}: {vr} disagrees with the class table "
              f"({recorded!r})", where)


def _compute_operand_spec(op):
    """(a, b, c) expected classes for a real-op IRInstr: 'i'/'f' for a VReg
    slot, 'int'/'float' immediate, 'label', 'mem-base', or None (absent).
    'i|imm' marks slots that may hold either a VReg or a folded immediate."""
    if op in (Op.HALT, Op.NOP, Op.RET, Op.CALL, Op.CALLR, Op.HOSTCALL):
        return None  # the IR uses pseudo ops for these; no shape to check
    if op in _F3:
        return ("f", "f", "f")
    if op in _F2:
        return ("f", "f", None)
    if op in _FCMP:
        return ("i", "f", "f")
    if op is Op.CVTIF:
        return ("f", "i", None)
    if op is Op.CVTFI:
        return ("i", "f", None)
    if op is Op.FLI:
        return ("f", "float", None)
    if op is Op.LI:
        return ("i", "int", None)
    if op in (Op.FLW, Op.FLWS):
        return ("f", "mem-base", "int")
    if op in (Op.FSW, Op.FSWS):
        return ("f", "mem-base", "int")
    if op in _ILOADS or op in _ISTORES:
        return ("i", "mem-base", "int")
    if op is Op.JMP:
        return ("label", None, None)
    if op in (Op.BEQZ, Op.BNEZ):
        return ("i", "label", None)
    if op.name.endswith("I") and op is not Op.CVTFI:
        return ("i", "i", "int")
    return ("i", "i|imm", "i|imm")


#: op -> operand spec, precomputed (check_ir consults this per instruction).
_OPERAND_SPECS = {op: _compute_operand_spec(op) for op in Op}

# The same specs compiled down for check_ir's hot loop: per slot a
# ``(code, cls, field)`` triple, so the dispatch is an int compare instead
# of a string chain and the expected register class is ready to hand.
(_C_NONE, _C_LABEL, _C_MEMBASE, _C_INT, _C_FLOAT, _C_IIMM,
 _C_VREG) = range(7)
_CODE = {
    None: (_C_NONE, None), "label": (_C_LABEL, None),
    "mem-base": (_C_MEMBASE, "i"), "int": (_C_INT, None),
    "float": (_C_FLOAT, None), "i|imm": (_C_IIMM, "i"),
    "i": (_C_VREG, "i"), "f": (_C_VREG, "f"),
}
_CODED_SPECS = {
    op: None if spec is None else tuple(
        (_CODE[e][0], _CODE[e][1], field)
        for e, field in zip(spec, "abc"))
    for op, spec in _OPERAND_SPECS.items()
}


#: Default for ``storage``: no C-variable-backed vregs.
_NO_STORAGE = frozenset()


def check_ir(ir, pass_name: str, storage=_NO_STORAGE) -> list:
    """Verify one IRFunction after the pass named ``pass_name``.

    ``storage`` is the set of VRegs that back C variables; reading one
    without a prior def is legal (an uninitialized local), so they are
    exempt from the undefined-vreg rule.
    """
    diags: list = []
    where = pass_name
    placed: dict = {}       # id(Label) -> count
    referenced: dict = {}   # id(Label) -> Label
    defined: set = set(storage)
    maybe_undefined: dict = {}   # vreg -> first not-yet-defined use
    vreg_cls = ir.vreg_cls
    next_vreg = ir.next_vreg

    def note_defs_uses(instr):
        d, u = instr.compute_defs_uses()
        for vr in u:
            if vr not in defined and vr not in maybe_undefined:
                maybe_undefined[vr] = instr
        defined.update(d)

    for instr in ir.instrs:
        if not isinstance(instr, IRInstr):
            _diag(diags, "bad-instr", f"{instr!r} is not an IRInstr", where)
            continue
        op = instr.op
        if isinstance(op, str):
            if op not in _PSEUDO_OPS:
                _diag(diags, "unknown-op",
                      f"unknown pseudo op {op!r}", where)
                continue
            if op == "label":
                if not isinstance(instr.a, Label):
                    _diag(diags, "bad-label",
                          f"{instr!r}: label pseudo without a Label operand",
                          where)
                else:
                    placed[id(instr.a)] = placed.get(id(instr.a), 0) + 1
                    referenced.setdefault(id(instr.a), instr.a)
            elif op in ("call", "hostcall"):
                if instr.ret_cls not in (None, "i", "f"):
                    _diag(diags, "bad-ret-cls",
                          f"{instr!r}: ret_cls {instr.ret_cls!r}", where)
                if instr.a is not None:
                    if not isinstance(instr.a, VReg):
                        _diag(diags, "bad-operand",
                              f"{instr!r}: call dst is not a VReg", where)
                    else:
                        _check_vreg(diags, ir, instr.a, instr.ret_cls,
                                    instr, where)
                for entry in instr.args or ():
                    if (not isinstance(entry, tuple) or len(entry) != 2
                            or not isinstance(entry[0], VReg)):
                        _diag(diags, "bad-operand",
                              f"{instr!r}: malformed call arg {entry!r}",
                              where)
                        continue
                    _check_vreg(diags, ir, entry[0], entry[1], instr, where)
                if op == "hostcall" and not isinstance(instr.target,
                                                      (str, int)):
                    _diag(diags, "bad-operand",
                          f"{instr!r}: hostcall target {instr.target!r}",
                          where)
                if op == "call" and isinstance(instr.target, VReg):
                    _check_vreg(diags, ir, instr.target, "i", instr, where)
            elif op == "ret":
                if instr.a is not None and isinstance(instr.a, VReg):
                    _check_vreg(diags, ir, instr.a, instr.ret_cls, instr,
                                where)
            elif op == "getarg":
                bank = FARG_REGS if instr.ret_cls == "f" else ARG_REGS
                if not isinstance(instr.a, VReg):
                    _diag(diags, "bad-operand",
                          f"{instr!r}: getarg dst is not a VReg", where)
                else:
                    _check_vreg(diags, ir, instr.a, instr.ret_cls, instr,
                                where)
                if not isinstance(instr.b, int) or not (
                        0 <= instr.b < len(bank)):
                    _diag(diags, "bad-operand",
                          f"{instr!r}: getarg index {instr.b!r} out of range",
                          where)
            note_defs_uses(instr)
            continue
        if not isinstance(op, Op):
            _diag(diags, "unknown-op", f"unknown op {op!r}", where)
            continue
        spec = _CODED_SPECS[op]
        if spec is None:
            note_defs_uses(instr)
            continue
        sa, sb, sc = spec
        for value, (code, cls, field) in ((instr.a, sa), (instr.b, sb),
                                          (instr.c, sc)):
            if code == _C_VREG:
                # Fast path: a VReg of the expected class that agrees with
                # the function's class table needs no diagnostics.
                if (value.__class__ is VReg and value.cls == cls
                        and vreg_cls.get(value.id) == cls
                        and value.id < next_vreg):
                    continue
                if isinstance(value, VReg):
                    _check_vreg(diags, ir, value, cls, instr, where)
                else:
                    _diag(diags, "bad-operand",
                          f"{instr!r}: operand {field}={value!r} is not a "
                          f"VReg", where)
                continue
            if code == _C_IIMM:
                if value is None or value.__class__ is int:
                    continue
                if isinstance(value, VReg):
                    _check_vreg(diags, ir, value, "i", instr, where)
                elif not isinstance(value, (int, float)):
                    _diag(diags, "bad-operand",
                          f"{instr!r}: operand {value!r}", where)
                continue
            if code == _C_NONE:
                if value is not None:
                    _diag(diags, "bad-operand",
                          f"{instr!r}: unexpected operand {field}={value!r}",
                          where)
                continue
            if code == _C_INT:
                if not isinstance(value, (int, FuncRef)):
                    _diag(diags, "bad-operand",
                          f"{instr!r}: immediate {value!r} is not an int",
                          where)
                continue
            if code == _C_MEMBASE:
                # None means the ZERO base register (absolute addressing).
                if value is not None and not isinstance(value, VReg):
                    _diag(diags, "bad-operand",
                          f"{instr!r}: memory base {value!r}", where)
                elif isinstance(value, VReg):
                    _check_vreg(diags, ir, value, "i", instr, where)
                continue
            if code == _C_LABEL:
                if not isinstance(value, Label):
                    _diag(diags, "bad-operand",
                          f"{instr!r}: branch target {value!r} is not a "
                          f"Label", where)
                else:
                    referenced.setdefault(id(value), value)
                continue
            # _C_FLOAT
            if not isinstance(value, (int, float)):
                _diag(diags, "bad-operand",
                      f"{instr!r}: immediate {value!r} is not a float",
                      where)
        note_defs_uses(instr)

    for label_id, label in referenced.items():
        count = placed.get(label_id, 0)
        if count == 0:
            _diag(diags, "unplaced-label",
                  f"branch target {label!r} is never placed", where)
        elif count > 1:
            _diag(diags, "duplicate-label",
                  f"label {label!r} placed {count} times", where)

    for vr, instr in maybe_undefined.items():
        if vr not in defined:   # flow-insensitive: any def anywhere counts
            _diag(diags, "undefined-vreg",
                  f"{instr!r}: {vr} is used but never defined", where)
    return diags


def check_flowgraph(ir, fg, pass_name: str) -> list:
    """Verify flowgraph invariants against the IR it was built from."""
    diags: list = []
    where = pass_name
    n = len(ir.instrs)
    blocks = fg.blocks
    expected_start = 0
    for i, block in enumerate(blocks):
        if block.index != i:
            _diag(diags, "block-order",
                  f"block {i} records index {block.index}", where)
        if block.start != expected_start or block.end < block.start:
            _diag(diags, "block-partition",
                  f"block {i} spans [{block.start}:{block.end}), expected "
                  f"start {expected_start}", where)
        expected_start = block.end
        for succ in block.succs:
            if not (0 <= succ < len(blocks)):
                _diag(diags, "bad-edge",
                      f"block {i} -> nonexistent block {succ}", where)
            elif i not in blocks[succ].preds:
                _diag(diags, "asymmetric-edge",
                      f"edge {i}->{succ} missing from preds", where)
        for pred in block.preds:
            if not (0 <= pred < len(blocks)):
                _diag(diags, "bad-edge",
                      f"block {i} <- nonexistent block {pred}", where)
            elif i not in blocks[pred].succs:
                _diag(diags, "asymmetric-edge",
                      f"edge {pred}->{i} missing from succs", where)
    if blocks and expected_start != n:
        _diag(diags, "block-partition",
              f"blocks cover [0:{expected_start}) of {n} instructions",
              where)
    if len(fg.instr_block) != n:
        _diag(diags, "instr-block",
              f"instr_block has {len(fg.instr_block)} entries for {n} "
              f"instructions", where)
    else:
        for i, bi in enumerate(fg.instr_block):
            if not (0 <= bi < len(blocks)) or not (
                    blocks[bi].start <= i < blocks[bi].end):
                _diag(diags, "instr-block",
                      f"instruction {i} mapped to block {bi} outside its "
                      f"range", where)
    for label_id, bi in fg.label_block.items():
        if not (0 <= bi < len(blocks)):
            _diag(diags, "label-block",
                  f"label {label_id} mapped to nonexistent block {bi}",
                  where)
    return diags


def check_body(body, labels, epilogue_label, pass_name: str) -> list:
    """Verify a translated (pre-install) body of target instructions."""
    diags: list = []
    where = pass_name
    n = len(body)
    placed = {id(lb) for lb in labels if lb.address is not None}

    def check_target(instr, value) -> None:
        if isinstance(value, Label):
            if value is epilogue_label:
                return  # placed later, by install_function
            if id(value) not in placed and value.address is None:
                _diag(diags, "unplaced-label",
                      f"{instr!r}: branch to unplaced label {value!r}",
                      where)
            elif value.address is not None and not (
                    0 <= value.address <= n):
                _diag(diags, "bad-branch-target",
                      f"{instr!r}: label address {value.address} outside "
                      f"body of {n}", where)
            return
        if isinstance(value, FuncRef):
            return
        if not isinstance(value, int) or value < 0:
            _diag(diags, "bad-branch-target",
                  f"{instr!r}: branch target {value!r}", where)

    for instr in body:
        if not isinstance(instr, Instruction) or not isinstance(instr.op, Op):
            _diag(diags, "bad-instr",
                  f"{instr!r} is not a target instruction", where)
            continue
        op = instr.op
        if op in I_DEST_OPS:
            if not isinstance(instr.a, int) or not (0 <= instr.a < NUM_REGS):
                _diag(diags, "bad-register",
                      f"{instr!r}: integer destination {instr.a!r}", where)
            elif instr.a == 0:
                _diag(diags, "zero-dest",
                      f"{instr!r}: writes the hardwired ZERO register",
                      where)
        elif op in F_DEST_OPS:
            if not isinstance(instr.a, int) or not (
                    0 <= instr.a < NUM_FREGS):
                _diag(diags, "bad-register",
                      f"{instr!r}: float destination {instr.a!r}", where)
        if op is Op.JMP or op is Op.CALL:
            check_target(instr, instr.a)
        elif op in (Op.BEQZ, Op.BNEZ):
            if not isinstance(instr.a, int) or not (0 <= instr.a < NUM_REGS):
                _diag(diags, "bad-register",
                      f"{instr!r}: condition register {instr.a!r}", where)
            check_target(instr, instr.b)
        elif op is Op.CALLR:
            if not isinstance(instr.a, int) or not (0 <= instr.a < NUM_REGS):
                _diag(diags, "bad-register",
                      f"{instr!r}: call-target register {instr.a!r}", where)
        elif op is Op.HOSTCALL:
            if not isinstance(instr.a, int) or instr.a < 0:
                _diag(diags, "bad-hostcall",
                      f"{instr!r}: hostcall index {instr.a!r}", where)
    return diags


def run_ir(ir, pass_name: str, storage=_NO_STORAGE) -> None:
    verify.run_checker("ircheck", check_ir, ir, pass_name, storage)


def run_flowgraph(ir, fg, pass_name: str) -> None:
    verify.run_checker("ircheck", check_flowgraph, ir, fg, pass_name)


def run_body(body, labels, epilogue_label, pass_name: str) -> None:
    verify.run_checker("ircheck", check_body, body, labels, epilogue_label,
                       pass_name)
