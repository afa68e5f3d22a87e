"""Instruction set of the simulated 32-bit RISC target.

The ISA is a load/store three-address machine in the MIPS/SPARC mold the
paper targets: 32-bit integer registers with a hardwired zero, a separate
double-precision float register file, and a small fixed calling convention
(arguments in ``a0``-``a5``/``f1``-``f3``, results in ``rv``/``f0``,
callee-saved ``s0``-``s11``/``f6``-``f15``).

Code addresses are *instruction indices*, not byte addresses: the machine
is Harvard-style, with the code segment separate from data memory.  For
locality modeling every instruction occupies :data:`INSTRUCTION_BYTES`.

The cycle model (:data:`CYCLE_COST`) is patterned on the microSPARC the
paper measured on: single-cycle ALU ops, two-cycle memory ops, a 20-cycle
integer multiply, and a 40-cycle divide — which is what makes the paper's
strength-reduction and run-time-constant folding measurably worthwhile.
Taken conditional branches cost one extra cycle (charged by the CPU).
"""

from __future__ import annotations

import enum
import math
import struct

from repro.errors import IllegalInstruction

#: Modeled size of one instruction, used by the I-cache model.
INSTRUCTION_BYTES = 4


def wrap32(value: int) -> int:
    """Reduce ``value`` to a signed 32-bit integer (two's complement)."""
    value &= 0xFFFFFFFF
    return value - 0x1_0000_0000 if value >= 0x8000_0000 else value


def unsigned32(value: int) -> int:
    """The unsigned 32-bit view of ``value``."""
    return value & 0xFFFFFFFF


class Reg(enum.IntEnum):
    """Integer registers.  The numbering is part of the ABI: host
    callbacks peek at ``cpu.regs[Reg.A0]`` and write ``cpu.regs[Reg.RV]``.
    """

    ZERO = 0   # hardwired zero; writes are discarded
    RA = 1     # return address
    RV = 2     # integer return value
    SP = 3     # stack pointer
    A0 = 4     # integer/pointer arguments
    A1 = 5
    A2 = 6
    A3 = 7
    A4 = 8
    A5 = 9
    T0 = 10    # caller-saved temporaries (free for hand-written code)
    T1 = 11
    X0 = 12    # assembler temporaries (VCODE spill/reload scratch)
    X1 = 13
    S0 = 14    # callee-saved; the dynamic back ends allocate from these
    S1 = 15
    S2 = 16
    S3 = 17
    S4 = 18
    S5 = 19
    S6 = 20
    S7 = 21
    S8 = 22
    S9 = 23
    S10 = 24
    S11 = 25


class FReg(enum.IntEnum):
    """Double-precision float registers (a separate register file)."""

    F0 = 0     # float return value
    F1 = 1     # float arguments
    F2 = 2
    F3 = 3
    F4 = 4     # assembler temporaries
    F5 = 5
    F6 = 6     # callee-saved; allocatable
    F7 = 7
    F8 = 8
    F9 = 9
    F10 = 10
    F11 = 11
    F12 = 12
    F13 = 13
    F14 = 14
    F15 = 15


NUM_REGS = len(Reg)
NUM_FREGS = len(FReg)

#: Argument registers, in order.
ARG_REGS = (Reg.A0, Reg.A1, Reg.A2, Reg.A3, Reg.A4, Reg.A5)
FARG_REGS = (FReg.F1, FReg.F2, FReg.F3)

#: Registers the dynamic back ends may allocate (all callee-saved, so a
#: generated function's values survive the calls it makes).
ALLOCATABLE_REGS = (Reg.S0, Reg.S1, Reg.S2, Reg.S3, Reg.S4, Reg.S5,
                    Reg.S6, Reg.S7, Reg.S8, Reg.S9, Reg.S10, Reg.S11)
ALLOCATABLE_FREGS = (FReg.F6, FReg.F7, FReg.F8, FReg.F9, FReg.F10,
                     FReg.F11, FReg.F12, FReg.F13, FReg.F14, FReg.F15)


class Op(enum.Enum):
    """Target opcodes.  ``*I`` variants take an immediate last operand."""

    # control
    HALT = enum.auto()       # stop the machine (the sentinel at address 0)
    NOP = enum.auto()
    JMP = enum.auto()        # jmp target
    BEQZ = enum.auto()       # beqz rs, target
    BNEZ = enum.auto()       # bnez rs, target
    CALL = enum.auto()       # call target          (ra <- return address)
    CALLR = enum.auto()      # callr rt             (indirect call)
    RET = enum.auto()        # ret                  (pc <- ra)
    HOSTCALL = enum.auto()   # hostcall idx         (call into the host)
    # constants and moves
    LI = enum.auto()         # li rd, imm
    MOV = enum.auto()        # mov rd, rs
    NEG = enum.auto()
    NOT = enum.auto()
    # integer arithmetic (rd, ra, rb/imm)
    ADD = enum.auto(); ADDI = enum.auto()
    SUB = enum.auto(); SUBI = enum.auto()
    MUL = enum.auto(); MULI = enum.auto()
    DIV = enum.auto(); DIVI = enum.auto()
    DIVU = enum.auto(); DIVUI = enum.auto()
    MOD = enum.auto(); MODI = enum.auto()
    MODU = enum.auto(); MODUI = enum.auto()
    AND = enum.auto(); ANDI = enum.auto()
    OR = enum.auto(); ORI = enum.auto()
    XOR = enum.auto(); XORI = enum.auto()
    SLL = enum.auto(); SLLI = enum.auto()
    SRL = enum.auto(); SRLI = enum.auto()
    SRA = enum.auto(); SRAI = enum.auto()
    # comparisons (rd <- 0/1)
    SEQ = enum.auto(); SEQI = enum.auto()
    SNE = enum.auto(); SNEI = enum.auto()
    SLT = enum.auto(); SLTI = enum.auto()
    SLE = enum.auto(); SLEI = enum.auto()
    SGT = enum.auto(); SGTI = enum.auto()
    SGE = enum.auto(); SGEI = enum.auto()
    SLTU = enum.auto()
    # memory (reg, base, offset)
    LW = enum.auto(); SW = enum.auto()
    LB = enum.auto(); LBU = enum.auto(); SB = enum.auto()
    FLW = enum.auto(); FSW = enum.auto()
    # proven-safe memory (reg, base, offset): same semantics as the
    # checked form on valid addresses, but the modeled bounds/region
    # check has been discharged statically, so they cost one cycle
    # instead of two.  Only the dataflow analysis may emit these, and
    # every one must carry an exported fact the verifier can re-prove.
    LWS = enum.auto(); SWS = enum.auto()
    LBS = enum.auto(); LBUS = enum.auto(); SBS = enum.auto()
    FLWS = enum.auto(); FSWS = enum.auto()
    # floating point
    FLI = enum.auto()        # fli fd, imm
    FMOV = enum.auto()
    FNEG = enum.auto()
    FADD = enum.auto(); FSUB = enum.auto()
    FMUL = enum.auto(); FDIV = enum.auto()
    FSEQ = enum.auto(); FSNE = enum.auto()   # fcmp rd, fa, fb
    FSLT = enum.auto(); FSLE = enum.auto()
    FSGT = enum.auto(); FSGE = enum.auto()
    CVTIF = enum.auto()      # cvtif fd, rs
    CVTFI = enum.auto()      # cvtfi rd, fs  (truncates toward zero)


# Identity hashing in C: ``Enum.__hash__`` runs Python code on every
# ``op in SET`` and Op-keyed dict probe.  Set here, before any such set
# or dict exists.  Nothing may depend on the iteration order of an Op
# set or dict.
Op.__hash__ = object.__hash__


#: Ops that write memory (the IR needs to know they define no register).
STORE_OPS = {Op.SW, Op.SB, Op.FSW, Op.SWS, Op.SBS, Op.FSWS}

#: Checked memory op -> its proven-safe variant, and back.  The modeled
#: story: a two-cycle memory op is one cycle of bounds/region check plus
#: one cycle of access, so an access proven in-bounds by the dataflow
#: analysis (:mod:`repro.analysis.dataflow`) skips the check cycle.
CHECKED_TO_SAFE = {
    Op.LW: Op.LWS, Op.SW: Op.SWS, Op.LB: Op.LBS, Op.LBU: Op.LBUS,
    Op.SB: Op.SBS, Op.FLW: Op.FLWS, Op.FSW: Op.FSWS,
}
SAFE_TO_CHECKED = {safe: chk for chk, safe in CHECKED_TO_SAFE.items()}

#: The proven-safe memory opcodes (every one needs an exported fact).
SAFE_MEM_OPS = frozenset(SAFE_TO_CHECKED)

#: Access width in bytes, for checked and safe memory forms alike.
MEM_WIDTH = {Op.LW: 4, Op.SW: 4, Op.LB: 1, Op.LBU: 1, Op.SB: 1,
             Op.FLW: 8, Op.FSW: 8}
MEM_WIDTH.update({safe: MEM_WIDTH[chk]
                  for chk, safe in CHECKED_TO_SAFE.items()})

#: Ops that transfer control unconditionally or conditionally.
BRANCH_OPS = {Op.JMP, Op.BEQZ, Op.BNEZ, Op.CALL, Op.CALLR, Op.RET}


def _costs() -> dict:
    cost = {op: 1 for op in Op}
    cost[Op.HALT] = 0
    cost[Op.RET] = 2
    cost[Op.CALL] = 2
    cost[Op.CALLR] = 2
    cost[Op.HOSTCALL] = 10
    for op in (Op.LW, Op.SW, Op.LB, Op.LBU, Op.SB, Op.FLW, Op.FSW):
        cost[op] = 2
    for op in SAFE_MEM_OPS:
        cost[op] = 1        # the bounds-check cycle is discharged statically
    cost[Op.MUL] = cost[Op.MULI] = 20
    for op in (Op.DIV, Op.DIVI, Op.DIVU, Op.DIVUI,
               Op.MOD, Op.MODI, Op.MODU, Op.MODUI):
        cost[op] = 40
    for op in (Op.FADD, Op.FSUB, Op.FSEQ, Op.FSNE, Op.FSLT, Op.FSLE,
               Op.FSGT, Op.FSGE):
        cost[op] = 2
    cost[Op.FMUL] = 4
    cost[Op.FDIV] = 12
    cost[Op.CVTIF] = cost[Op.CVTFI] = 4
    return cost


#: Cycles charged per executed instruction.  Taken conditional branches
#: cost one extra cycle on top of this.
CYCLE_COST = _costs()


# -- shared instruction semantics ---------------------------------------------------
# Both execution engines (the reference stepper and the block-dispatch
# engine in :mod:`repro.target.dispatch`) must agree bit-for-bit on the
# trapping arithmetic ops, so their semantics live here, next to the ISA.

def sdiv(x: int, y: int) -> int:
    if y == 0:
        raise IllegalInstruction("integer division by zero")
    q = abs(x) // abs(y)                     # C semantics: truncate toward 0
    return -q if (x < 0) != (y < 0) else q


def smod(x: int, y: int) -> int:
    if y == 0:
        raise IllegalInstruction("integer modulo by zero")
    r = abs(x) % abs(y)                      # sign follows the dividend
    return -r if x < 0 else r


def udiv(x: int, y: int) -> int:
    if y == 0:
        raise IllegalInstruction("unsigned division by zero")
    return unsigned32(x) // unsigned32(y)


def umod(x: int, y: int) -> int:
    if y == 0:
        raise IllegalInstruction("unsigned modulo by zero")
    return unsigned32(x) % unsigned32(y)


def fdiv(x: float, y: float) -> float:
    try:
        return x / y
    except ZeroDivisionError:                # IEEE: x/0 is +-inf, 0/0 is nan
        if x == 0:
            return math.nan
        return math.copysign(1.0, x) * math.copysign(1.0, y) * math.inf


def bit_exact_eq(a, b) -> bool:
    """Operand equality as the machine sees it: ``-0.0`` vs ``0.0`` and
    distinct NaNs never alias, and a float never equals an int."""
    if isinstance(a, float) != isinstance(b, float):
        return False
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


#: Immediate-form opcode -> its register-form base (``ADDI`` -> ``ADD``).
IMM_TO_BASE = {}
for _op in Op:
    if _op.name.endswith("I") and _op.name[:-1] in Op.__members__:
        IMM_TO_BASE[_op] = Op[_op.name[:-1]]
del _op


class Instruction:
    """One target instruction: an opcode and up to three operands.

    Operands are plain Python values: register numbers, immediates,
    :class:`~repro.target.program.Label`\\ s, or
    :class:`~repro.core.operands.FuncRef`\\ s (the latter two are patched
    to absolute code addresses by the linker).
    """

    __slots__ = ("op", "a", "b", "c")

    def __init__(self, op: Op, a=None, b=None, c=None):
        self.op = op
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self) -> str:
        return f"<{disassemble_one(self)}>"


# -- disassembly -------------------------------------------------------------------

#: Operand rendering per op: ``r`` int reg, ``f`` float reg, ``i``
#: immediate, ``j`` code address/label, ``h`` hostcall index, ``m`` a
#: base-reg/offset pair rendered as ``off(base)``.
_FORMATS = {
    Op.HALT: "", Op.NOP: "", Op.RET: "",
    Op.JMP: "j", Op.CALL: "j", Op.CALLR: "r", Op.HOSTCALL: "h",
    Op.BEQZ: "rj", Op.BNEZ: "rj",
    Op.LI: "ri", Op.MOV: "rr", Op.NEG: "rr", Op.NOT: "rr",
    Op.SLTU: "rrr",
    Op.LW: "rm", Op.LB: "rm", Op.LBU: "rm", Op.SW: "rm", Op.SB: "rm",
    Op.FLW: "fm", Op.FSW: "fm",
    Op.LWS: "rm", Op.LBS: "rm", Op.LBUS: "rm", Op.SWS: "rm", Op.SBS: "rm",
    Op.FLWS: "fm", Op.FSWS: "fm",
    Op.FLI: "fi", Op.FMOV: "ff", Op.FNEG: "ff",
    Op.FADD: "fff", Op.FSUB: "fff", Op.FMUL: "fff", Op.FDIV: "fff",
    Op.FSEQ: "rff", Op.FSNE: "rff", Op.FSLT: "rff", Op.FSLE: "rff",
    Op.FSGT: "rff", Op.FSGE: "rff",
    Op.CVTIF: "fr", Op.CVTFI: "rf",
}
for _op in Op:
    if _op not in _FORMATS:
        _FORMATS[_op] = "rri" if _op.name.endswith("I") else "rrr"
del _op


def _reg_name(value) -> str:
    try:
        return Reg(int(value)).name.lower()
    except (ValueError, TypeError):
        return f"r{value}"


def _freg_name(value) -> str:
    try:
        return FReg(int(value)).name.lower()
    except (ValueError, TypeError):
        return f"f?{value}"


def disassemble_one(instr: Instruction) -> str:
    """Render one instruction as assembly text."""
    spec = _FORMATS.get(instr.op, "")
    raw = (instr.a, instr.b, instr.c)
    parts = []
    i = 0
    for kind in spec:
        value = raw[i]
        if kind == "m":
            base, offset = raw[i], raw[i + 1]
            parts.append(f"{offset}({_reg_name(base)})")
            i += 2
            continue
        if value is None:
            i += 1
            continue
        if kind == "r":
            parts.append(_reg_name(value))
        elif kind == "f":
            parts.append(_freg_name(value))
        elif kind == "h":
            parts.append(f"#{value}")
        else:  # immediate, label, or code address
            parts.append(str(value))
        i += 1
    text = instr.op.name.lower()
    if parts:
        text += " " + ", ".join(parts)
    return text


def disassemble(instrs, start: int = 0) -> str:
    """Render a sequence of instructions, one per line, as::

            12: addi sp, sp, -144

    ``start`` is the code address of the first instruction.
    """
    return "\n".join(
        f"{start + i:6d}: {disassemble_one(instr)}"
        for i, instr in enumerate(instrs)
    )
