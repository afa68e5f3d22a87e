"""Link-time pruning of the ICODE-to-binary translator.

tcc 5.2: "ICODE has several hundred instructions (the cross product of
operation kinds and operand types), and the code to translate and
peephole-optimize each instruction is on the order of 100 instructions ...
tcc therefore keeps track of the ICODE instructions used by an application
and automatically creates a customized ICODE back end containing code to
only translate the required instructions", encoding usage in dummy symbol
names that a pre-linking pass collects.  "This simple trick cuts the size
of the ICODE library by up to an order of magnitude for most programs."

The reproduction's analog: statically scan a compiled program's tick
expressions for the backend macros their CGFs can invoke, and report the
size of the pruned translator versus the full one.
"""

from __future__ import annotations

from repro.frontend import cast
from repro.frontend import typesys as T
from repro.target.isa import Op

#: Instructions every generated function needs (prologue/epilogue, moves).
_BASELINE_OPS = frozenset({
    Op.MOV, Op.LI, Op.ADDI, Op.SUBI, Op.SW, Op.LW, Op.JMP, Op.RET,
})

#: Modeled host-instruction footprint of one translator case (paper: "on
#: the order of 100 instructions" per ICODE instruction).
TRANSLATOR_CASE_SIZE = 100

#: ICODE's full instruction set size ("several hundred instructions").
FULL_ISA_SIZE = len(Op)


_INT_BINOP_OPS = {
    "+": (Op.ADD, Op.ADDI),
    "-": (Op.SUB, Op.SUBI),
    "*": (Op.MUL, Op.MULI, Op.SLL, Op.SLLI, Op.NEG),
    "/": (Op.DIV, Op.DIVI, Op.DIVU, Op.DIVUI, Op.SRA, Op.SRAI, Op.SRL,
          Op.SRLI, Op.ADD),
    "%": (Op.MOD, Op.MODI, Op.MODU, Op.MODUI, Op.AND, Op.ANDI),
    "&": (Op.AND, Op.ANDI),
    "|": (Op.OR, Op.ORI),
    "^": (Op.XOR, Op.XORI),
    "<<": (Op.SLL, Op.SLLI),
    ">>": (Op.SRA, Op.SRAI, Op.SRL, Op.SRLI),
    "==": (Op.SEQ, Op.SEQI),
    "!=": (Op.SNE, Op.SNEI),
    "<": (Op.SLT, Op.SLTI),
    "<=": (Op.SLE, Op.SLEI),
    ">": (Op.SGT, Op.SGTI),
    ">=": (Op.SGE, Op.SGEI),
}

_FLT_BINOP_OPS = {
    "+": (Op.FADD,),
    "-": (Op.FSUB,),
    "*": (Op.FMUL,),
    "/": (Op.FDIV,),
    "==": (Op.FSEQ,),
    "!=": (Op.FSNE,),
    "<": (Op.FSLT,),
    "<=": (Op.FSLE,),
    ">": (Op.FSGT,),
    ">=": (Op.FSGE,),
}


class UsedOpsReport:
    """The outcome of the link-time scan for one program."""

    def __init__(self, used_ops):
        self.used_ops = frozenset(used_ops)

    @property
    def used_count(self) -> int:
        return len(self.used_ops)

    @property
    def full_size(self) -> int:
        return FULL_ISA_SIZE * TRANSLATOR_CASE_SIZE

    @property
    def pruned_size(self) -> int:
        return self.used_count * TRANSLATOR_CASE_SIZE

    @property
    def reduction_factor(self) -> float:
        return self.full_size / max(self.pruned_size, 1)

    def __repr__(self) -> str:
        return (
            f"<UsedOpsReport {self.used_count}/{FULL_ISA_SIZE} opcodes, "
            f"{self.reduction_factor:.1f}x smaller translator>"
        )


def _expr_ops(expr, used) -> None:
    ty = getattr(expr, "ty", None)
    is_float = ty is not None and ty.is_float()
    if isinstance(expr, cast.Binary):
        table = _FLT_BINOP_OPS if (
            is_float or expr.left.ty is not None and
            T.decay(expr.left.ty).is_float()
        ) else _INT_BINOP_OPS
        used.update(table.get(expr.op, ()))
        if expr.op in ("&&", "||"):
            used.update((Op.BEQZ, Op.BNEZ, Op.JMP, Op.LI))
    elif isinstance(expr, cast.Unary):
        if expr.op == "-":
            used.add(Op.FNEG if is_float else Op.NEG)
        elif expr.op == "~":
            used.add(Op.NOT)
        elif expr.op == "!":
            used.update((Op.SEQI,))
        elif expr.op == "*":
            used.update(_access_ops(ty))
        elif expr.op in ("++", "--", "post++", "post--"):
            used.update((Op.ADDI,))
    elif isinstance(expr, cast.Index):
        used.update(_access_ops(ty))
        used.update((Op.SLLI, Op.ADD))
    elif isinstance(expr, cast.Ident):
        decl_ty = getattr(expr.decl, "ty", None)
        if decl_ty is not None and not (decl_ty.is_cspec() or
                                        decl_ty.is_vspec()):
            used.update(_access_ops(T.decay(decl_ty)))
    elif isinstance(expr, cast.Cond):
        # a ternary lowers to a branch diamond, exactly like an if
        used.update((Op.BEQZ, Op.BNEZ, Op.JMP))
    elif isinstance(expr, cast.Call):
        used.update((Op.CALL, Op.CALLR, Op.MOV))
    elif isinstance(expr, cast.Cast):
        src_f = T.decay(expr.expr.ty).is_float() if expr.expr.ty else False
        dst_f = expr.target_type.is_float()
        if src_f != dst_f:
            used.add(Op.CVTIF if dst_f else Op.CVTFI)
    elif isinstance(expr, (cast.IntLit, cast.Dollar, cast.SizeofType,
                           cast.SizeofExpr)):
        used.add(Op.LI)
    elif isinstance(expr, cast.FloatLit):
        used.add(Op.FLI)
    elif isinstance(expr, cast.StrLit):
        used.add(Op.LI)


def _access_ops(ty):
    if ty is None:
        return (Op.LW, Op.SW)
    if ty.is_float():
        return (Op.FLW, Op.FSW, Op.FMOV)
    if isinstance(ty, T.IntType) and ty.kind == "char":
        return (Op.LB, Op.LBU, Op.SB)
    return (Op.LW, Op.SW)


def collect_used_ops(program) -> UsedOpsReport:
    """Scan every tick expression of a compiled program for the target
    opcodes its CGFs may emit."""
    used = set(_BASELINE_OPS)
    for fn in program.tu.functions.values():
        for tick in fn.ticks:
            for node in cast.walk(tick.body):
                if isinstance(node, cast.Expr):
                    _expr_ops(node, used)
                elif isinstance(node, (cast.If, cast.While, cast.DoWhile,
                                       cast.For)):
                    used.update((Op.BEQZ, Op.BNEZ, Op.JMP))
                elif isinstance(node, cast.Switch):
                    used.update((Op.SEQI, Op.BNEZ, Op.JMP))
                elif isinstance(node, cast.Return):
                    used.update((Op.MOV, Op.JMP))
    return UsedOpsReport(used)


def emitter_size_estimate(report: UsedOpsReport) -> dict:
    """Sizes (in modeled host instructions) of full vs pruned translators."""
    return {
        "full": report.full_size,
        "pruned": report.pruned_size,
        "reduction_factor": report.reduction_factor,
    }
