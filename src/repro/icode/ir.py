"""The ICODE intermediate representation.

The paper's ICODE IR is "compact (two 4-byte machine words per ICODE
instruction) and easy to parse".  Here an :class:`IRInstr` is one record
whose ``op`` is either a real target opcode (:class:`repro.target.isa.Op`)
with :class:`~repro.core.operands.VReg` operands, or one of a few pseudo-ops
(strings):

``"label"``
    marks a jump target (operand ``a`` is the Label),
``"call"`` / ``"hostcall"``
    a call with marshalled arguments (``target``, ``args``, ``dst``),
``"ret"``
    return ``a`` (or nothing) from the generated function.

``defs``/``uses`` extraction for the dataflow passes lives here too.  An
instruction computes them once and caches them; a pass that changes an
operand after recording goes through :meth:`IRInstr.rewrite`, which drops
the cache.  The verifiers recompute them from the operands instead.
"""

from __future__ import annotations

from repro.core.operands import VReg
from repro.target.isa import Op, STORE_OPS

#: target ops whose ``a`` operand is a *source* or a label, not a def
_NO_DEF_OPS = STORE_OPS | {Op.BEQZ, Op.BNEZ, Op.JMP, Op.RET, Op.NOP, Op.HALT}


class IRInstr:
    """One ICODE instruction record."""

    __slots__ = ("op", "a", "b", "c", "target", "args", "ret_cls", "_du")

    def __init__(self, op, a=None, b=None, c=None, target=None, args=None,
                 ret_cls=None):
        self.op = op
        self.a = a
        self.b = b
        self.c = c
        self.target = target    # call target: FuncRef | int | VReg | host name
        self.args = args        # call args: list of (VReg, cls)
        self.ret_cls = ret_cls  # "i" / "f" / None
        self._du = None         # cached defs_uses()

    def rewrite(self, **fields) -> None:
        """Overwrite ``op``/``a``/``b``/``c``/``target``/``args`` after
        recording.  Every such write goes through here, because it drops
        the cached :meth:`defs_uses`."""
        for name, value in fields.items():
            setattr(self, name, value)
        self._du = None

    def defs_uses(self):
        """Return (defs, uses) as tuples of VReg, computed on the first
        call and cached until the next :meth:`rewrite`."""
        du = self._du
        if du is None:
            du = self._du = self.compute_defs_uses()
        return du

    def compute_defs_uses(self):
        """(defs, uses) recomputed from the operands, bypassing the
        cache.  The verifiers use this, so a stale cache shows up as a
        finding rather than as a silent miscompile."""
        defs: list[VReg] = []
        uses: list[VReg] = []
        op = self.op
        if isinstance(op, str):
            if op == "label":
                return (), ()
            if op in ("call", "hostcall"):
                if isinstance(self.target, VReg):
                    uses.append(self.target)
                for vr, _cls in self.args or ():
                    if isinstance(vr, VReg):
                        uses.append(vr)
                if isinstance(self.a, VReg):
                    defs.append(self.a)
            elif op == "ret":
                if isinstance(self.a, VReg):
                    uses.append(self.a)
            elif op == "getarg":
                if isinstance(self.a, VReg):
                    defs.append(self.a)
            else:
                raise AssertionError(f"unknown pseudo op {op!r}")
            return tuple(defs), tuple(uses)
        if op in _NO_DEF_OPS:
            for operand in (self.a, self.b, self.c):
                if isinstance(operand, VReg):
                    uses.append(operand)
            return (), tuple(uses)
        if isinstance(self.a, VReg):
            defs.append(self.a)
        for operand in (self.b, self.c):
            if isinstance(operand, VReg):
                uses.append(operand)
        return tuple(defs), tuple(uses)

    def branch_target(self):
        """The Label this instruction may jump to, if any."""
        if self.op is Op.JMP:
            return self.a
        if self.op in (Op.BEQZ, Op.BNEZ):
            return self.b
        return None

    def ends_block(self) -> bool:
        return self.op in (Op.JMP, Op.BEQZ, Op.BNEZ) or self.op == "ret"

    def __repr__(self) -> str:
        name = self.op if isinstance(self.op, str) else self.op.name.lower()
        parts = [
            str(v) for v in (self.a, self.b, self.c) if v is not None
        ]
        if self.target is not None:
            parts.append(f"-> {self.target}")
        if self.args:
            parts.append("(" + ", ".join(str(v) for v, _ in self.args) + ")")
        return f"{name} " + ", ".join(parts)


class IRFunction:
    """A recorded sequence of IR instructions plus virtual-register info."""

    def __init__(self):
        self.instrs: list[IRInstr] = []
        self.next_vreg = 0
        self.vreg_cls: dict[int, str] = {}
        self.weights: dict[int, float] = {}  # usage-frequency estimates

    def new_vreg(self, cls: str = "i") -> VReg:
        vr = VReg(self.next_vreg, cls)
        self.vreg_cls[self.next_vreg] = cls
        self.next_vreg += 1
        return vr

    def append(self, instr: IRInstr) -> None:
        self.instrs.append(instr)

    def note_use(self, vreg: VReg, weight: float) -> None:
        self.weights[vreg.id] = self.weights.get(vreg.id, 0.0) + weight

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return f"<IRFunction {len(self.instrs)} instrs, {self.next_vreg} vregs>"
