"""The VCODE dynamic back end: one-pass code emission.

Each emitting method is the analog of one VCODE macro: it performs a small
amount of work (here: appending an :class:`~repro.target.isa.Instruction`;
on real tcc: bit manipulation plus a store) and charges the cost model for
it.  Spilled operands are detected per access, exactly like VCODE's
per-instruction if-statements, and incur an extra ``lvalue_check`` charge.

Register allocation is tcc's getreg/putreg protocol over the callee-saved
``s`` registers.  When ``allow_spills=False``, getreg raises instead of
spilling — the paper's "clients that find these per-instruction
if-statements too expensive can disable them" mode.
"""

from __future__ import annotations

from repro.core.codecache import imm_float, imm_int
from repro.core.install import install_function, spill_offset
from repro.core.operands import FuncRef, PReg, Spill
from repro.errors import CodegenError
from repro.verify import ircheck
from repro.runtime.costmodel import (
    EMIT_GETREG,
    EMIT_INSTR,
    EMIT_LVALUE_CHECK,
    EMIT_PUTREG,
)
from repro.target.isa import (
    ALLOCATABLE_FREGS, ALLOCATABLE_REGS, ARG_REGS, BINOPS, FARG_REGS,
    FBINOPS, FCMPS, FReg, FUNOPS, Instruction, LOADS, Op, Reg, SCRATCH_F,
    SCRATCH_I, STORES, UNOPS,
)
from repro.target.program import Label
from repro.telemetry.metrics import REGISTRY

#: getreg exhaustions that fell back to a spill slot (telemetry; the
#: per-access ``lvalue_check`` charges remain the modeled cost).
_SPILLS = REGISTRY.counter("backend.vcode.spills")


class VcodeBackend:
    """One function's worth of one-pass dynamic code generation."""

    kind = "vcode"

    def __init__(self, machine, cost, allow_spills: bool = True,
                 verify: str = "off"):
        self.machine = machine
        self.cost = cost
        self.allow_spills = allow_spills
        self.verify = verify
        self.body: list[Instruction] = []
        self.labels: list[Label] = []
        self.epilogue_label = Label("epilogue")
        self._free_i = list(ALLOCATABLE_REGS)
        self._free_f = list(ALLOCATABLE_FREGS)
        self._free_spills: list[int] = []
        self.n_spill_slots = 0
        self.used_sregs: set[int] = set()
        self.used_fregs: set[int] = set()
        self.has_call = False
        self._vspec_storage: dict = {}
        self._dyn_labels: dict = {}
        self._installed = False
        self.recorder = None  # codecache PatchRecorder, set by the driver

    # -- register management (getreg / putreg, tcc 5.1) ----------------------

    def alloc_reg(self, cls: str = "i"):
        """getreg: a physical register, or a spilled location when none
        remain."""
        self.cost.charge(EMIT_GETREG)
        pool = self._free_i if cls == "i" else self._free_f
        if pool:
            num = pool.pop()
            if cls == "i":
                self.used_sregs.add(num)
            else:
                self.used_fregs.add(num)
            return PReg(num, cls)
        if not self.allow_spills:
            raise CodegenError(
                "getreg: register pool exhausted and spills are disabled"
            )
        if self._free_spills:
            idx = self._free_spills.pop()
        else:
            idx = self.n_spill_slots
            self.n_spill_slots += 1
        _SPILLS.inc()
        return Spill(idx, cls)

    def free_reg(self, handle) -> None:
        """putreg."""
        if handle is None:
            return
        self.cost.charge(EMIT_PUTREG)
        if isinstance(handle, PReg):
            pool = self._free_i if handle.cls == "i" else self._free_f
            pool.append(handle.num)
        elif isinstance(handle, Spill):
            self._free_spills.append(handle.idx)

    def vspec_storage(self, vspec):
        """Storage for a user-level vspec, allocated on first access
        (tcc 4.2: vspec allocation must be performed dynamically)."""
        handle = self._vspec_storage.get(id(vspec))
        if handle is None:
            handle = self.alloc_reg(vspec.cls)
            self._vspec_storage[id(vspec)] = handle
        return handle

    def note_storage(self, handle) -> None:
        """Mark ``handle`` as backing a C variable.  VCODE works on
        physical registers, so the verifier hint is a no-op here (the IR
        verifier's undefined-vreg rule is ICODE-only)."""

    def loop_enter(self) -> None:  # usage hints are an ICODE extension
        pass

    def loop_exit(self) -> None:
        pass

    # -- operand plumbing -----------------------------------------------------

    def _emit(self, op: Op, a=None, b=None, c=None) -> None:
        self.body.append(Instruction(op, a, b, c))
        self.cost.charge(EMIT_INSTR)
        self.cost.note_instruction()

    def _use(self, handle, scratch: int = 0) -> int:
        """Physical register holding the value of ``handle`` for reading."""
        if isinstance(handle, PReg):
            return handle.num
        if isinstance(handle, Spill):
            self.cost.charge(EMIT_LVALUE_CHECK)
            if handle.cls == "i":
                reg = SCRATCH_I[scratch]
                self._emit(Op.LW, reg, Reg.SP, spill_offset(handle.idx))
            else:
                reg = SCRATCH_F[scratch]
                self._emit(Op.FLW, reg, Reg.SP, spill_offset(handle.idx))
            return reg
        raise CodegenError(f"bad operand handle {handle!r}")

    def _def_target(self, handle) -> int:
        """Physical register an operation should write its result to."""
        if isinstance(handle, PReg):
            return handle.num
        if isinstance(handle, Spill):
            self.cost.charge(EMIT_LVALUE_CHECK)
            return SCRATCH_I[0] if handle.cls == "i" else SCRATCH_F[0]
        raise CodegenError(f"bad destination handle {handle!r}")

    def _def_commit(self, handle, reg: int) -> None:
        if isinstance(handle, Spill):
            if handle.cls == "i":
                self._emit(Op.SW, reg, Reg.SP, spill_offset(handle.idx))
            else:
                self._emit(Op.FSW, reg, Reg.SP, spill_offset(handle.idx))

    # -- emitting macros --------------------------------------------------------

    def li(self, dst, imm) -> None:
        if not isinstance(imm, FuncRef):
            imm = imm_int(imm)  # tag-preserving: a PatchImm stays a hole
        reg = self._def_target(dst)
        self._emit(Op.LI, reg, imm)
        self._def_commit(dst, reg)

    def fli(self, dst, imm: float) -> None:
        reg = self._def_target(dst)
        self._emit(Op.FLI, reg, imm_float(imm))
        self._def_commit(dst, reg)

    def binop(self, opname: str, dst, a, b) -> None:
        op = BINOPS[opname][0]
        ra = self._use(a, 0)
        rb = self._use(b, 1)
        rd = self._def_target(dst)
        self._emit(op, rd, ra, rb)
        self._def_commit(dst, rd)

    def binop_imm(self, opname: str, dst, a, imm: int) -> None:
        op = BINOPS[opname][1]
        if op is None:  # no immediate form: materialize
            tmp = self.alloc_reg("i")
            self.li(tmp, imm)
            self.binop(opname, dst, a, tmp)
            self.free_reg(tmp)
            return
        ra = self._use(a, 0)
        rd = self._def_target(dst)
        self._emit(op, rd, ra, imm_int(imm))
        self._def_commit(dst, rd)

    def unop(self, opname: str, dst, a) -> None:
        op = UNOPS[opname]
        ra = self._use(a, 0)
        rd = self._def_target(dst)
        self._emit(op, rd, ra)
        self._def_commit(dst, rd)

    def fbinop(self, opname: str, dst, a, b) -> None:
        op = FBINOPS[opname]
        ra = self._use(a, 0)
        rb = self._use(b, 1)
        rd = self._def_target(dst)
        self._emit(op, rd, ra, rb)
        self._def_commit(dst, rd)

    def fcmp(self, opname: str, dst, a, b) -> None:
        op = FCMPS[opname]
        ra = self._use(a, 0)
        rb = self._use(b, 1)
        rd = self._def_target(dst)
        self._emit(op, rd, ra, rb)
        self._def_commit(dst, rd)

    def funop(self, opname: str, dst, a) -> None:
        op = FUNOPS[opname]
        ra = self._use(a, 0)
        rd = self._def_target(dst)
        self._emit(op, rd, ra)
        self._def_commit(dst, rd)

    def cvtif(self, fdst, isrc) -> None:
        ra = self._use(isrc, 0)
        rd = self._def_target(fdst)
        self._emit(Op.CVTIF, rd, ra)
        self._def_commit(fdst, rd)

    def cvtfi(self, idst, fsrc) -> None:
        ra = self._use(fsrc, 0)
        rd = self._def_target(idst)
        self._emit(Op.CVTFI, rd, ra)
        self._def_commit(idst, rd)

    def load(self, dst, base, off: int, width: str = "w") -> None:
        op = LOADS[width]
        rb = Reg.ZERO if base is None else self._use(base, 1)
        rd = self._def_target(dst)
        self._emit(op, rd, rb, imm_int(off))
        self._def_commit(dst, rd)

    def store(self, src, base, off: int, width: str = "w") -> None:
        op = STORES[width]
        rs = self._use(src, 0)
        rb = Reg.ZERO if base is None else self._use(base, 1)
        self._emit(op, rs, rb, imm_int(off))

    # -- control flow -----------------------------------------------------------

    def dyn_label(self, key) -> Label:
        """The per-instantiation Label for a dynamic label object created
        by the make_label() special form (shared across composed cspecs)."""
        label = self._dyn_labels.get(id(key))
        if label is None:
            label = self.new_label()
            self._dyn_labels[id(key)] = label
        return label

    def new_label(self) -> Label:
        label = Label()
        self.labels.append(label)
        return label

    def place(self, label: Label) -> None:
        label.address = len(self.body)

    def jmp(self, label: Label) -> None:
        self._emit(Op.JMP, label)

    def beqz(self, src, label: Label) -> None:
        rs = self._use(src, 0)
        self._emit(Op.BEQZ, rs, label)

    def bnez(self, src, label: Label) -> None:
        rs = self._use(src, 0)
        self._emit(Op.BNEZ, rs, label)

    # -- calls --------------------------------------------------------------------

    def call(self, target, args, ret_cls: str | None):
        """Emit a call.  ``args`` is a list of (handle, cls) pairs already
        converted to the parameter types; returns the result handle."""
        self.has_call = True
        self._marshal_args(args)
        if isinstance(target, (FuncRef, int)):
            self._emit(Op.CALL, target)
        else:
            rt = self._use(target, 1)
            self._emit(Op.CALLR, rt)
        return self._take_result(ret_cls)

    def hostcall(self, name: str, args, ret_cls: str | None = None):
        self._marshal_args(args)
        idx = self.machine.host_function_index(name)
        self._emit(Op.HOSTCALL, idx)
        return self._take_result(ret_cls)

    def _marshal_args(self, args) -> None:
        n_int = 0
        n_float = 0
        for handle, cls in args:
            if cls == "f":
                if n_float >= len(FARG_REGS):
                    raise CodegenError("too many float arguments")
                rs = self._use(handle, 0)
                self._emit(Op.FMOV, FARG_REGS[n_float], rs)
                n_float += 1
            else:
                if n_int >= len(ARG_REGS):
                    raise CodegenError("too many integer arguments")
                rs = self._use(handle, 0)
                self._emit(Op.MOV, ARG_REGS[n_int], rs)
                n_int += 1

    def _take_result(self, ret_cls: str | None):
        if ret_cls is None:
            return None
        dst = self.alloc_reg(ret_cls)
        if ret_cls == "f":
            self.funop("fmov", dst, PReg(FReg.F0, "f"))
        else:
            self.unop("mov", dst, PReg(Reg.RV, "i"))
        return dst

    def bind_param(self, storage, index: int, cls: str) -> None:
        """Copy incoming argument ``index`` (per-class numbering) into a
        vspec's storage.  Used by compile() for ``param()`` vspecs."""
        if cls == "f":
            if index >= len(FARG_REGS):
                raise CodegenError("too many float parameters")
            self.funop("fmov", storage, PReg(FARG_REGS[index], "f"))
        else:
            if index >= len(ARG_REGS):
                raise CodegenError("too many integer parameters")
            self.unop("mov", storage, PReg(ARG_REGS[index], "i"))

    def ret(self, value, cls: str = "i") -> None:
        if value is not None:
            if cls == "f":
                rs = self._use(value, 0)
                self._emit(Op.FMOV, FReg.F0, rs)
            else:
                rs = self._use(value, 0)
                self._emit(Op.MOV, Reg.RV, rs)
        self._emit(Op.JMP, self.epilogue_label)

    # -- finishing -------------------------------------------------------------------

    def install(self, name: str | None = None, do_link: bool = True) -> int:
        """Copy the generated body into the code segment; return the entry."""
        if self._installed:
            raise CodegenError("backend already installed its function")
        self._installed = True
        if self.verify == "paranoid":
            ircheck.run_body(self.body, self.labels, self.epilogue_label,
                             "vcode-emit")
        return install_function(
            self.machine,
            self.cost,
            self.body,
            self.labels,
            self.epilogue_label,
            self.used_sregs,
            self.used_fregs,
            self.has_call,
            self.n_spill_slots,
            name,
            do_link,
            recorder=self.recorder,
            verify=self.verify,
        )
