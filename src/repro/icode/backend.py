"""The ICODE dynamic back end: record IR, optimize, allocate, translate.

The macro interface matches :class:`repro.vcode.machine.VcodeBackend` so the
lowering layer drives either back end, with the two ICODE extensions the
paper describes (section 5.2): an infinite number of registers
(:meth:`alloc_reg` returns a fresh virtual register and :meth:`free_reg` is
a no-op) and usage-frequency hints (:meth:`loop_enter`/:meth:`loop_exit`
scale the estimated use weight of registers touched inside loops, feeding
the graph-coloring spill heuristic).

Calling :meth:`install` runs the paper's pipeline: flow graph, live
variables, live intervals, register allocation (linear scan by default, or
the Chaitin-style colorer), translation to target code with spill code
prepended/appended as needed, peephole optimization, and linking.
"""

from __future__ import annotations

from repro.core.codecache import imm_float, imm_int
from repro.core.install import frame_elidable, install_function, spill_offset
from repro.core.operands import FuncRef, VReg
from repro.errors import CodegenError
from repro.icode.flowgraph import build_flowgraph
from repro.icode.graphcolor import graph_color
from repro.icode.intervals import build_intervals
from repro.icode.ir import IRFunction, IRInstr
from repro.icode.linearscan import linear_scan
from repro.icode.liveness import compute_liveness
from repro.icode import optim
from repro.icode.peephole import peephole
from repro.runtime.costmodel import (
    IR_RECORD,
    IR_VREG,
    TRANSLATE_ELIDE,
    TRANSLATE_INSTR,
    TRANSLATE_SPILL_CODE,
)
from repro.target.isa import (
    ALLOCATABLE_FREGS, ALLOCATABLE_REGS, ARG_REGS, BINOPS, CHECKED_TO_SAFE,
    FARG_REGS, FBINOPS, FCMPS, FReg, FUNOPS, Instruction, LOADS, Op, Reg,
    SCRATCH_F, SCRATCH_I, STORES, UNOPS,
)
from repro.target.program import Label
from repro.telemetry.metrics import REGISTRY
from repro.verify import ircheck, regcheck

#: Telemetry: installs served by this back end, and the IR volume that
#: flowed through the pipeline (one inc per install, so the cold path
#: pays two integer adds).
_INSTALLS = REGISTRY.counter("backend.icode.installs")
_IR_INSTRS = REGISTRY.counter("backend.icode.ir_instructions")

#: Weight multiplier per loop nesting level for usage-frequency hints.
_LOOP_WEIGHT = 8.0


class IcodeBackend:
    """One function's worth of IR-building dynamic code generation."""

    kind = "icode"

    def __init__(self, machine, cost, regalloc: str = "linear",
                 optimize_ir: bool = False, use_peephole: bool = True,
                 verify: str = "off", analysis: bool = False):
        if regalloc not in ("linear", "color"):
            raise ValueError(f"unknown register allocator {regalloc!r}")
        self.machine = machine
        self.cost = cost
        self.regalloc = regalloc
        self.optimize_ir = optimize_ir
        self.use_peephole = use_peephole
        self.verify = verify
        self.analysis = analysis
        self.storage_vregs: set = set()
        self.ir = IRFunction()
        self.labels: list[Label] = []
        self.epilogue_label = Label("epilogue")
        self._vspec_storage: dict = {}
        self._dyn_labels: dict = {}
        self._weight = 1.0
        self._installed = False
        self._const_marks: dict = {}
        self._raw_facts: list = []
        self.facts: list = []  # resolved elision facts, set by install()
        self.spills = 0
        # results populated by install(), exposed for tests/inspection
        self.intervals = None
        self.flowgraph = None
        self.body = None
        self.recorder = None  # codecache PatchRecorder, set by the driver

    # -- registers -------------------------------------------------------------

    def alloc_reg(self, cls: str = "i") -> VReg:
        self.cost.charge(IR_VREG)
        return self.ir.new_vreg(cls)

    def free_reg(self, handle) -> None:
        pass  # infinite register file

    def note_storage(self, handle) -> None:
        """Mark ``handle`` as backing a C variable.  Uninitialized locals
        are legal to read, so the IR verifier exempts storage vregs from
        its undefined-vreg rule."""
        if isinstance(handle, VReg):
            self.storage_vregs.add(handle)

    def vspec_storage(self, vspec) -> VReg:
        handle = self._vspec_storage.get(id(vspec))
        if handle is None:
            handle = self.alloc_reg(vspec.cls)
            self.note_storage(handle)
            self._vspec_storage[id(vspec)] = handle
        return handle

    def loop_enter(self) -> None:
        """Usage-frequency hint: subsequent references are hotter."""
        self._weight *= _LOOP_WEIGHT

    def loop_exit(self) -> None:
        self._weight /= _LOOP_WEIGHT

    # -- recording macros ---------------------------------------------------------

    def _record(self, instr: IRInstr) -> None:
        self.ir.append(instr)
        self.cost.charge(IR_RECORD)
        defs, uses = instr.defs_uses()
        for vr in defs:
            self.ir.note_use(vr, self._weight)
        for vr in uses:
            self.ir.note_use(vr, self._weight)

    def li(self, dst, imm) -> None:
        if not isinstance(imm, FuncRef):
            imm = imm_int(imm)  # tag-preserving: a PatchImm stays a hole
        self._record(IRInstr(Op.LI, dst, imm))

    def fli(self, dst, imm: float) -> None:
        self._record(IRInstr(Op.FLI, dst, imm_float(imm)))

    def binop(self, opname: str, dst, a, b) -> None:
        self._record(IRInstr(BINOPS[opname][0], dst, a, b))

    def binop_imm(self, opname: str, dst, a, imm: int) -> None:
        op = BINOPS[opname][1]
        if op is None:
            tmp = self.alloc_reg("i")
            self.li(tmp, imm)
            self.binop(opname, dst, a, tmp)
            return
        self._record(IRInstr(op, dst, a, imm_int(imm)))

    def unop(self, opname: str, dst, a) -> None:
        self._record(IRInstr(UNOPS[opname], dst, a))

    def fbinop(self, opname: str, dst, a, b) -> None:
        self._record(IRInstr(FBINOPS[opname], dst, a, b))

    def fcmp(self, opname: str, dst, a, b) -> None:
        self._record(IRInstr(FCMPS[opname], dst, a, b))

    def funop(self, opname: str, dst, a) -> None:
        self._record(IRInstr(FUNOPS[opname], dst, a))

    def cvtif(self, fdst, isrc) -> None:
        self._record(IRInstr(Op.CVTIF, fdst, isrc))

    def cvtfi(self, idst, fsrc) -> None:
        self._record(IRInstr(Op.CVTFI, idst, fsrc))

    def load(self, dst, base, off: int, width: str = "w") -> None:
        self._record(IRInstr(LOADS[width], dst, base, imm_int(off)))

    def store(self, src, base, off: int, width: str = "w") -> None:
        self._record(IRInstr(STORES[width], src, base, imm_int(off)))

    # -- control flow ----------------------------------------------------------------

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
        self._record(IRInstr("label", label))

    def jmp(self, label: Label) -> None:
        self._record(IRInstr(Op.JMP, label))

    def beqz(self, src, label: Label) -> None:
        self._record(IRInstr(Op.BEQZ, src, label))

    def bnez(self, src, label: Label) -> None:
        self._record(IRInstr(Op.BNEZ, src, label))

    # -- calls ----------------------------------------------------------------------------

    def call(self, target, args, ret_cls: str | None):
        dst = self.alloc_reg(ret_cls) if ret_cls else None
        self._record(
            IRInstr("call", dst, target=target, args=list(args), ret_cls=ret_cls)
        )
        return dst

    def hostcall(self, name: str, args, ret_cls: str | None = None):
        dst = self.alloc_reg(ret_cls) if ret_cls else None
        self._record(
            IRInstr("hostcall", dst, target=name, args=list(args),
                    ret_cls=ret_cls)
        )
        return dst

    def bind_param(self, storage, index: int, cls: str) -> None:
        if cls == "f" and index >= len(FARG_REGS):
            raise CodegenError("too many float parameters")
        if cls != "f" and index >= len(ARG_REGS):
            raise CodegenError("too many integer parameters")
        self._record(IRInstr("getarg", storage, index, ret_cls=cls))

    def ret(self, value, cls: str = "i") -> None:
        self._record(IRInstr("ret", value, ret_cls=cls))

    # -- the compile-time pipeline ----------------------------------------------------

    def install(self, name: str | None = None, do_link: bool = True) -> int:
        if self._installed:
            raise CodegenError("backend already installed its function")
        self._installed = True
        _INSTALLS.inc()
        _IR_INSTRS.inc(len(self.ir.instrs))
        cost = self.cost
        paranoid = self.verify == "paranoid"
        storage = frozenset(self.storage_vregs)
        if paranoid:
            ircheck.run_ir(self.ir, "lowering", storage)
        if self.optimize_ir:
            verifier = None
            if paranoid:
                def verifier(pass_name):
                    ircheck.run_ir(self.ir, pass_name, storage)
            optim.optimize(self.ir, build_flowgraph, compute_liveness,
                           cost=cost, recorder=self.recorder,
                           verifier=verifier, fold_mem_base=self.analysis)
        if self.analysis:
            from repro import report
            from repro.analysis import dataflow

            run = dataflow.analyze(self.ir, memory=self.machine.memory,
                                   cost=cost, liveness=compute_liveness)
            folded = optim.fold_dead_branches(self.ir, run.verdicts,
                                              self.recorder)
            if folded:
                report.record_analysis("branches_folded", folded)
                # The fold left the condition computation dead; one more
                # optimization round collects it, then the analysis
                # re-runs so the const marks key the final IR objects.
                optim.optimize(self.ir, build_flowgraph, compute_liveness,
                               cost=cost, recorder=self.recorder,
                               fold_mem_base=True)
                if paranoid:
                    ircheck.run_ir(self.ir, "analysis", storage)
                run = dataflow.analyze(self.ir,
                                       memory=self.machine.memory,
                                       cost=cost,
                                       liveness=compute_liveness)
            self._const_marks = run.const_marks
        fg = build_flowgraph(self.ir, cost)
        compute_liveness(fg, cost)
        if paranoid:
            ircheck.run_flowgraph(self.ir, fg, "flowgraph")
        # The paper's accounting: live-interval setup is part of linear
        # scan's cost; the colorer builds an interference graph instead
        # (charged inside graph_color) and only uses the interval records
        # as result carriers.
        intervals = build_intervals(
            self.ir, fg, cost if self.regalloc == "linear" else None
        )
        self.flowgraph = fg
        self.intervals = intervals

        slot_counter = [0]

        def slot_alloc() -> int:
            idx = slot_counter[0]
            slot_counter[0] += 1
            return idx

        if self.regalloc == "linear":
            spilled = linear_scan(
                [iv for iv in intervals if iv.vreg.cls == "i"],
                list(ALLOCATABLE_REGS), slot_alloc, cost,
            )
            spilled += linear_scan(
                [iv for iv in intervals if iv.vreg.cls == "f"],
                list(ALLOCATABLE_FREGS), slot_alloc, cost,
            )
        else:
            spilled = graph_color(
                self.ir, fg, intervals,
                list(ALLOCATABLE_REGS), list(ALLOCATABLE_FREGS),
                slot_alloc, cost,
            )
        self.spills = spilled
        # Oversized frames lose the bracketing-anchor soundness argument
        # for frame facts, so their spill traffic stays fully checked.
        self._elide_frame = self.analysis and frame_elidable(slot_counter[0])
        if self.verify != "off":
            regcheck.run(self.ir, intervals,
                         where=f"{self.regalloc} allocation")

        body, used_sregs, used_fregs, has_call = self._translate(intervals)
        if paranoid:
            ircheck.run_body(body, self.labels, self.epilogue_label,
                             "translate")
        if self.use_peephole:
            body = peephole(body, self.labels, self.epilogue_label)
            if paranoid:
                ircheck.run_body(body, self.labels, self.epilogue_label,
                                 "peephole")
        facts: list = []
        if self.analysis:
            from repro.analysis import dataflow

            if do_link:
                # The duplicate-address pass needs real jump targets;
                # deferred-link bodies keep only frame/const elision.
                targets = {label.address for label in self.labels
                           if label.address is not None}
                facts.extend(dataflow.elide_duplicate_checks(body, targets))
            # Resolve object-keyed frame/const facts to body indices
            # (peephole preserves instruction identity; an instruction
            # it dropped as unreachable takes its fact with it).
            position = {id(instr): i for i, instr in enumerate(body)}
            for kind, instr, payload in self._raw_facts:
                index = position.get(id(instr))
                if index is None:
                    continue
                if kind == "frame":
                    facts.append(("frame", index, payload))
                else:
                    facts.append(("const", index, payload, payload))
            facts.sort(key=lambda fact: fact[1])
            if paranoid and facts:
                ircheck.run_body(body, self.labels, self.epilogue_label,
                                 "analysis")
        self.body = body
        self.facts = facts
        cost.note_instruction(len(body))
        return install_function(
            self.machine, cost, body, self.labels, self.epilogue_label,
            used_sregs, used_fregs, has_call, slot_counter[0], name, do_link,
            recorder=self.recorder, verify=self.verify, facts=facts,
            analysis=self.analysis,
        )

    # -- IR -> target translation -------------------------------------------------------

    def _translate(self, intervals):
        assign = {iv.vreg: iv for iv in intervals}
        body: list[Instruction] = []
        used_sregs: set[int] = set()
        used_fregs: set[int] = set()
        has_call = False
        cost = self.cost
        elide = self.analysis
        elide_frame = getattr(self, "_elide_frame", False)
        const_marks = self._const_marks
        raw_facts: list = []
        self._raw_facts = raw_facts

        def emit(op, a=None, b=None, c=None):
            instr = Instruction(op, a, b, c)
            body.append(instr)
            return instr

        def emit_frame(op, reg, offset: int) -> None:
            """A spill-slot access: SP-relative inside the frame the
            prologue establishes, so under analysis it is emitted in
            the proven-safe form with a ``frame`` fact."""
            if elide_frame:
                out = emit(CHECKED_TO_SAFE[op], reg, Reg.SP, offset)
                raw_facts.append(("frame", out, offset))
                cost.charge(TRANSLATE_ELIDE)
            else:
                emit(op, reg, Reg.SP, offset)
            cost.charge(TRANSLATE_SPILL_CODE)

        def location(vr: VReg):
            iv = assign.get(vr)
            if iv is None:
                raise CodegenError(f"virtual register {vr} was never live")
            return iv

        def src(vr: VReg, scratch: int) -> int:
            iv = location(vr)
            if iv.reg is not None:
                return iv.reg
            reg = SCRATCH_F[scratch] if vr.cls == "f" else SCRATCH_I[scratch]
            op = Op.FLW if vr.cls == "f" else Op.LW
            emit_frame(op, reg, spill_offset(iv.location))
            return reg

        def dst_target(vr: VReg) -> int:
            iv = location(vr)
            if iv.reg is not None:
                if vr.cls == "i":
                    used_sregs.add(iv.reg)
                else:
                    used_fregs.add(iv.reg)
                return iv.reg
            return SCRATCH_F[0] if vr.cls == "f" else SCRATCH_I[0]

        def dst_commit(vr: VReg, reg: int) -> None:
            iv = location(vr)
            if iv.reg is None:
                op = Op.FSW if vr.cls == "f" else Op.SW
                emit_frame(op, reg, spill_offset(iv.location))

        for instr in self.ir.instrs:
            cost.charge(TRANSLATE_INSTR)
            op = instr.op
            if op == "label":
                instr.a.address = len(body)
                continue
            if op == "getarg":
                if instr.ret_cls == "f":
                    reg = dst_target(instr.a)
                    emit(Op.FMOV, reg, FARG_REGS[instr.b])
                    dst_commit(instr.a, reg)
                else:
                    reg = dst_target(instr.a)
                    emit(Op.MOV, reg, ARG_REGS[instr.b])
                    dst_commit(instr.a, reg)
                continue
            if op in ("call", "hostcall"):
                has_call = True if op == "call" else has_call
                n_int = n_float = 0
                for vr, cls in instr.args or ():
                    if cls == "f":
                        emit(Op.FMOV, FARG_REGS[n_float], src(vr, 0))
                        n_float += 1
                    else:
                        emit(Op.MOV, ARG_REGS[n_int], src(vr, 0))
                        n_int += 1
                if op == "hostcall":
                    emit(Op.HOSTCALL, self.machine.host_function_index(instr.target))
                elif isinstance(instr.target, VReg):
                    emit(Op.CALLR, src(instr.target, 1))
                else:
                    emit(Op.CALL, instr.target)
                if instr.a is not None:
                    if instr.ret_cls == "f":
                        reg = dst_target(instr.a)
                        emit(Op.FMOV, reg, FReg.F0)
                    else:
                        reg = dst_target(instr.a)
                        emit(Op.MOV, reg, Reg.RV)
                    dst_commit(instr.a, reg)
                continue
            if op == "ret":
                if instr.a is not None:
                    if instr.ret_cls == "f":
                        emit(Op.FMOV, FReg.F0, src(instr.a, 0))
                    else:
                        emit(Op.MOV, Reg.RV, src(instr.a, 0))
                emit(Op.JMP, self.epilogue_label)
                continue
            # Real target ops with VReg operands.
            if op in (Op.JMP,):
                emit(Op.JMP, instr.a)
                continue
            if op in (Op.BEQZ, Op.BNEZ):
                emit(op, src(instr.a, 0), instr.b)
                continue
            if op in (Op.SW, Op.SB, Op.FSW):
                value = src(instr.a, 0)
                base = Reg.ZERO if instr.b is None else src(instr.b, 1)
                mark = const_marks.get(id(instr)) if elide else None
                if mark is not None and instr.b is None:
                    out = emit(CHECKED_TO_SAFE[op], value, base, instr.c)
                    raw_facts.append(("const", out, mark[0]))
                    cost.charge(TRANSLATE_ELIDE)
                else:
                    emit(op, value, base, instr.c)
                continue
            if op in (Op.LW, Op.LB, Op.LBU, Op.FLW):
                base = Reg.ZERO if instr.b is None else src(instr.b, 1)
                reg = dst_target(instr.a)
                mark = const_marks.get(id(instr)) if elide else None
                if mark is not None and instr.b is None:
                    out = emit(CHECKED_TO_SAFE[op], reg, base, instr.c)
                    raw_facts.append(("const", out, mark[0]))
                    cost.charge(TRANSLATE_ELIDE)
                else:
                    emit(op, reg, base, instr.c)
                dst_commit(instr.a, reg)
                continue
            if op in (Op.LI, Op.FLI):
                reg = dst_target(instr.a)
                emit(op, reg, instr.b)
                dst_commit(instr.a, reg)
                continue
            # Generic ALU shape: dst, src1 [, src2/imm]
            operands = []
            scratch = 0
            for field in ("b", "c"):
                v = getattr(instr, field)
                if isinstance(v, VReg):
                    operands.append(src(v, scratch))
                    scratch += 1
                elif v is not None:
                    operands.append(v)
            reg = dst_target(instr.a)
            emit(op, reg, *operands)
            dst_commit(instr.a, reg)
        return body, used_sregs, used_fregs, has_call
