"""The superblock code generator behind the dispatch engine.

The reference stepper in :mod:`repro.target.cpu` fetches, decodes, and
dispatches one instruction per Python-loop iteration — faithful, but the
dominant wall-clock cost of every benchmark.  This module trades a small
one-time *predecode* pass for much cheaper steady-state execution:

* installed code is carved into **superblocks** — straight-line runs
  ending at a branch, call, hostcall, or ``HALT`` (or capped at
  :data:`MAX_BLOCK_INSTRUCTIONS`);
* each superblock is compiled, once, into a closed-over Python function
  (:func:`compile_block`): operands become literals or preresolved
  constants, known ``ZERO``-destination writes are dropped, and
  per-instruction cycle costs are summed into batched charges.

Every instruction is translated on its own, by :func:`_emit_one`.

The dispatch loop that runs these blocks block-to-block — one dict
probe, one call, one watchdog check per *block* instead of per
instruction — and the block cache live in
:class:`repro.tiering.engine.TieredEngine`, which also reuses
:class:`_Gen` and the emitters below to compile its traces.

Exactness contract (the paper's figures are denominated in modeled
cycles, so this is non-negotiable):

* **cycles** — every trapping operation (memory access, div/mod,
  hostcall) is preceded by a flush of the cycle charges accrued so far
  in the block, so ``cpu.cycles`` at any :class:`MachineError` equals
  the reference stepper's count exactly; successful runs charge the
  same total by construction.
* **traps** — blocks record the faulting pc before every trap site and
  re-raise through a handler; the dispatch loop reconstructs the
  context the hardened taxonomy promises (pc, disassembled instruction,
  containing function) lazily, only when a trap actually fires.
* **watchdog** — the dispatch loop checks fuel at block boundaries
  against the same per-instruction checkpoints the reference uses (a
  taken-branch ``+1`` and a ``HALT``-fetch I-cache penalty are never
  themselves checked, so blocks report them through ``TAIL``), so
  trap-vs-success is decided identically; a trap inside a block may
  surface up to one block (bounded by :data:`MAX_BLOCK_INSTRUCTIONS`)
  later than the reference would raise it, with correspondingly more
  cycles charged — the documented "bounded overshoot".

A block is cacheable only if it lies entirely below the segment's
linked horizon (the incremental linker never re-patches below it).
Blocks cut short by the horizon or the cap end in a plain fall-through,
so appending code never requires invalidation — which is how Tier-2
copy-and-patch reuse (append-only) composes with the block cache for
free.
"""

from __future__ import annotations

import math

from repro import report
from repro.errors import IllegalInstruction, MachineError
from repro.target.isa import (
    BRANCH_OPS,
    CYCLE_COST,
    IMM_TO_BASE,
    SAFE_MEM_OPS,
    Op,
    cvtfi,
    fdiv,
    sdiv,
    smod,
    udiv,
    umod,
    wrap32,
)
from repro.telemetry import trace as _trace

#: Ops that end a superblock: control transfers, the machine stopping,
#: and host callbacks (which may touch arbitrary machine state).
TERMINATOR_OPS = BRANCH_OPS | {Op.HALT, Op.HOSTCALL}

#: Longest straight-line run predecoded into one superblock.  This also
#: bounds the watchdog overshoot: fuel is checked between blocks, so a
#: call can run at most one block's worth of instructions past budget.
MAX_BLOCK_INSTRUCTIONS = 128

#: Checked memory ops (the trap sites the engine must charge exactly).
#: The proven-safe variants (:data:`SAFE_MEM_OPS`) are deliberately not
#: here: their bounds test was discharged statically, so they cannot
#: trap and need no pc/cycle flush.
_MEM_OPS = {Op.LW, Op.SW, Op.LB, Op.LBU, Op.SB, Op.FLW, Op.FSW}

#: Division family: register-form base op -> helper name in the block
#: environment.  These trap on a zero divisor, so they are charge sites.
_DIV_BASES = {Op.DIV: "sdiv", Op.MOD: "smod",
              Op.DIVU: "udiv", Op.MODU: "umod"}

#: Non-trapping integer ALU ops: register-form base -> (expression
#: template, needs-wrap32).  Semantics mirror ``_INT_BIN`` in cpu.py.
_INT_EXPR = {
    Op.ADD: ("({x} + {y})", True),
    Op.SUB: ("({x} - {y})", True),
    Op.MUL: ("({x} * {y})", True),
    Op.AND: ("({x} & {y})", True),
    Op.OR: ("({x} | {y})", True),
    Op.XOR: ("({x} ^ {y})", True),
    Op.SLL: ("({x} << ({y} & 31))", True),
    Op.SRL: ("((({x}) & 0xFFFFFFFF) >> ({y} & 31))", True),
    Op.SRA: ("({x} >> ({y} & 31))", True),
    Op.SEQ: ("int({x} == {y})", False),
    Op.SNE: ("int({x} != {y})", False),
    Op.SLT: ("int({x} < {y})", False),
    Op.SLE: ("int({x} <= {y})", False),
    Op.SGT: ("int({x} > {y})", False),
    Op.SGE: ("int({x} >= {y})", False),
    Op.SLTU: ("int((({x}) & 0xFFFFFFFF) < (({y}) & 0xFFFFFFFF))", False),
}

_FLT_EXPR = {Op.FADD: "({x} + {y})", Op.FSUB: "({x} - {y})",
             Op.FMUL: "({x} * {y})", Op.FDIV: "fdiv({x}, {y})"}

_FLT_CMP_EXPR = {Op.FSEQ: "==", Op.FSNE: "!=", Op.FSLT: "<",
                 Op.FSLE: "<=", Op.FSGT: ">", Op.FSGE: ">="}

#: Names the generated ``__make__`` factory closes over, in order.
_ENV_NAMES = ("cpu", "regs", "fregs", "wrap32", "lw", "sw", "lb", "lbu",
              "sb", "fld", "fst", "sdiv", "smod", "udiv", "umod", "cvtfi",
              "fdiv", "hostfn", "ill", "ic", "TAIL", "MachineError",
              "data", "ifb", "heap4", "heap1", "stackb", "top4", "top1")


def _illegal(op):
    name = getattr(op, "name", op)
    raise IllegalInstruction(f"cannot execute opcode {name}")


def carve_block(code, entry: int, cap: int) -> list:
    """Carve the superblock starting at ``entry``: the straight-line run
    up to and including the first terminator, stopping early at ``cap``
    (the linked horizon / end of code) or :data:`MAX_BLOCK_INSTRUCTIONS`.

    Shared by the per-block compiler below and the trace former in
    :mod:`repro.tiering`, so both agree exactly on block boundaries.
    """
    instrs = []
    p = entry
    while p < cap and len(instrs) < MAX_BLOCK_INSTRUCTIONS:
        ins = code[p]
        instrs.append(ins)
        p += 1
        if ins.op in TERMINATOR_OPS:
            break
    return instrs


def _is_zero(v) -> bool:
    """Compile-time check: is this operand literally register ZERO?"""
    return isinstance(v, int) and int(v) == 0


def _charge_site(ins) -> bool:
    """Does this instruction need an exact pre-charge (it can trap)?"""
    op = ins.op
    if op in _MEM_OPS or op is Op.HOSTCALL:
        return True
    if op is Op.CVTFI or IMM_TO_BASE.get(op, op) in _DIV_BASES:
        # A ZERO-destination div or conversion never calls the helper
        # (the reference skips the whole computation), so it cannot trap.
        return not _is_zero(ins.a)
    return not isinstance(op, Op)            # unknown op -> ill() site


class _Gen:
    """Accumulates the Python source of one superblock."""

    def __init__(self, entry: int, use_cy: bool, has_site: bool,
                 icache_on: bool = False, inline_wrap: bool = False,
                 inline_mem: bool = False):
        self.entry = entry
        self.use_cy = use_cy
        self.has_site = has_site
        self.icache_on = icache_on
        self.inline_wrap = inline_wrap
        self.inline_mem = inline_mem
        self.lines: list = []
        self.pend = 0                 # batched, not-yet-emitted cycle cost
        self.consts: dict = {}        # K<n> -> non-literal operand value
        self.closed = False           # a terminator emitted its return

    def line(self, text: str, indent: int = 0) -> None:
        self.lines.append("    " * indent + text)

    def const(self, value) -> str:
        name = f"K{len(self.consts)}"
        self.consts[name] = value
        return name

    def ridx(self, v) -> str:
        """A register-index expression (constant-bound if not an int)."""
        return str(int(v)) if isinstance(v, int) else self.const(v)

    def imm(self, v) -> str:
        """An immediate/operand expression."""
        if isinstance(v, int):
            n = int(v)
            return str(n) if n >= 0 else f"({n})"
        return self.const(v)

    def site(self, P: int, cost: int, indent: int = 0) -> None:
        """Record pc and flush batched charges right before a trap site,
        making cycles-at-trap exactly match the reference stepper."""
        self.line(f"pc = {P}", indent)
        self.line(f"cy += {self.pend + cost}", indent)
        self.pend = 0

    def charge(self, extra: int, indent: int = 0) -> None:
        """Emit a flush of pending + ``extra`` cycles into the counter
        (used on block exits).  Does not reset ``pend`` — two-way branch
        exits share it; callers reset when the paths rejoin."""
        total = self.pend + extra
        if self.use_cy:
            text = f"cpu.cycles += cy + {total}" if total else \
                "cpu.cycles += cy"
        else:
            text = f"cpu.cycles += {total}" if total else None
        if text:
            self.line(text, indent)

    # -- expression builders ----------------------------------------------------

    def src_reg(self, r) -> str:
        return f"regs[{self.ridx(r)}]"

    def wrap(self, expr: str) -> str:
        """Signed-32-bit wrap of ``expr``.  The block tier calls the
        ``wrap32`` helper; the trace tier (``inline_wrap``) spends its
        extra compile budget inlining the two's-complement arithmetic,
        saving a Python call per ALU result on the hottest paths.  Both
        forms compute the identical value for any int."""
        if self.inline_wrap:
            return f"(({expr} + 0x80000000 & 0xFFFFFFFF) - 0x80000000)"
        return f"wrap32({expr})"

    def int_expr(self, ins) -> str:
        """RHS for a non-trapping int ALU op (register or imm form)."""
        base = IMM_TO_BASE.get(ins.op, ins.op)
        tmpl, wrap = _INT_EXPR[base]
        x = self.src_reg(ins.b)
        y = self.imm(ins.c) if ins.op in IMM_TO_BASE \
            else self.src_reg(ins.c)
        expr = tmpl.format(x=x, y=y)
        return self.wrap(expr) if wrap else expr

    def addr_expr(self, ins) -> str:
        """The effective address ``regs[b] + c`` of a memory op."""
        base = self.src_reg(ins.b)
        off = self.imm(ins.c)
        return base if off == "0" else f"{base} + {off}"


def _emit_mem_inline(g: _Gen, op, ins, addr: str) -> None:
    """Trace-tier lowering of the common memory ops: the accessor's
    in-bounds fast path is inlined against region bounds bound as
    closure cells, with the helper call itself as the slow-path
    fallback.  The inline predicate is the same strict subset
    :class:`~repro.target.memory.Memory` uses, so results and the
    trap taxonomy are unchanged — only the Python call per in-bounds
    access disappears."""
    reg = f"regs[{g.ridx(ins.a)}]"
    g.line(f"a_ = {addr}")
    if op is Op.LW or op is Op.SW:
        g.line("if not a_ & 3 and (4096 <= a_ <= heap4 "
               "or stackb <= a_ <= top4):")
        if op is Op.LW:
            g.line(f"{reg} = ifb(data[a_:a_ + 4], 'little', signed=True)",
                   indent=1)
            g.line("else:")
            g.line(f"{reg} = lw(a_)", indent=1)
        else:
            g.line(f"data[a_:a_ + 4] = ({reg} & 0xFFFFFFFF)"
                   ".to_bytes(4, 'little')", indent=1)
            g.line("else:")
            g.line(f"sw(a_, {reg})", indent=1)
        return
    g.line("if 4096 <= a_ < heap1 or stackb <= a_ < top1:")
    if op is Op.LB:
        g.line("v_ = data[a_]", indent=1)
        g.line(f"{reg} = v_ - 256 if v_ >= 128 else v_", indent=1)
        g.line("else:")
        g.line(f"{reg} = lb(a_)", indent=1)
    elif op is Op.LBU:
        g.line(f"{reg} = data[a_]", indent=1)
        g.line("else:")
        g.line(f"{reg} = lbu(a_)", indent=1)
    else:                                # SB
        g.line(f"data[a_] = {reg} & 0xFF", indent=1)
        g.line("else:")
        g.line(f"sb(a_, {reg})", indent=1)


_INLINE_MEM_OPS = (Op.LW, Op.SW, Op.LB, Op.LBU, Op.SB)


def _emit_safe_mem(g: _Gen, ins) -> None:
    """Proven-safe memory op: this is the elision the analysis paid for.
    No trap site, no pc flush, no bounds predicate — the access goes
    straight at the backing bytearray (floats keep the accessor call;
    doubles have no inline path even for checked ops) and its one-cycle
    cost joins the batched charge like any ALU op."""
    op = ins.op
    g.pend += CYCLE_COST[op]
    addr = g.addr_expr(ins)
    if op is Op.FLWS:
        g.line(f"fregs[{g.ridx(ins.a)}] = fld({addr})")
        return
    if op is Op.FSWS:
        g.line(f"fst({addr}, fregs[{g.ridx(ins.a)}])")
        return
    reg = f"regs[{g.ridx(ins.a)}]"
    if op is Op.SWS:
        g.line(f"a_ = {addr}")
        g.line(f"data[a_:a_ + 4] = ({reg} & 0xFFFFFFFF)"
               ".to_bytes(4, 'little')")
    elif op is Op.SBS:
        g.line(f"data[{addr}] = {reg} & 0xFF")
    elif _is_zero(ins.a):
        pass        # safe load into ZERO: no trap, no value — pure cost
    elif op is Op.LWS:
        g.line(f"a_ = {addr}")
        g.line(f"{reg} = ifb(data[a_:a_ + 4], 'little', signed=True)")
    elif op is Op.LBS:
        g.line(f"v_ = data[{addr}]")
        g.line(f"{reg} = v_ - 256 if v_ >= 128 else v_")
    else:                                # LBUS
        g.line(f"{reg} = data[{addr}]")


def _emit_mem(g: _Gen, P: int, ins) -> None:
    """Checked memory op: a trap site, so charges flush exactly first."""
    op = ins.op
    g.site(P, CYCLE_COST[op])
    addr = g.addr_expr(ins)
    is_load = op in (Op.LW, Op.LB, Op.LBU)
    if (g.inline_mem and op in _INLINE_MEM_OPS
            and not (is_load and _is_zero(ins.a))):
        # A ZERO-destination load keeps the helper call: it executes
        # only for its possible trap, never for its value.
        _emit_mem_inline(g, op, ins, addr)
        return
    if op is Op.SW:
        g.line(f"sw({addr}, regs[{g.ridx(ins.a)}])")
    elif op is Op.SB:
        g.line(f"sb({addr}, regs[{g.ridx(ins.a)}])")
    elif op is Op.FSW:
        g.line(f"fst({addr}, fregs[{g.ridx(ins.a)}])")
    elif op is Op.FLW:
        g.line(f"fregs[{g.ridx(ins.a)}] = fld({addr})")
    else:
        fn = {Op.LW: "lw", Op.LB: "lb", Op.LBU: "lbu"}[op]
        if _is_zero(ins.a):
            g.line(f"{fn}({addr})")      # load still executes (may trap)
        else:
            g.line(f"regs[{g.ridx(ins.a)}] = {fn}({addr})")


def _emit_one(g: _Gen, P: int, ins) -> None:
    """Translate one instruction."""
    op = ins.op
    a, b, c = ins.a, ins.b, ins.c
    if not isinstance(op, Op):
        g.site(P, CYCLE_COST.get(op, 0))
        g.line(f"ill({g.const(op)})")
        return
    cost = CYCLE_COST[op]

    if op is Op.HALT:
        # The reference returns before charging or checking the budget;
        # an I-cache penalty on the HALT fetch is charged but never
        # checked, which TAIL reports to the dispatcher.
        if g.icache_on:
            g.line(f"t = ic({P})")
            g.line("cy += t")
            g.line("TAIL[0] = t")
        g.charge(0)
        g.pend = 0
        g.line(f"cpu.pc = {P}")
        g.line("return None")
        g.closed = True
    elif op is Op.JMP:
        g.pend += cost
        g.charge(0)
        g.pend = 0
        g.line(f"return {g.imm(a)}")
        g.closed = True
    elif op in (Op.BEQZ, Op.BNEZ):
        g.pend += cost
        target = g.imm(b)
        if _is_zero(a):                  # hardwired zero: decided statically
            if op is Op.BEQZ:
                g.charge(1)              # always taken (+1, unchecked)
                g.line("TAIL[0] = 1")
                g.line(f"return {target}")
            else:
                g.charge(0)
                g.line(f"return {P + 1}")
            g.pend = 0
            g.closed = True
        else:
            rel = "==" if op is Op.BEQZ else "!="
            g.line(f"if regs[{g.ridx(a)}] {rel} 0:")
            g.charge(1, indent=1)
            g.line("TAIL[0] = 1", indent=1)
            g.line(f"return {target}", indent=1)
            g.charge(0)
            g.pend = 0
            g.line(f"return {P + 1}")
            g.closed = True
    elif op is Op.CALL:
        g.pend += cost
        g.line(f"regs[1] = {P + 1}")
        g.charge(0)
        g.pend = 0
        g.line(f"return {g.imm(a)}")
        g.closed = True
    elif op is Op.CALLR:
        g.pend += cost
        g.line(f"regs[1] = {P + 1}")     # RA written before the target read
        g.charge(0)
        g.pend = 0
        g.line(f"return regs[{g.ridx(a)}]")
        g.closed = True
    elif op is Op.RET:
        g.pend += cost
        g.charge(0)
        g.pend = 0
        g.line("return regs[1]")
        g.closed = True
    elif op is Op.HOSTCALL:
        # Flush fully before the callback: host functions observe
        # cpu.cycles, and the lookup itself may trap (bad index).
        g.line(f"pc = {P}")
        g.charge(cost)
        g.pend = 0
        g.line("cy = 0")
        g.line(f"hf = hostfn({g.imm(a)})")
        g.line("hf(cpu)")
        g.line("regs[0] = 0")
        g.line(f"return {P + 1}")
        g.closed = True
    elif op is Op.LI:
        g.pend += cost
        if not _is_zero(a):
            if isinstance(b, int):
                g.line(f"regs[{g.ridx(a)}] = {g.imm(wrap32(int(b)))}")
            else:
                g.line(f"regs[{g.ridx(a)}] = {g.wrap(g.const(b))}")
    elif op is Op.MOV:
        g.pend += cost
        if not _is_zero(a):
            g.line(f"regs[{g.ridx(a)}] = regs[{g.ridx(b)}]")
    elif op is Op.NEG:
        g.pend += cost
        if not _is_zero(a):
            g.line(f"regs[{g.ridx(a)}] = {g.wrap(f'-regs[{g.ridx(b)}]')}")
    elif op is Op.NOT:
        g.pend += cost
        if not _is_zero(a):
            g.line(f"regs[{g.ridx(a)}] = {g.wrap(f'~regs[{g.ridx(b)}]')}")
    elif op in _MEM_OPS:
        _emit_mem(g, P, ins)
    elif op in SAFE_MEM_OPS:
        _emit_safe_mem(g, ins)
    elif op is Op.FLI:
        g.pend += cost
        if isinstance(b, (int, float)) and math.isfinite(b):
            g.line(f"fregs[{g.ridx(a)}] = {float(b)!r}")
        else:
            g.line(f"fregs[{g.ridx(a)}] = float({g.const(b)})")
    elif op is Op.FMOV:
        g.pend += cost
        g.line(f"fregs[{g.ridx(a)}] = fregs[{g.ridx(b)}]")
    elif op is Op.FNEG:
        g.pend += cost
        g.line(f"fregs[{g.ridx(a)}] = -fregs[{g.ridx(b)}]")
    elif op is Op.CVTIF:
        g.pend += cost
        g.line(f"fregs[{g.ridx(a)}] = float(regs[{g.ridx(b)}])")
    elif op is Op.CVTFI:
        if _is_zero(a):
            g.pend += cost               # skipped entirely: cannot trap
        else:
            g.site(P, cost)              # NaN and +-inf trap
            g.line(f"regs[{g.ridx(a)}] = "
                   f"{g.wrap(f'cvtfi(fregs[{g.ridx(b)}])')}")
    elif op is Op.NOP:
        g.pend += cost
    elif IMM_TO_BASE.get(op, op) in _DIV_BASES:
        fn = _DIV_BASES[IMM_TO_BASE.get(op, op)]
        if _is_zero(a):
            g.pend += cost               # skipped entirely: cannot trap
        else:
            g.site(P, cost)
            x = g.src_reg(b)
            y = g.imm(c) if op in IMM_TO_BASE else g.src_reg(c)
            g.line(f"regs[{g.ridx(a)}] = {g.wrap(f'{fn}({x}, {y})')}")
    elif IMM_TO_BASE.get(op, op) in _INT_EXPR:
        g.pend += cost
        if not _is_zero(a):
            g.line(f"regs[{g.ridx(a)}] = {g.int_expr(ins)}")
    elif op in _FLT_EXPR:
        g.pend += cost
        expr = _FLT_EXPR[op].format(x=f"fregs[{g.ridx(b)}]",
                                    y=f"fregs[{g.ridx(c)}]")
        g.line(f"fregs[{g.ridx(a)}] = {expr}")
    elif op in _FLT_CMP_EXPR:
        g.pend += cost
        if not _is_zero(a):
            rel = _FLT_CMP_EXPR[op]
            g.line(f"regs[{g.ridx(a)}] = "
                   f"int(fregs[{g.ridx(b)}] {rel} fregs[{g.ridx(c)}])")
    else:                                # an Op the engine cannot run
        g.site(P, cost)
        g.line(f"ill({g.const(op)})")


def build_env(machine, tail: list) -> dict:
    """The closure environment every generated unit binds, keyed by
    :data:`_ENV_NAMES`.  ``tail`` is the dispatch loop's unchecked-cycle
    cell (``TAIL``).  The env closes over the I-cache, so the engine
    rebuilds it (and drops every unit) when ``machine.icache`` changes."""
    cpu = machine.cpu
    memory = machine.memory
    icache = machine.icache
    return {
        "cpu": cpu, "regs": cpu.regs, "fregs": cpu.fregs,
        "wrap32": wrap32,
        "lw": memory.load_word, "sw": memory.store_word,
        "lb": memory.load_byte, "lbu": memory.load_byte_unsigned,
        "sb": memory.store_byte,
        "fld": memory.load_double, "fst": memory.store_double,
        "sdiv": sdiv, "smod": smod, "udiv": udiv, "umod": umod,
        "cvtfi": cvtfi, "fdiv": fdiv,
        "hostfn": machine._host_function_for,
        "ill": _illegal,
        "ic": icache.access if icache is not None else None,
        "TAIL": tail,
        "MachineError": MachineError,
        # Closure cells for the trace tier's inlined memory fast
        # path (``inline_mem``).  The region bounds are fixed at
        # Memory construction, exactly like the bound accessor
        # methods above.
        "data": memory._data, "ifb": int.from_bytes,
        "heap4": memory.heap_limit - 4, "heap1": memory.heap_limit,
        "stackb": memory.stack_base,
        "top4": memory.size - 4, "top1": memory.size,
    }


def compile_block(machine, entry: int, env: dict):
    """Predecode and compile the superblock starting at ``entry``.

    Returns ``(fn, end)``: ``end`` is one past the block's last pc when
    the block lies entirely within already-linked code (the caller may
    cache it), else None."""
    segment = machine.code
    code = segment.instructions
    horizon = segment._linked
    cacheable = entry < horizon
    # Never predecode past the linked horizon: link() may still
    # patch Label/FuncRef operands there.  Unlinked entries compile
    # from the operands as they stand, uncached.
    cap = min(len(code), horizon) if cacheable else len(code)

    instrs = carve_block(code, entry, cap)

    icache = machine.icache
    has_site = any(_charge_site(ins) for ins in instrs)
    g = _Gen(entry, use_cy=has_site or icache is not None,
             has_site=has_site, icache_on=icache is not None)

    for P, ins in enumerate(instrs, entry):
        if icache is not None and ins.op is not Op.HALT:
            g.line(f"cy += ic({P})")
        _emit_one(g, P, ins)
    if not g.closed:                     # capped / horizon / end of code
        g.charge(0)
        g.pend = 0
        g.line(f"return {entry + len(instrs)}")

    blk = assemble(g, env)
    report.record_block_compiled(len(instrs))
    _trace.active().instant("superblock", cat="event", entry=entry,
                            instructions=len(instrs))
    return blk, (entry + len(instrs) if cacheable else None)


def assemble(g: _Gen, env: dict):
    """Wrap the generated body in the factory/closure scaffolding and
    exec it.  The factory parameters become closure cells, so every
    machine touchpoint is one LOAD_DEREF in the hot path."""
    params = list(_ENV_NAMES) + sorted(g.consts)
    out = [f"def __make__({', '.join(params)}):",
           "    def __block__():"]
    depth = 2
    if g.use_cy:
        out.append("        cy = 0")
    if g.has_site:
        out.append(f"        pc = {g.entry}")
        out.append("        try:")
        depth = 3
    pad = "    " * depth
    out.extend(pad + line for line in g.lines)
    if g.has_site:
        out.append("        except MachineError:")
        out.append("            cpu.cycles += cy")
        out.append("            cpu.pc = pc")
        out.append("            raise")
    out.append("    return __block__")
    source = "\n".join(out)
    namespace: dict = {}
    exec(compile(source, f"<superblock@{g.entry}>", "exec"), namespace)
    bound = dict(env)
    bound.update(g.consts)
    return namespace["__make__"](**bound)
