"""The CPU interpreter, the I-cache model, and the Machine facade.

Two execution engines share this machine model:

* the dispatch engine in :mod:`repro.tiering.engine`: code is
  predecoded into superblocks (:mod:`repro.target.dispatch`) compiled
  to closed-over Python functions, with fuel checked at block
  boundaries.  ``engine="tiered"`` (the default) runs it with the
  profile-guided trace tier on, which links hot superblocks across
  observed branches into widened straight-line units (knobs via the
  ``tiering=`` policy, and ``tiering_shared=`` for cross-session
  profile warm-up); ``engine="block"`` runs the same engine with the
  trace tier off.  Modeled cycles, final machine state, and the trap
  taxonomy are identical to the reference by construction (the
  differential suite in ``tests/test_engines.py`` enforces it in both
  modes).
* ``engine="reference"`` — the per-instruction stepper below, kept as
  the plainly-auditable oracle for differential testing.

Execution is hardened rather than fast-and-loose:

* every fault — bad memory access, illegal instruction, pc out of the
  code segment — surfaces as a typed :class:`~repro.errors.MachineError`
  subclass with the faulting pc, the disassembled instruction, and the
  name of the containing dynamic function attached;
* a **watchdog** bounds every :meth:`Machine.call` by a cycle budget
  (:data:`DEFAULT_FUEL` unless overridden per-machine or per-call), so a
  runaway generated loop raises
  :class:`~repro.errors.CycleBudgetExceeded` instead of hanging;
* host callbacks (``malloc``, the print family) run through a registry
  indexed by ``HOSTCALL`` operands, never through raw function pointers.

The optional :class:`ICache` models a direct-mapped instruction cache and
charges a per-line miss penalty into the cycle counter — enough to
reproduce the paper's observation (4.4) that fully-unrolled dynamic code
loses its advantage once it outgrows the cache.
"""

from __future__ import annotations

import math
import operator

from repro.errors import (
    CycleBudgetExceeded,
    IllegalInstruction,
    LinkError,
    MachineError,
    SegmentationFault,
)
from repro.target.isa import (
    ARG_REGS,
    CYCLE_COST,
    FARG_REGS,
    FReg,
    INSTRUCTION_BYTES,
    NUM_FREGS,
    NUM_REGS,
    Op,
    Reg,
    cvtfi,
    disassemble_one,
    fdiv,
    sdiv,
    smod,
    udiv,
    umod,
    unsigned32,
    wrap32,
)
from repro.target.memory import Memory
from repro.target.program import DEFAULT_CODE_CAPACITY, CodeSegment
from repro.telemetry import trace as _trace

#: Default watchdog budget, in cycles per ``call``.  Generous — a full
#: 640x480 image-processing benchmark fits with a wide margin — but
#: finite, so an accidental infinite loop always traps.
DEFAULT_FUEL = 100_000_000

#: Execution engine names accepted by :class:`Machine`.
ENGINES = ("tiered", "block", "reference")


# -- instruction semantics ----------------------------------------------------------
# The trapping helpers (sdiv/smod/udiv/umod/cvtfi/fdiv) live in isa.py,
# shared with the superblock code generator.

_INT_BIN = {
    Op.ADD: operator.add, Op.SUB: operator.sub, Op.MUL: operator.mul,
    Op.DIV: sdiv, Op.MOD: smod, Op.DIVU: udiv, Op.MODU: umod,
    Op.AND: operator.and_, Op.OR: operator.or_, Op.XOR: operator.xor,
    Op.SLL: lambda x, y: x << (y & 31),
    Op.SRL: lambda x, y: unsigned32(x) >> (y & 31),
    Op.SRA: lambda x, y: x >> (y & 31),
    Op.SEQ: lambda x, y: int(x == y), Op.SNE: lambda x, y: int(x != y),
    Op.SLT: lambda x, y: int(x < y), Op.SLE: lambda x, y: int(x <= y),
    Op.SGT: lambda x, y: int(x > y), Op.SGE: lambda x, y: int(x >= y),
    Op.SLTU: lambda x, y: int(unsigned32(x) < unsigned32(y)),
}

#: Immediate form -> register-form semantics (ADDI shares ADD's lambda).
_IMM_BASE = {}
for _op in Op:
    if _op.name.endswith("I") and _op.name[:-1] in Op.__members__:
        _base = Op[_op.name[:-1]]
        if _base in _INT_BIN:
            _IMM_BASE[_op] = _INT_BIN[_base]
del _op, _base

_FLT_BIN = {
    Op.FADD: operator.add, Op.FSUB: operator.sub,
    Op.FMUL: operator.mul, Op.FDIV: fdiv,
}

_FLT_CMP = {
    Op.FSEQ: operator.eq, Op.FSNE: operator.ne,
    Op.FSLT: operator.lt, Op.FSLE: operator.le,
    Op.FSGT: operator.gt, Op.FSGE: operator.ge,
}

#: Single-probe dispatch table for the reference stepper: op -> (kind,
#: semantics fn), replacing four separate per-iteration dict probes.
#: Kinds: 0 int reg-form, 1 int imm-form, 2 float binop, 3 float compare.
_STEP_TABLE = {}
for _op, _fn in _INT_BIN.items():
    _STEP_TABLE[_op] = (0, _fn)
for _op, _fn in _IMM_BASE.items():
    _STEP_TABLE[_op] = (1, _fn)
for _op, _fn in _FLT_BIN.items():
    _STEP_TABLE[_op] = (2, _fn)
for _op, _fn in _FLT_CMP.items():
    _STEP_TABLE[_op] = (3, _fn)
del _op, _fn


class ICache:
    """A direct-mapped instruction cache model.

    Tag checks happen on every fetch; a miss charges ``miss_penalty``
    cycles into the CPU's counter.  Lines hold a power-of-two number of
    :data:`~repro.target.isa.INSTRUCTION_BYTES`-sized instructions.
    """

    def __init__(self, size_bytes: int = 8192, line_bytes: int = 32,
                 miss_penalty: int = 20):
        if line_bytes < INSTRUCTION_BYTES or line_bytes % INSTRUCTION_BYTES:
            raise ValueError(
                f"line_bytes must be a multiple of {INSTRUCTION_BYTES}, "
                f"got {line_bytes}"
            )
        per_line = line_bytes // INSTRUCTION_BYTES
        if per_line & (per_line - 1):
            raise ValueError(
                f"instructions per line must be a power of two, got {per_line}"
            )
        if size_bytes < line_bytes or size_bytes % line_bytes:
            raise ValueError(
                "size_bytes must be a positive multiple of line_bytes, "
                f"got {size_bytes}"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.miss_penalty = miss_penalty
        self.n_lines = size_bytes // line_bytes
        self.accesses = 0
        self.misses = 0
        self._tags = [None] * self.n_lines

    def access(self, pc: int) -> int:
        """Model a fetch of the instruction at ``pc``; return the cycle
        penalty (0 on a hit)."""
        line = (pc * INSTRUCTION_BYTES) // self.line_bytes
        self.accesses += 1
        slot = line % self.n_lines
        if self._tags[slot] != line:
            self._tags[slot] = line
            self.misses += 1
            return self.miss_penalty
        return 0

    def flush(self) -> None:
        """Invalidate every line (counters are preserved)."""
        self._tags = [None] * self.n_lines

    def __repr__(self) -> str:
        return (f"<ICache {self.size_bytes}B/{self.line_bytes}B lines, "
                f"{self.misses}/{self.accesses} misses>")


class CPU:
    """Architectural state: register files, pc, and the cycle counter."""

    __slots__ = ("regs", "fregs", "pc", "cycles")

    def __init__(self):
        self.regs = [0] * NUM_REGS
        self.fregs = [0.0] * NUM_FREGS
        self.pc = 0
        self.cycles = 0


class Machine:
    """The complete target machine: code segment, data memory, CPU,
    optional I-cache, host-callback registry, and output buffer."""

    def __init__(self, memory: Memory | None = None,
                 fuel: int | None = DEFAULT_FUEL,
                 icache: ICache | None = None,
                 code_capacity: int = DEFAULT_CODE_CAPACITY,
                 engine: str = "tiered",
                 tiering=None, tiering_shared=None):
        if engine not in ENGINES:
            raise MachineError(
                f"unknown execution engine {engine!r} "
                f"(choose from {', '.join(ENGINES)})"
            )
        self.memory = memory if memory is not None else Memory()
        self.code = CodeSegment(code_capacity)
        self.cpu = CPU()
        self.fuel = fuel
        self.icache = icache
        self.engine = engine
        self.output: list = []
        self._host_functions: list = []
        self._host_index: dict = {}
        self._register_default_hostcalls()
        if engine == "reference":
            self._engine = None
        else:
            from repro.tiering import TieredEngine

            self._engine = TieredEngine(self, policy=tiering,
                                        shared=tiering_shared)
            self.code.add_invalidation_listener(self._engine.on_segment_event)

    # -- host callbacks ---------------------------------------------------------

    def register_host_function(self, name: str, fn) -> int:
        """Register ``fn`` (called with the CPU; ABI: args in ``a0``../
        ``f1``.., results in ``rv``/``f0``) under ``name``; return its
        ``HOSTCALL`` index."""
        if name in self._host_index:
            raise LinkError(f"host function {name!r} registered twice")
        index = len(self._host_functions)
        self._host_functions.append(fn)
        self._host_index[name] = index
        return index

    def host_function_index(self, name: str) -> int:
        index = self._host_index.get(name)
        if index is None:
            raise LinkError(f"unknown host function {name!r}")
        return index

    def _host_function_for(self, index):
        """Resolve a ``HOSTCALL`` operand to a callback, trapping (with
        full pc/instr context via the standard annotation path) on
        anything that is not a registered index — including malformed
        operands and negative indices, which raw list indexing would
        respectively reject with a bare ``TypeError`` or silently wrap
        around to the wrong callback."""
        fns = self._host_functions
        if isinstance(index, int) and 0 <= index < len(fns):
            return fns[index]
        raise IllegalInstruction(f"hostcall index {index!r} is not registered")

    def _register_default_hostcalls(self) -> None:
        memory = self.memory
        output = self.output

        def print_int(cpu):
            output.append(str(wrap32(cpu.regs[Reg.A0])))

        def print_str(cpu):
            output.append(memory.read_cstring(cpu.regs[Reg.A0]))

        def print_double(cpu):
            output.append(repr(float(cpu.fregs[FReg.F1])))

        def putchar(cpu):
            ch = cpu.regs[Reg.A0] & 0xFF
            output.append(chr(ch))
            cpu.regs[Reg.RV] = ch

        for name, fn in (("print_int", print_int), ("print_str", print_str),
                         ("print_double", print_double),
                         ("putchar", putchar)):
            self.register_host_function(name, fn)

    def drain_output(self) -> str:
        """Return and clear everything the program printed."""
        text = "".join(self.output)
        del self.output[:]
        return text

    # -- running ----------------------------------------------------------------

    def call(self, entry: int, args=(), fargs=(), returns: str = "i",
             fuel: int | None = None, name: str | None = None,
             engine: str | None = None):
        """Call the function at ``entry`` with the standard convention.

        ``args`` fill ``a0``.., ``fargs`` fill ``f1``..; the result is
        read from ``rv`` (``returns="i"``), ``f0`` (``"f"``), or ignored
        (``"v"``).  ``fuel`` overrides the machine's watchdog budget for
        this call; ``name`` labels the call frame in trap reports;
        ``engine`` overrides the machine's execution engine for this call
        only (``"reference"`` pins the per-instruction oracle stepper —
        the serving ladder's most conservative rung, used when compiled
        superblocks are no longer trusted).
        """
        if engine is not None and engine not in ENGINES:
            raise MachineError(
                f"unknown execution engine {engine!r} "
                f"(choose from {', '.join(ENGINES)})"
            )
        code = self.code.instructions
        if not isinstance(entry, int) or not 0 <= entry < len(code):
            raise SegmentationFault(
                f"call entry {entry!r} is out of code range 0..{len(code) - 1}"
            )
        if len(args) > len(ARG_REGS):
            raise MachineError(
                f"too many integer arguments ({len(args)}): the ABI passes "
                f"at most {len(ARG_REGS)} in registers"
            )
        if len(fargs) > len(FARG_REGS):
            raise MachineError(
                f"too many float arguments ({len(fargs)}): the ABI passes "
                f"at most {len(FARG_REGS)} in registers"
            )
        cpu = self.cpu
        cpu.regs[Reg.ZERO] = 0
        cpu.regs[Reg.SP] = self.memory.stack_top
        cpu.regs[Reg.RA] = 0                 # ret at top level hits HALT at 0
        for reg, value in zip(ARG_REGS, args):
            cpu.regs[reg] = wrap32(int(value))
        for freg, value in zip(FARG_REGS, fargs):
            cpu.fregs[freg] = float(value)
        budget = self.fuel if fuel is None else fuel
        tracer = _trace.active()
        if tracer.enabled:
            label = name or self.code.function_at(entry) or str(entry)
            span = tracer.begin(f"exec:{label}", cat="exec", entry=entry)
            before = cpu.cycles
            try:
                self._run(entry, budget, name, engine)
            except MachineError as trap:
                tracer.end(span, advance=cpu.cycles - before,
                           trap=type(trap).__name__)
                raise
            tracer.end(span, advance=cpu.cycles - before)
        else:
            self._run(entry, budget, name, engine)
        if returns == "f":
            return cpu.fregs[FReg.F0]
        if returns in ("v", None):
            return None
        return wrap32(cpu.regs[Reg.RV])

    def distrust_block_cache(self) -> None:
        """Drop every compiled superblock and formed trace, plus the
        hotness profile behind them (no-op on the reference engine).

        The serving ladder calls this when it degrades a session to the
        reference rung: if predecoded blocks are suspected stale or
        poisoned, the next dispatch-engine run recompiles from the code
        segment, and the current request executes on the oracle stepper.
        """
        if self._engine is not None:
            self._engine.clear()

    def _run(self, entry: int, budget: int | None, name: str | None,
             engine: str | None = None) -> None:
        if self._engine is not None and engine != "reference":
            self._engine.run(entry, budget, name)
        else:
            self._run_reference(entry, budget, name)

    def _run_reference(self, entry: int, budget: int | None,
                       name: str | None) -> None:
        cpu = self.cpu
        regs = cpu.regs
        fregs = cpu.fregs
        memory = self.memory
        code = self.code.instructions
        icache = self.icache
        cost = CYCLE_COST
        step = _STEP_TABLE
        limit = math.inf if budget is None else cpu.cycles + budget
        pc = entry
        instr = None
        try:
            while True:
                if pc < 0 or pc >= len(code):
                    instr = None
                    raise SegmentationFault(
                        f"pc {pc} is out of code range 0..{len(code) - 1}"
                    )
                if icache is not None:
                    cpu.cycles += icache.access(pc)
                instr = code[pc]
                op = instr.op
                if op is Op.HALT:
                    cpu.pc = pc
                    return
                cpu.cycles += cost[op]
                if cpu.cycles > limit:
                    raise CycleBudgetExceeded(
                        f"cycle budget of {budget} exceeded: runaway "
                        "execution halted by the watchdog"
                    )
                a = instr.a
                b = instr.b
                handler = step.get(op)
                if handler is not None:
                    kind, fn = handler
                    if kind == 0:                # int binop, register form
                        if a != 0:
                            regs[a] = wrap32(fn(regs[b], regs[instr.c]))
                    elif kind == 1:              # int binop, immediate form
                        if a != 0:
                            regs[a] = wrap32(fn(regs[b], instr.c))
                    elif kind == 2:              # float binop
                        fregs[a] = fn(fregs[b], fregs[instr.c])
                    else:                        # float compare
                        if a != 0:
                            regs[a] = int(fn(fregs[b], fregs[instr.c]))
                    pc += 1
                    continue
                if op is Op.LI:
                    if a != 0:
                        regs[a] = wrap32(b)
                    pc += 1
                elif op is Op.MOV:
                    if a != 0:
                        regs[a] = regs[b]
                    pc += 1
                elif op is Op.LW:
                    value = memory.load_word(regs[b] + instr.c)
                    if a != 0:
                        regs[a] = value
                    pc += 1
                elif op is Op.SW:
                    memory.store_word(regs[b] + instr.c, regs[a])
                    pc += 1
                # Proven-safe memory ops: CYCLE_COST already charges one
                # cycle instead of two, but the reference stepper keeps
                # the checked accessor as an audit oracle — an unsound
                # exported fact traps here instead of silently reading
                # or corrupting memory outside the guarded regions.
                elif op is Op.LWS:
                    value = memory.load_word(regs[b] + instr.c)
                    if a != 0:
                        regs[a] = value
                    pc += 1
                elif op is Op.SWS:
                    memory.store_word(regs[b] + instr.c, regs[a])
                    pc += 1
                elif op is Op.BEQZ:
                    if regs[a] == 0:
                        cpu.cycles += 1      # taken-branch penalty
                        pc = b
                    else:
                        pc += 1
                elif op is Op.BNEZ:
                    if regs[a] != 0:
                        cpu.cycles += 1
                        pc = b
                    else:
                        pc += 1
                elif op is Op.JMP:
                    pc = a
                elif op is Op.CALL:
                    regs[Reg.RA] = pc + 1
                    pc = a
                elif op is Op.CALLR:
                    regs[Reg.RA] = pc + 1
                    pc = regs[a]
                elif op is Op.RET:
                    pc = regs[Reg.RA]
                elif op is Op.HOSTCALL:
                    host_fn = self._host_function_for(a)
                    host_fn(cpu)
                    regs[Reg.ZERO] = 0       # a buggy callback cannot break it
                    pc += 1
                elif op is Op.NEG:
                    if a != 0:
                        regs[a] = wrap32(-regs[b])
                    pc += 1
                elif op is Op.NOT:
                    if a != 0:
                        regs[a] = wrap32(~regs[b])
                    pc += 1
                elif op is Op.LB:
                    value = memory.load_byte(regs[b] + instr.c)
                    if a != 0:
                        regs[a] = value
                    pc += 1
                elif op is Op.LBU:
                    value = memory.load_byte_unsigned(regs[b] + instr.c)
                    if a != 0:
                        regs[a] = value
                    pc += 1
                elif op is Op.SB:
                    memory.store_byte(regs[b] + instr.c, regs[a])
                    pc += 1
                elif op is Op.FLW:
                    fregs[a] = memory.load_double(regs[b] + instr.c)
                    pc += 1
                elif op is Op.FSW:
                    memory.store_double(regs[b] + instr.c, fregs[a])
                    pc += 1
                elif op is Op.LBS:
                    value = memory.load_byte(regs[b] + instr.c)
                    if a != 0:
                        regs[a] = value
                    pc += 1
                elif op is Op.LBUS:
                    value = memory.load_byte_unsigned(regs[b] + instr.c)
                    if a != 0:
                        regs[a] = value
                    pc += 1
                elif op is Op.SBS:
                    memory.store_byte(regs[b] + instr.c, regs[a])
                    pc += 1
                elif op is Op.FLWS:
                    fregs[a] = memory.load_double(regs[b] + instr.c)
                    pc += 1
                elif op is Op.FSWS:
                    memory.store_double(regs[b] + instr.c, fregs[a])
                    pc += 1
                elif op is Op.FLI:
                    fregs[a] = float(b)
                    pc += 1
                elif op is Op.FMOV:
                    fregs[a] = fregs[b]
                    pc += 1
                elif op is Op.FNEG:
                    fregs[a] = -fregs[b]
                    pc += 1
                elif op is Op.CVTIF:
                    fregs[a] = float(regs[b])
                    pc += 1
                elif op is Op.CVTFI:
                    if a != 0:
                        regs[a] = wrap32(cvtfi(fregs[b]))
                    pc += 1
                elif op is Op.NOP:
                    pc += 1
                else:
                    raise IllegalInstruction(
                        f"cannot execute opcode {op.name}"
                    )
        except MachineError as trap:
            cpu.pc = pc
            text = disassemble_one(instr) if instr is not None else None
            trap.attach_context(pc=pc, instr=text,
                                function=name or self.code.function_at(pc))
            raise

    def __repr__(self) -> str:
        return (f"<Machine code={len(self.code.instructions)} "
                f"cycles={self.cpu.cycles}>")


class Function:
    """A Python callable wrapping an installed target function.

    ``signature`` is one character per parameter (``i`` integer/pointer,
    ``f`` double); ``returns`` is ``"i"``, ``"f"``, or ``"v"``.
    """

    __slots__ = ("machine", "entry", "signature", "returns", "name")

    def __init__(self, machine: Machine, entry: int, signature: str = "",
                 returns: str = "i", name: str = "<dynamic>"):
        self.machine = machine
        self.entry = entry
        self.signature = signature
        self.returns = returns
        self.name = name

    def __call__(self, *args):
        if len(args) != len(self.signature):
            raise MachineError(
                f"{self.name} expects {len(self.signature)} argument(s), "
                f"got {len(args)}"
            )
        int_args = []
        float_args = []
        for cls, value in zip(self.signature, args):
            (float_args if cls == "f" else int_args).append(value)
        return self.machine.call(self.entry, int_args, float_args,
                                 self.returns, name=self.name)

    def __repr__(self) -> str:
        return (f"<Function {self.name}@{self.entry} "
                f"({self.signature})->{self.returns}>")
