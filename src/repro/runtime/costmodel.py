"""Codegen cycle accounting.

The paper reports dynamic compilation overhead in *cycles per generated
instruction* on a 70 MHz SparcStation 5 (Table 1, Figures 6 and 7).  This
reproduction cannot measure SPARC cycles, so each dynamic back end charges a
:class:`CostModel` for the work it actually performs: every emitted
instruction, closure capture, IR record, flow-graph node, liveness set
operation, live-interval scan step, interference edge, and translated
instruction is counted as it happens, then weighted by the per-event cycle
constants below.

The constants are calibrated once, globally (see EXPERIMENTS.md), so that the
aggregate magnitudes land in the paper's reported bands — VCODE 100-500 and
ICODE 1000-2500 cycles per generated instruction, with 70-80% of ICODE's cost
in register allocation and liveness.  All *comparative* results (VCODE vs
ICODE, linear scan vs graph coloring, per-benchmark differences) follow from
the measured event counts, not from the calibration.

Each ``(phase, event)`` key has an integer slot, exported as a constant
such as :data:`IR_RECORD`; back ends charge by slot, and every per-phase
or per-event figure is derived from the per-slot counts.
"""

from __future__ import annotations

import enum
import operator
from collections import defaultdict


class Phase(enum.Enum):
    """Codegen phases, matching the stacked bars of Figures 6 and 7."""

    CLOSURE = "closure"        # building/walking closures and other meta-data
    EMIT = "emit"              # VCODE: writing binary instructions
    IR = "ir"                  # ICODE: recording intermediate representation
    FLOWGRAPH = "flowgraph"    # ICODE: basic blocks + def/use sets
    LIVENESS = "liveness"      # ICODE: live-variable dataflow
    INTERVALS = "intervals"    # ICODE: building live intervals
    REGALLOC = "regalloc"      # ICODE: linear scan or graph coloring
    TRANSLATE = "translate"    # ICODE: IR -> binary translation
    LINK = "link"              # resolving labels, installing code
    PATCH = "patch"            # code cache: template copy + hole patching


#: Cycle weights per counted event.  Keys are (phase, event) pairs.
#: Calibrated (see EXPERIMENTS.md) so aggregate magnitudes land in the
#: paper's bands: VCODE 100-500 and ICODE 1000-2500 cycles per generated
#: instruction with 70-80% of ICODE's total in regalloc+liveness+intervals.
DEFAULT_WEIGHTS = {
    # closures and meta-data (shared by both back ends)
    (Phase.CLOSURE, "alloc"): 24,          # arena bump + header init
    (Phase.CLOSURE, "capture"): 10,        # store one slot
    (Phase.CLOSURE, "cgf_call"): 16,       # indirect call into a nested CGF
    # VCODE one-pass emission
    (Phase.EMIT, "instr"): 190,            # one macro: bit-twiddling + store
    (Phase.EMIT, "lvalue_check"): 15,      # reg-or-memory conditional (4.2)
    (Phase.EMIT, "getreg"): 12,
    (Phase.EMIT, "putreg"): 8,
    (Phase.EMIT, "rtconst_fold"): 16,      # evaluating a $-expression
    # ICODE IR construction
    (Phase.IR, "record"): 60,              # append one 8-byte IR record
    (Phase.IR, "vreg"): 10,                # allocate a virtual register
    (Phase.IR, "rtconst_fold"): 16,
    (Phase.IR, "optimize"): 30,            # per instruction per opt round
    (Phase.IR, "analysis"): 22,            # abstract interp, per instr visit
    # flow graph
    (Phase.FLOWGRAPH, "block"): 100,
    (Phase.FLOWGRAPH, "instr"): 25,        # scan + def/use update
    (Phase.FLOWGRAPH, "edge"): 30,
    # liveness (iterative dataflow)
    (Phase.LIVENESS, "block_pass"): 160,   # per block per iteration
    (Phase.LIVENESS, "instr_pass"): 110,    # per instruction per iteration
    (Phase.LIVENESS, "setop"): 18,         # per set word touched
    # live intervals
    (Phase.INTERVALS, "instr"): 50,
    (Phase.INTERVALS, "interval"): 260,
    # register allocation
    (Phase.REGALLOC, "scan_step"): 320,    # linear scan: one interval visited
    (Phase.REGALLOC, "active_op"): 110,     # active-list insert/expire/search
    (Phase.REGALLOC, "spill"): 240,
    (Phase.REGALLOC, "ig_node"): 320,      # graph coloring: per node
    (Phase.REGALLOC, "ig_edge"): 90,       # per interference edge
    (Phase.REGALLOC, "ig_probe"): 30,      # per (def, live var) visit
    (Phase.REGALLOC, "simplify_step"): 160,
    (Phase.REGALLOC, "rewrite"): 5,        # per-instruction operand rewrite
    # translation ICODE -> binary
    (Phase.TRANSLATE, "instr"): 170,       # dispatch + emit + peephole window
    (Phase.TRANSLATE, "spill_code"): 40,
    (Phase.TRANSLATE, "elide"): 3,         # swap in the safe opcode + fact
    # linking
    (Phase.LINK, "patch"): 6,
    (Phase.LINK, "fact_check"): 9,         # re-derive one elision fact
    # specialization cache (codecache.py)
    (Phase.CLOSURE, "cache_probe"): 12,    # hash + memo lookup + guard check
    (Phase.PATCH, "copy_instr"): 4,        # memcpy one template instruction
    (Phase.PATCH, "hole"): 6,              # recompute + store one immediate
    (Phase.PATCH, "guard"): 8,             # re-read one guarded memory word
}


#: Every ``DEFAULT_WEIGHTS`` key numbered, in declaration order.  A
#: charge names its event by slot, so counting it is one list add.
_SLOT_KEYS = tuple(DEFAULT_WEIGHTS)
_SLOT_PHASES = tuple(phase for phase, _event in _SLOT_KEYS)
_SLOT_WEIGHTS = tuple(DEFAULT_WEIGHTS.values())


def _slot(phase: Phase, event: str) -> int:
    return _SLOT_KEYS.index((phase, event))


CLOSURE_ALLOC = _slot(Phase.CLOSURE, "alloc")
CLOSURE_CAPTURE = _slot(Phase.CLOSURE, "capture")
CLOSURE_CGF_CALL = _slot(Phase.CLOSURE, "cgf_call")
EMIT_INSTR = _slot(Phase.EMIT, "instr")
EMIT_LVALUE_CHECK = _slot(Phase.EMIT, "lvalue_check")
EMIT_GETREG = _slot(Phase.EMIT, "getreg")
EMIT_PUTREG = _slot(Phase.EMIT, "putreg")
EMIT_RTCONST_FOLD = _slot(Phase.EMIT, "rtconst_fold")
IR_RECORD = _slot(Phase.IR, "record")
IR_VREG = _slot(Phase.IR, "vreg")
IR_RTCONST_FOLD = _slot(Phase.IR, "rtconst_fold")
IR_OPTIMIZE = _slot(Phase.IR, "optimize")
IR_ANALYSIS = _slot(Phase.IR, "analysis")
FLOWGRAPH_BLOCK = _slot(Phase.FLOWGRAPH, "block")
FLOWGRAPH_INSTR = _slot(Phase.FLOWGRAPH, "instr")
FLOWGRAPH_EDGE = _slot(Phase.FLOWGRAPH, "edge")
LIVENESS_BLOCK_PASS = _slot(Phase.LIVENESS, "block_pass")
LIVENESS_INSTR_PASS = _slot(Phase.LIVENESS, "instr_pass")
LIVENESS_SETOP = _slot(Phase.LIVENESS, "setop")
INTERVALS_INSTR = _slot(Phase.INTERVALS, "instr")
INTERVALS_INTERVAL = _slot(Phase.INTERVALS, "interval")
REGALLOC_SCAN_STEP = _slot(Phase.REGALLOC, "scan_step")
REGALLOC_ACTIVE_OP = _slot(Phase.REGALLOC, "active_op")
REGALLOC_SPILL = _slot(Phase.REGALLOC, "spill")
REGALLOC_IG_NODE = _slot(Phase.REGALLOC, "ig_node")
REGALLOC_IG_EDGE = _slot(Phase.REGALLOC, "ig_edge")
REGALLOC_IG_PROBE = _slot(Phase.REGALLOC, "ig_probe")
REGALLOC_SIMPLIFY_STEP = _slot(Phase.REGALLOC, "simplify_step")
REGALLOC_REWRITE = _slot(Phase.REGALLOC, "rewrite")
TRANSLATE_INSTR = _slot(Phase.TRANSLATE, "instr")
TRANSLATE_SPILL_CODE = _slot(Phase.TRANSLATE, "spill_code")
TRANSLATE_ELIDE = _slot(Phase.TRANSLATE, "elide")
LINK_PATCH = _slot(Phase.LINK, "patch")
LINK_FACT_CHECK = _slot(Phase.LINK, "fact_check")
CLOSURE_CACHE_PROBE = _slot(Phase.CLOSURE, "cache_probe")
PATCH_COPY_INSTR = _slot(Phase.PATCH, "copy_instr")
PATCH_HOLE = _slot(Phase.PATCH, "hole")
PATCH_GUARD = _slot(Phase.PATCH, "guard")


class CodegenStats:
    """Accumulated per-slot event counts for one instantiation; every
    cycle figure is derived from them."""

    def __init__(self):
        self.counts = [0] * len(_SLOT_KEYS)     # slot -> event count
        self.generated_instructions = 0

    def charge(self, slot: int, count: int = 1) -> None:
        self.counts[slot] += count

    @property
    def events(self) -> dict:
        """(phase, event) -> count, 0 for an event that never happened."""
        return defaultdict(int, {key: count for key, count
                                 in zip(_SLOT_KEYS, self.counts) if count})

    @property
    def cycles(self) -> dict:
        """Phase -> cycles, 0 for a phase nothing charged."""
        cycles = defaultdict(int)
        for phase, weight, count in zip(_SLOT_PHASES, _SLOT_WEIGHTS,
                                        self.counts):
            if count:
                cycles[phase] += weight * count
        return cycles

    def total_cycles(self) -> int:
        return sum(map(operator.mul, _SLOT_WEIGHTS, self.counts))

    def cycles_per_instruction(self) -> float:
        if self.generated_instructions == 0:
            return 0.0
        return self.total_cycles() / self.generated_instructions

    def phase_breakdown(self) -> dict:
        """Phase name -> cycles per generated instruction."""
        n = max(self.generated_instructions, 1)
        return {phase.value: cyc / n for phase, cyc in sorted(
            self.cycles.items(), key=lambda kv: kv[0].value)}

    def phase_cycles(self) -> dict:
        """Phase -> raw cycle total, in canonical :class:`Phase` order
        (the exact numbers the telemetry tracer tiles a compile span
        with)."""
        cycles = self.cycles
        return {phase: cycles[phase] for phase in Phase if cycles[phase]}

    def merge(self, other: "CodegenStats") -> None:
        self.counts = list(map(operator.add, self.counts, other.counts))
        self.generated_instructions += other.generated_instructions

    def __repr__(self) -> str:
        return (
            f"<CodegenStats {self.total_cycles()} cycles / "
            f"{self.generated_instructions} instrs>"
        )


class CostModel:
    """Factory/owner of :class:`CodegenStats`, one per machine.

    ``current`` is the stats object charged by in-flight code generation;
    ``compile()`` swaps in a fresh one per instantiation and accumulates
    totals into ``lifetime``.
    """

    def __init__(self):
        self.current = CodegenStats()
        self.lifetime = CodegenStats()

    def begin_instantiation(self) -> CodegenStats:
        self.current = CodegenStats()
        return self.current

    def end_instantiation(self) -> CodegenStats:
        finished = self.current
        self.lifetime.merge(finished)
        self.current = CodegenStats()
        return finished

    def charge(self, slot: int, count: int = 1) -> None:
        self.current.counts[slot] += count

    def note_instruction(self, count: int = 1) -> None:
        self.current.generated_instructions += count
