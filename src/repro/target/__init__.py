"""The simulated target machine.

A 32-bit RISC machine with a documented cycle model, standing in for the
paper's MIPS/Alpha/SPARC targets.  The package is deliberately hardened:
memory is segmented and bounds-checked with guard regions, every fault
surfaces as a typed :class:`~repro.errors.MachineError` subclass carrying
the faulting pc and disassembled instruction, execution is bounded by a
cycle-budget watchdog, and both the heap and the code segment expose
deterministic fault-injection hooks so recovery paths can be tested.

Modules:

* :mod:`repro.target.isa` — instruction set, registers, cycle model,
  disassembler;
* :mod:`repro.target.program` — labels, the code segment, and the
  incremental linker;
* :mod:`repro.target.memory` — segmented, bounds-checked data memory;
* :mod:`repro.target.cpu` — the CPU interpreter, the I-cache model, and
  the :class:`~repro.target.cpu.Machine` facade;
* :mod:`repro.target.dispatch` — the superblock code generator
  (predecoded superblocks, one emitter per instruction) behind the
  dispatch engine in :mod:`repro.tiering.engine`, the default way a
  :class:`~repro.target.cpu.Machine` executes installed code.
"""

from repro.target.cpu import CPU, ENGINES, Function, ICache, Machine
from repro.target.dispatch import MAX_BLOCK_INSTRUCTIONS
from repro.target.isa import (
    CYCLE_COST,
    Instruction,
    Op,
    Reg,
    disassemble,
    unsigned32,
    wrap32,
)
from repro.target.memory import Memory
from repro.target.program import CodeSegment, Label

__all__ = [
    "CPU",
    "CodeSegment",
    "CYCLE_COST",
    "ENGINES",
    "MAX_BLOCK_INSTRUCTIONS",
    "Function",
    "ICache",
    "Instruction",
    "Label",
    "Machine",
    "Memory",
    "Op",
    "Reg",
    "disassemble",
    "unsigned32",
    "wrap32",
]
