"""Layer 4 — install-time code audit.

The last line of defense before dynamic code is published into the code
segment and becomes reachable: after a function (or a Tier-2 template
clone) is linked, audit exactly the range it occupies.

:func:`check_range` validates the published instructions themselves:

``unresolved-operand``
    a Label or FuncRef survived linking (the linker should have patched
    every one to an absolute address).
``branch-out-of-segment``
    a ``JMP``/``CALL``/``BEQZ``/``BNEZ`` target lies outside ``[0,
    link-horizon)`` — a branch into unlinked (or nonexistent) code.
``zero-write``
    an instruction names the hardwired ZERO register as its destination
    (writes are silently discarded; generated code never legitimately
    does this).
``bad-hostcall-index``
    a ``HOSTCALL`` index outside the machine's host-function table.
``bad-register``
    a register operand outside its file.

:func:`check_template` replays a Tier-2 instantiation independently: it
recomputes every hole value (``wrap32(value[origin] * scale + addend)``)
and every relocation (``old + delta``) from the template's records, the
checksum-verified body the clone copied, and the new signature, and
compares against what was actually emitted — catching a skipped or
mis-applied patch even though patched operands are indistinguishable
from ordinary immediates once installed.
"""

from __future__ import annotations

import math

from repro import verify
from repro.core.operands import FuncRef
from repro.target.isa import (
    NUM_FREGS,
    NUM_REGS,
    SAFE_TO_CHECKED,
    Instruction,
    Op,
    wrap32,
)
from repro.target.program import Label
from repro.verify.ircheck import F_DEST_OPS, I_DEST_OPS

_BRANCH_A = {Op.JMP, Op.CALL}
_BRANCH_B = {Op.BEQZ, Op.BNEZ}


def _diag(diags, rule, message, where):
    diags.append(verify.Diagnostic("codeaudit", rule, message, where=where))


def check_range(machine, start: int, end: int, where: str = "install") -> list:
    """Audit the linked code-segment range ``[start, end)``."""
    diags: list = []
    segment = machine.code
    horizon = segment._linked
    host_count = len(machine._host_functions)
    if end > len(segment.instructions):
        _diag(diags, "bad-range",
              f"audit range [{start}, {end}) exceeds the segment "
              f"({len(segment.instructions)} instructions)", where)
        end = len(segment.instructions)
    for addr in range(start, end):
        instr = segment.instructions[addr]
        if not isinstance(instr, Instruction) or not isinstance(instr.op, Op):
            _diag(diags, "bad-instr",
                  f"@{addr}: {instr!r} is not a target instruction", where)
            continue
        op = instr.op
        for field in ("a", "b", "c"):
            value = getattr(instr, field)
            if isinstance(value, (Label, FuncRef)):
                _diag(diags, "unresolved-operand",
                      f"@{addr}: {instr!r} operand {field} is the "
                      f"unlinked {value!r}", where)
        if op in _BRANCH_A or op in _BRANCH_B:
            target = instr.a if op in _BRANCH_A else instr.b
            if not isinstance(target, int) or not (0 <= target < horizon):
                _diag(diags, "branch-out-of-segment",
                      f"@{addr}: {instr!r} targets {target!r}, outside the "
                      f"linked segment [0, {horizon})", where)
        if op in I_DEST_OPS:
            if not isinstance(instr.a, int) or not (0 <= instr.a < NUM_REGS):
                _diag(diags, "bad-register",
                      f"@{addr}: {instr!r} destination {instr.a!r}", where)
            elif instr.a == 0:
                _diag(diags, "zero-write",
                      f"@{addr}: {instr!r} writes the hardwired ZERO "
                      f"register", where)
        elif op in F_DEST_OPS:
            if not isinstance(instr.a, int) or not (
                    0 <= instr.a < NUM_FREGS):
                _diag(diags, "bad-register",
                      f"@{addr}: {instr!r} destination {instr.a!r}", where)
        elif op is Op.HOSTCALL:
            if not isinstance(instr.a, int) or not (
                    0 <= instr.a < host_count):
                _diag(diags, "bad-hostcall-index",
                      f"@{addr}: {instr!r} index {instr.a!r} is outside the "
                      f"host-function table of {host_count}", where)
    return diags


def _values_equal(got, expected) -> bool:
    if isinstance(expected, float) or isinstance(got, float):
        if isinstance(got, float) and isinstance(expected, float):
            if math.isnan(got) and math.isnan(expected):
                return True
        return got == expected
    return got == expected


def check_template(machine, template, body, signature, new_entry: int,
                   where: str = "template") -> list:
    """Replay a Tier-2 instantiation of ``body`` (the template's
    checked ``(op, a, b, c)`` rows) and diff it against the emitted
    clone."""
    diags: list = []
    segment = machine.code
    delta = new_entry - template.entry
    n = len(body)
    if new_entry + n > len(segment.instructions):
        _diag(diags, "short-clone",
              f"template clone at {new_entry} should span {n} instructions "
              f"but the segment ends at {len(segment.instructions)}", where)
        return diags
    patch_map: dict = {}
    for rel, field in template.relocs:
        patch_map.setdefault(rel, []).append((field, None))
    for rel, field, org, scl, add, is_float in template.holes:
        patch_map.setdefault(rel, []).append((field, (org, scl, add,
                                                      is_float)))
    values = signature.values
    for rel, (op, a, b, c) in enumerate(body):
        emitted = segment.instructions[new_entry + rel]
        if emitted.op is not op:
            # One substitution is legitimate: clone-time fact
            # revalidation demotes a proven-safe access back to its
            # checked twin when the new hole values break the proof.
            # The checked form is a strict superset of the safe one, so
            # the demotion can only add a bounds test, never change
            # behavior.
            if SAFE_TO_CHECKED.get(op) is not emitted.op:
                _diag(diags, "mispatched-template",
                      f"@{new_entry + rel}: opcode {emitted.op!r} differs "
                      f"from template {op!r}", where)
                continue
        expected = {"a": a, "b": b, "c": c}
        for field, hole in patch_map.get(rel, ()):
            if hole is None:
                expected[field] = expected[field] + delta
            else:
                org, scl, add, is_float = hole
                raw = values[org]
                if is_float:
                    expected[field] = float(raw)
                else:
                    expected[field] = wrap32(int(raw) * scl + add)
        for field in ("a", "b", "c"):
            got = getattr(emitted, field)
            if not _values_equal(got, expected[field]):
                _diag(diags, "mispatched-template",
                      f"@{new_entry + rel}: operand {field} is {got!r}, "
                      f"expected {expected[field]!r} (delta {delta})", where)
    return diags


def run_range(machine, start: int, end: int, where: str = "install") -> None:
    verify.run_checker("codeaudit", check_range, machine, start, end, where)


def run_template(machine, template, body, signature, new_entry: int,
                 where: str = "template") -> None:
    verify.run_checker("codeaudit", check_template, machine, template,
                       body, signature, new_entry, where)
