"""Shared function-installation logic for the dynamic back ends.

Both VCODE and ICODE produce a flat body of target instructions with
relative :class:`~repro.target.program.Label`\\ s.  This module wraps the body
with the standard prologue/epilogue, copies it into the machine's code
segment (tcc copies dynamic code to contiguous memory at the same point),
fixes up labels, and links.

Frame layout (fixed offsets from the post-prologue SP)::

    sp + 0                saved ra (only written when the function calls)
    sp + 8   .. sp+55     save area for callee-saved s0-s11 (4 bytes each)
    sp + 56  .. sp+135    save area for callee-saved f6-f15 (8 bytes each)
    sp + 136 + 8*i        spill slot i (8 bytes, doubles welcome)

The layout is fixed so spill offsets are known while code is still being
emitted, before the set of saved registers is final.
"""

from __future__ import annotations

from repro.runtime.costmodel import LINK_FACT_CHECK, LINK_PATCH
from repro.target.isa import (
    ALLOCATABLE_FREGS, CHECKED_TO_SAFE, Instruction, Op, Reg,
)
from repro.target.memory import STACK_GUARD
from repro.verify import codeaudit

#: Byte offset of the float save area and of the first spill slot.
FREG_SAVE_BASE = 56
SPILL_BASE = 136


def spill_offset(idx: int) -> int:
    """Frame offset of spill slot ``idx``."""
    return SPILL_BASE + 8 * idx


def frame_size(n_spill_slots: int) -> int:
    size = SPILL_BASE + 8 * n_spill_slots
    return (size + 15) & ~15


def frame_elidable(n_spill_slots: int) -> bool:
    """Whether frame accesses of a function with this many spill slots
    may use the proven-safe form.  The soundness argument for ``frame``
    facts brackets every elided offset between two *checked* anchor
    accesses and needs the bracketed span to be narrower than the
    stack guard gap — so oversized frames keep every access checked."""
    return frame_size(n_spill_slots) <= STACK_GUARD


def build_prologue_epilogue(used_sregs, used_fregs, has_call: bool,
                            n_spill_slots: int, analysis: bool = False):
    """Return ``(prologue, epilogue, pro_facts, epi_facts)``.

    Without ``analysis`` the fact lists are empty and every save/restore
    is a checked access.  With ``analysis`` (and an elidable frame) the
    lowest- and highest-offset frame accesses stay checked — they are
    the *anchors* that keep stack-overflow detection exact — and every
    save, restore, and body spill access between them is emitted in the
    proven-safe form.  The fact indices are relative to the returned
    prologue/epilogue lists.
    """
    frame = frame_size(n_spill_slots)
    elide = analysis and frame_elidable(n_spill_slots)
    prologue = [Instruction(Op.SUBI, Reg.SP, Reg.SP, frame)]
    epilogue = []
    saves = []                       # (op, reg, offset) in layout order
    if has_call:
        saves.append((Op.SW, Reg.RA, 0))
    for reg in sorted(used_sregs):
        saves.append((Op.SW, reg, 8 + 4 * (reg - Reg.S0)))
    fbase = ALLOCATABLE_FREGS[0]
    for reg in sorted(used_fregs):
        saves.append((Op.FSW, reg, FREG_SAVE_BASE + 8 * (reg - fbase)))

    # The anchors: the lowest-offset frame access stays a checked store,
    # and so does the highest — a probe store at the very top of the
    # frame (``frame - 4``, so the anchors' byte extent covers even a
    # trailing double spill) when spill slots push the used range up,
    # the last save otherwise.  Everything bracketed between the anchors
    # may go safe: if both anchors pass the modeled bounds check, the
    # bracketed span (<= the stack guard gap, by ``frame_elidable``)
    # cannot cross a region boundary, so every byte between them is
    # valid too.
    checked = set()
    probes = []
    if elide:
        if saves:
            checked.add(0)
            if n_spill_slots:
                probes.append(frame - 4)
            else:
                checked.add(len(saves) - 1)
        elif n_spill_slots:
            probes.append(SPILL_BASE)
            if frame - 4 != SPILL_BASE:
                probes.append(frame - 4)
    pro_facts = []
    epi_facts = []
    for i, (op, reg, off) in enumerate(saves):
        load = Op.LW if op is Op.SW else Op.FLW
        if elide and i not in checked:
            prologue.append(Instruction(CHECKED_TO_SAFE[op], reg,
                                        Reg.SP, off))
            pro_facts.append(("frame", len(prologue) - 1, off))
        else:
            prologue.append(Instruction(op, reg, Reg.SP, off))
        if elide:
            # Restores run after the prologue anchors on every path,
            # so even the anchor offsets restore in the safe form.
            epilogue.append(Instruction(CHECKED_TO_SAFE[load], reg,
                                        Reg.SP, off))
            epi_facts.append(("frame", len(epilogue) - 1, off))
        else:
            epilogue.append(Instruction(load, reg, Reg.SP, off))
    for off in probes:
        prologue.append(Instruction(Op.SW, Reg.ZERO, Reg.SP, off))
    epilogue.append(Instruction(Op.ADDI, Reg.SP, Reg.SP, frame))
    epilogue.append(Instruction(Op.RET))
    return prologue, epilogue, pro_facts, epi_facts


def install_function(machine, cost, body, labels, epilogue_label,
                     used_sregs, used_fregs, has_call, n_spill_slots,
                     name=None, do_link=True, recorder=None, verify="off",
                     facts=None, analysis=False):
    """Install a generated function body into the machine's code segment.

    ``labels`` hold *relative* addresses (indices into ``body``);
    ``epilogue_label`` is the label ret-sequences jump to.  Returns the
    absolute entry address.

    ``recorder``, when given, is a codecache :class:`PatchRecorder`: it
    scans the installed range pre-link (Label operands are still objects,
    so relocation sites can be recorded) and snapshots it post-link as a
    reusable template.

    ``verify`` (``"off"``/``"dev"``/``"paranoid"``): any mode other than
    ``"off"`` audits the freshly linked range before it is published (see
    :mod:`repro.verify.codeaudit`); installs that defer linking
    (``do_link=False``) are audited by the caller after the batched link.

    ``facts`` are the body-relative elision facts the backend captured
    (see :mod:`repro.analysis.facts`); ``analysis`` additionally elides
    the prologue/epilogue save traffic.  All facts are re-based to
    entry-relative indices, attached to ``recorder``, and — for linked
    installs under any verifying mode — independently re-proven by the
    factcheck layer before the function is published.
    """
    prologue, epilogue, pro_facts, epi_facts = build_prologue_epilogue(
        used_sregs, used_fregs, has_call, n_spill_slots, analysis=analysis
    )
    all_facts: list = []
    if analysis:
        from repro import report
        from repro.analysis.facts import shift_facts

        all_facts = list(pro_facts)
        all_facts.extend(shift_facts(list(facts or ()), len(prologue)))
        all_facts.extend(shift_facts(epi_facts,
                                     len(prologue) + len(body)))
        for kind_name in ("frame", "dup", "const"):
            count = sum(1 for fact in all_facts if fact[0] == kind_name)
            if count:
                report.record_analysis(f"elided_{kind_name}", count)
        if all_facts:
            report.record_analysis("facts_exported", len(all_facts))
    segment = machine.code
    base = segment.here
    shift = base + len(prologue)
    for label in labels:
        if label.address is None:
            continue  # unplaced labels are linker errors if referenced
        label.address += shift
    epilogue_label.address = shift + len(body)
    entry = segment.extend(prologue)
    segment.extend(body)
    segment.extend(epilogue)
    end = segment.here
    if name is not None:
        segment.define(name, entry)
    # Install map: lets traps name the function containing a faulting pc.
    segment.note_function(entry, name or f"fn@{entry}")
    if recorder is not None:
        recorder.scan_installed(segment, entry)
        recorder.facts = all_facts
        recorder.analysis = analysis
    if do_link:
        patched = segment.link()
        if cost is not None:
            cost.charge(LINK_PATCH, max(patched, 1))
    if recorder is not None and do_link:
        recorder.snapshot(segment)
    if verify != "off" and do_link:
        codeaudit.run_range(machine, base, segment.here,
                            where=name or f"fn@{entry}")
    if all_facts and verify != "off":
        from repro.verify import factcheck

        if do_link:
            if cost is not None:
                cost.charge(LINK_FACT_CHECK, len(all_facts))
            factcheck.run_function(machine, entry, end, all_facts,
                                   where=name or f"fn@{entry}")
        else:
            # Deferred-link installs are checked by the caller after
            # the batched link resolves branch targets.
            pending = getattr(machine, "pending_factchecks", None)
            if pending is None:
                pending = machine.pending_factchecks = []
            pending.append((entry, end, all_facts,
                            name or f"fn@{entry}"))
    if cost is not None:
        cost.note_instruction(len(prologue) + len(epilogue))
    return entry
