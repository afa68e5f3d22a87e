"""Proof-carrying fact records attached to installed code.

Every proven-safe memory instruction (``Op.LWS`` etc.) a backend emits
must be *explained* by exactly one fact — a small, serializable record
stating why the discharged bounds check was redundant.  Facts are
first-class artifacts: they ride on the
:class:`~repro.core.codecache.PatchRecorder` into cache entries and
templates, into the persistent on-disk payload
(:mod:`repro.persist.format`), and the ``factcheck`` verifier layer
(:mod:`repro.verify.factcheck`) re-derives each one independently from
the installed machine code, raising ``VerifyError`` for any it cannot
re-prove.

Fact shapes (all indices are relative to the function's entry, i.e.
into ``segment.instructions[entry:]`` over prologue + body + epilogue):

``("frame", index, offset)``
    The safe access at ``index`` is ``offset(sp)`` with
    ``anchor <= offset <= frame - width``; a *checked* store to the
    frame's lowest used offset precedes it in the prologue, so the
    whole frame is known mapped (and a stack overflow still traps, on
    the anchor).

``("dup", index, anchor)``
    The safe access at ``index`` reuses the address of the checked
    access at ``anchor`` earlier in the same straight-line window
    (value-numbering proof; the anchor takes the trap if the address
    is bad, before the duplicate runs).

``("const", index, lo, hi)``
    The safe access at ``index`` uses an absolute address (base is the
    zero register) whose interval ``[lo, hi]`` was certified against
    the stable heap region — below ``Memory.stable_limit()``, which
    ``release`` can never unmap.

This module also hosts template guard pruning: guards entailed by other
guards are discharged at certification time and kept in a separate
``pruned`` list so factcheck can re-check the entailment.
"""

from __future__ import annotations

from repro.target.isa import bit_exact_eq

FACT_KINDS = ("frame", "dup", "const")

#: Expected tuple length per kind (including the kind tag itself).
_FACT_ARITY = {"frame": 3, "dup": 3, "const": 4}


def validate_fact(fact, length: int) -> bool:
    """``True`` iff ``fact`` is well-shaped for a code range of
    ``length`` instructions.  Shape-checks only — soundness is the
    factcheck layer's job."""
    if not isinstance(fact, tuple) or not fact:
        return False
    kind = fact[0]
    if kind not in FACT_KINDS or len(fact) != _FACT_ARITY[kind]:
        return False
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in fact[1:]):
        return False
    index = fact[1]
    if not 0 <= index < length:
        return False
    if kind == "dup":
        anchor = fact[2]
        if not 0 <= anchor < index:
            return False
    if kind == "frame" and fact[2] < 0:
        return False
    if kind == "const":
        lo, hi = fact[2], fact[3]
        if lo > hi or lo < 0:
            return False
    return True


def shift_facts(facts, delta: int):
    """Shift every instruction index in ``facts`` by ``delta`` (used
    when body-relative facts become entry-relative after the prologue
    is prepended)."""
    shifted = []
    for fact in facts:
        kind = fact[0]
        if kind == "dup":
            shifted.append((kind, fact[1] + delta, fact[2] + delta))
        else:
            shifted.append((kind,) + (fact[1] + delta,) + fact[2:])
    return shifted


# -- template guard pruning --------------------------------------------------------

def entailed_by(guard, kept) -> bool:
    """``True`` iff ``guard`` (an ``(addr, width, value)`` triple as
    recorded by ``PatchRecorder.note_guard``) is implied by the guards
    in ``kept``: either an exact duplicate, or a byte guard covered by
    a word guard over the same aligned cell (little-endian)."""
    addr, width, value = guard
    for k_addr, k_width, k_value in kept:
        if (k_addr, k_width) == (addr, width) and \
                bit_exact_eq(k_value, value):
            return True
        if width in ("b", "bu") and k_width == "w":
            delta = addr - k_addr
            if 0 <= delta < 4:
                byte = (int(k_value) >> (8 * delta)) & 0xFF
                expect = byte - 256 if width == "b" and byte >= 128 else byte
                if expect == value:
                    return True
    return False


def prune_guards(guards):
    """Split ``guards`` into ``(kept, pruned)``: every pruned guard is
    entailed by the kept set, so evaluating only ``kept`` at match time
    is equivalent.  Order of the kept guards is preserved."""
    kept = []
    pruned = []
    for guard in guards:
        if entailed_by(guard, kept):
            pruned.append(guard)
        else:
            kept.append(guard)
    return kept, pruned
