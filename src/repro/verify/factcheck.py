"""Layer 5 — independent re-derivation of elision facts.

The analysis pipeline (``repro.analysis``) lets the back end emit memory
accesses in the proven-safe form — the block engine then skips the
modeled bounds test — and lets the code cache discharge template guards
entailed by other guards.  Every such elision exports a *fact*
(:mod:`repro.analysis.facts`).  This layer is the proof checker: it
re-derives each fact from the installed instructions alone, sharing no
state with the passes that produced it beyond the fact tuples
themselves.  Any elided check it cannot re-prove is a
:class:`~repro.errors.VerifyError`.

Fact kinds and their re-derivations:

``("frame", index, offset)``
    a stack-frame access bracketed by *checked* anchors.  The checker
    re-parses the prologue (a ``SUBI SP, SP, F`` followed by a
    straight-line run of SP-relative stores that no branch targets),
    collects the byte extent ``[lo, hi)`` covered by the checked
    anchors, and accepts the fact only if the anchors' span fits inside
    the stack-guard gap, the elided access lies entirely within the
    anchored extent, it is 4-byte aligned, and no instruction after the
    prologue ``SUBI`` redefines SP before the access runs.  Both
    anchors passing means both ends of the span sit in one contiguous
    memory region (heap or stack — the guard gap is wider than the
    span), so every bracketed byte is valid; a stack overflow still
    traps, on the anchor, before any elided access executes.

``("dup", index, anchor)``
    a re-access of an already-checked address.  The checker runs its
    own value numbering over the straight-line window (reset at every
    referenced branch target and after every call/jump/halt) and
    accepts the fact only if the anchor is a *checked* access, lies in
    the same window, agrees on base value-number and literal offset,
    and is at least as wide.  The anchor executes first on every path
    through the window, so a bad address traps identically.

``("const", index, lo, hi)``
    an absolute-address access into the stable heap.  The checker
    requires the zero base register, a literal offset equal to the
    fact's (degenerate) interval, alignment, and the whole access
    window inside ``[NULL_GUARD, memory.stable_limit())`` — addresses a
    ``release`` can never unmap, so the proof cannot go stale.

Pruned template guards are re-checked for entailment arithmetic
(:func:`check_pruned`): a discharged guard must be an exact duplicate
of a kept one or a byte read-out of a kept word guard on the same
aligned cell.

Every safe-form instruction in a checked range must be covered by
exactly one fact; orphan safe ops, duplicate coverage, and malformed
fact tuples are all diagnostics.  :func:`failing_facts` runs the same
rules in collecting mode for the template-clone path, which *demotes*
unprovable accesses back to the checked form instead of erroring (a
clone with different hole values legitimately invalidates some proofs).
"""

from __future__ import annotations

from repro import verify
from repro.analysis.facts import validate_fact
from repro.target.isa import (
    MEM_WIDTH,
    SAFE_MEM_OPS,
    SAFE_TO_CHECKED,
    Op,
    Reg,
    bit_exact_eq,
)
from repro.target.memory import NULL_GUARD

_CHECKED_MEM_OPS = frozenset(SAFE_TO_CHECKED.values())

#: Ops that end a duplicate-elision window (mirrors, independently, the
#: set the emitter-side pass uses — a disagreement here is exactly the
#: kind of bug this layer exists to catch, so the set is restated rather
#: than imported).
_WINDOW_BREAKERS = frozenset((Op.CALL, Op.CALLR, Op.HOSTCALL, Op.JMP,
                              Op.RET, Op.HALT))

#: Widths whose engine fast path requires 4-byte alignment.
_ALIGNED_WIDTHS = (4, 8)


def _diag(diags, rule, message, where):
    diags.append(verify.Diagnostic("factcheck", rule, message, where=where))


def _is_reg(operand, reg) -> bool:
    return (isinstance(operand, int) and not isinstance(operand, bool)
            and int(operand) == int(reg))


def _branch_targets(instructions, entry):
    """Body-relative indices that some branch in the range can reach."""
    targets = set()
    n = len(instructions)
    for instr in instructions:
        op = instr.op
        if op in (Op.JMP, Op.CALL):
            t = instr.a
        elif op in (Op.BEQZ, Op.BNEZ):
            t = instr.b
        else:
            continue
        if isinstance(t, int) and not isinstance(t, bool) \
                and entry <= t < entry + n:
            targets.add(t - entry)
    return targets


# -- frame facts ---------------------------------------------------------------


def _frame_shape(instructions, targets):
    """Re-parse the prologue.  Returns ``(frame, lo, hi, first_sp_def)``:
    the frame size, the byte extent ``[lo, hi)`` covered by checked
    anchor stores in the straight-line prologue prefix, and the index of
    the first post-prologue SP definition (``len(instructions)`` when SP
    is never redefined).  Any of frame/lo/hi may be None when the shape
    does not parse."""
    from repro.verify.ircheck import I_DEST_OPS

    n = len(instructions)
    frame = lo = hi = None
    first = instructions[0] if instructions else None
    if (first is not None and first.op is Op.SUBI
            and _is_reg(first.a, Reg.SP) and _is_reg(first.b, Reg.SP)
            and isinstance(first.c, int) and not isinstance(first.c, bool)):
        frame = int(first.c)
    if frame is not None:
        for i in range(1, n):
            if i in targets:
                break
            instr = instructions[i]
            op = instr.op
            if not (_is_reg(instr.b, Reg.SP) and isinstance(instr.c, int)
                    and not isinstance(instr.c, bool)):
                break
            if op in (Op.SW, Op.FSW):
                off = int(instr.c)
                if off % 4 == 0:    # a passing aligned anchor proves SP%4==0
                    width = MEM_WIDTH[op]
                    lo = off if lo is None else min(lo, off)
                    hi = off + width if hi is None else max(hi, off + width)
            elif op not in (Op.SWS, Op.FSWS):
                break
    first_sp_def = n
    for i in range(1, n):
        instr = instructions[i]
        if instr.op in I_DEST_OPS and _is_reg(instr.a, Reg.SP):
            first_sp_def = i
            break
    return frame, lo, hi, first_sp_def


def _check_frame_fact(fact, instructions, shape, stack_guard):
    """Returns None when the fact re-proves, else a failure reason."""
    _kind, index, offset = fact
    frame, lo, hi, first_sp_def = shape
    instr = instructions[index]
    op = instr.op
    if frame is None:
        return "function does not open with SUBI SP, SP, <frame>"
    if lo is None or hi is None:
        return "no checked anchor store in the prologue prefix"
    if hi - lo > stack_guard:
        return (f"anchored extent [{lo}, {hi}) spans {hi - lo} bytes, "
                f"wider than the {stack_guard}-byte stack guard gap")
    width = MEM_WIDTH.get(op)
    if width not in _ALIGNED_WIDTHS:
        return f"frame access width {width!r} is not word or double"
    if not _is_reg(instr.b, Reg.SP):
        return f"base register {instr.b!r} is not SP"
    if not (isinstance(instr.c, int) and not isinstance(instr.c, bool)
            and int(instr.c) == offset):
        return f"literal offset {instr.c!r} does not match fact ({offset})"
    if offset % 4:
        return f"offset {offset} is not 4-byte aligned"
    if not (lo <= offset and offset + width <= hi):
        return (f"access [{offset}, {offset + width}) escapes the "
                f"anchored extent [{lo}, {hi})")
    if index >= first_sp_def:
        return (f"SP is redefined at +{first_sp_def}, before the access "
                "at +%d runs" % index)
    return None


# -- dup facts -----------------------------------------------------------------


def _dup_scan(instructions, targets):
    """One value-numbering pass; returns ``(base_vn, window_of)`` maps
    keyed by instruction index, covering every memory op with a literal
    offset."""
    from repro.analysis.dataflow import ValueNumbering
    from repro.verify.ircheck import I_DEST_OPS

    vn = ValueNumbering()
    base_vn = {}
    window_of = {}
    window = 0
    for i, instr in enumerate(instructions):
        if i in targets:
            vn.reset()
            window = i
        op = instr.op
        if op in _WINDOW_BREAKERS:
            vn.reset()
            window = i + 1
            continue
        if (op in _CHECKED_MEM_OPS or op in SAFE_MEM_OPS) \
                and isinstance(instr.c, int) and not isinstance(instr.c, bool):
            base_vn[i] = vn.reg(instr.b)
            window_of[i] = window
        if op in I_DEST_OPS:
            vn.define(instr)
    return base_vn, window_of


def _check_dup_fact(fact, instructions, base_vn, window_of):
    _kind, index, anchor = fact
    instr = instructions[index]
    anchor_instr = instructions[anchor]
    if anchor_instr.op not in _CHECKED_MEM_OPS:
        return f"anchor at +{anchor} ({anchor_instr.op.name}) is not checked"
    if index not in base_vn or anchor not in base_vn:
        return "access or anchor has no literal offset"
    if window_of[index] != window_of[anchor] or anchor > index:
        return (f"anchor at +{anchor} does not dominate the access at "
                f"+{index} (window starts at +{window_of[index]})")
    if base_vn[anchor] != base_vn[index]:
        return "base registers are not provably equal"
    if int(anchor_instr.c) != int(instr.c):
        return (f"offsets differ: anchor +{anchor} uses {anchor_instr.c}, "
                f"access uses {instr.c}")
    if MEM_WIDTH[anchor_instr.op] < MEM_WIDTH[instr.op]:
        return (f"anchor width {MEM_WIDTH[anchor_instr.op]} is narrower "
                f"than the access width {MEM_WIDTH[instr.op]}")
    return None


# -- const facts ---------------------------------------------------------------


def _check_const_fact(fact, instructions, memory):
    _kind, index, lo, hi = fact
    instr = instructions[index]
    if lo != hi:
        return f"interval [{lo}, {hi}] is not a single address"
    if not _is_reg(instr.b, Reg.ZERO):
        return f"base register {instr.b!r} is not the zero register"
    if not (isinstance(instr.c, int) and not isinstance(instr.c, bool)
            and int(instr.c) == lo):
        return f"literal address {instr.c!r} does not match fact ({lo})"
    width = MEM_WIDTH[instr.op]
    if width in _ALIGNED_WIDTHS and lo % 4:
        return f"address {lo:#x} is not 4-byte aligned"
    if memory is None:
        return "no memory to certify the stable heap bound against"
    stable = memory.stable_limit()
    if not (NULL_GUARD <= lo and lo + width <= stable):
        return (f"access [{lo:#x}, {lo + width:#x}) is outside the stable "
                f"heap [{NULL_GUARD:#x}, {stable:#x})")
    return None


# -- the checker ---------------------------------------------------------------


def _check_facts(instructions, entry, facts, memory, where, diags, failed):
    """Shared core: append diagnostics to ``diags`` and the positions of
    failing facts (into ``facts``) to ``failed``."""
    from repro.target.memory import STACK_GUARD

    n = len(instructions)
    covered = {}
    valid = []                       # (fact_pos, fact) with sound shapes
    for pos, fact in enumerate(facts):
        problem = None
        if not validate_fact(fact, n):
            problem = f"fact {fact!r} is malformed for a {n}-instruction range"
        else:
            index = fact[1]
            if index in covered:
                problem = (f"instruction +{index} is covered by facts "
                           f"{covered[index]} and {pos}")
            elif instructions[index].op not in SAFE_MEM_OPS:
                problem = (f"fact {fact!r} names +{index} "
                           f"({instructions[index].op!r}), which is not a "
                           "safe-form memory op")
        if problem is not None:
            _diag(diags, "malformed-fact", problem, where)
            failed.add(pos)
            continue
        covered[fact[1]] = pos
        valid.append((pos, fact))
    for index, instr in enumerate(instructions):
        if instr.op in SAFE_MEM_OPS and index not in covered:
            _diag(diags, "unproven-safe-op",
                  f"@{entry + index}: {instr!r} skips its bounds check "
                  "but exports no fact", where)
    if not valid:
        return
    targets = _branch_targets(instructions, entry)
    shape = None
    base_vn = window_of = None
    rules = {"frame": "unproven-frame-access", "dup": "unproven-dup-access",
             "const": "unproven-const-access"}
    for pos, fact in valid:
        kind = fact[0]
        if kind == "frame":
            if shape is None:
                shape = _frame_shape(instructions, targets)
            reason = _check_frame_fact(fact, instructions, shape, STACK_GUARD)
        elif kind == "dup":
            if base_vn is None:
                base_vn, window_of = _dup_scan(instructions, targets)
            reason = _check_dup_fact(fact, instructions, base_vn, window_of)
        else:
            reason = _check_const_fact(fact, instructions, memory)
        if reason is not None:
            _diag(diags, rules[kind],
                  f"@{entry + fact[1]}: cannot re-prove {fact!r}: {reason}",
                  where)
            failed.add(pos)


def check_function(machine, entry: int, end: int, facts,
                   where: str = "factcheck") -> list:
    """Re-derive every fact for the installed range ``[entry, end)``."""
    diags: list = []
    instructions = machine.code.instructions[entry:end]
    _check_facts(instructions, entry, facts, machine.memory, where, diags,
                 set())
    return diags


def failing_facts(instructions, entry: int, facts, memory) -> set:
    """Positions (into ``facts``) of facts the rules cannot re-prove
    against ``instructions`` — the demotion set for a template clone
    whose new hole values changed addresses out from under the proofs."""
    failed: set = set()
    _check_facts(list(instructions), entry, list(facts), memory, "clone",
                 [], failed)
    return failed


# -- pruned-guard entailment ---------------------------------------------------


def _entailed(guard, kept) -> bool:
    addr, width, value = guard
    for k_addr, k_width, k_value in kept:
        if k_addr == addr and k_width == width \
                and bit_exact_eq(k_value, value):
            return True
        if (width in ("b", "bu") and k_width == "w"
                and isinstance(value, int) and isinstance(k_value, int)
                and k_addr <= addr < k_addr + 4 and k_addr % 4 == 0):
            byte = (int(k_value) >> (8 * (addr - k_addr))) & 0xFF
            if width == "b" and byte >= 128:
                byte -= 256
            if byte == value:
                return True
    return False


def check_pruned(kept, pruned, where: str = "cache") -> list:
    """Every discharged guard must still be implied by a kept one."""
    diags: list = []
    for guard in pruned:
        if not _entailed(guard, kept):
            _diag(diags, "unentailed-pruned-guard",
                  f"discharged guard {guard!r} is not implied by any kept "
                  "guard", where)
    return diags


# -- runners -------------------------------------------------------------------


def run_function(machine, entry: int, end: int, facts,
                 where: str = "factcheck") -> None:
    verify.run_checker("factcheck", check_function, machine, entry, end,
                       facts, where)


def run_pruned(kept, pruned, where: str = "cache") -> None:
    verify.run_checker("factcheck", check_pruned, kept, pruned, where)


def run_deferred(machine) -> int:
    """Check every install that deferred linking (the static-compile
    path batches its link); returns the number of functions checked."""
    pending = getattr(machine, "pending_factchecks", None)
    if not pending:
        return 0
    machine.pending_factchecks = []
    for entry, end, facts, where in pending:
        run_function(machine, entry, end, facts, where=where)
    return len(pending)
