"""Two-tier dynamic-code reuse for ``compile()`` (specialization cache).

tcc pays the full closure-walk + lowering + register-allocation price on
every ``compile()`` even when the same cspec is re-instantiated with the
same — or nearly the same — ``$`` bindings.  This module recovers that cost
in two tiers, in the spirit of Copy-and-Patch (Xu & Kjolstad 2021) and
TPDE:

Tier 1 (memoization)
    Instantiations are content-addressed by a :class:`ClosureSignature`
    (see ``runtime/closures.py``): the CGF identity, the backend kind and
    every codegen option, the captured ``$`` values, the free-variable
    addresses, and the vspec parameter layout.  A hit returns the
    previously installed entry address without touching the back end at
    all; the only cost is one ``(CLOSURE, "cache_probe")`` charge.

Tier 2 (template fast path)
    During a cold miss a :class:`PatchRecorder` rides along with the emit
    context.  Run-time-constant values are tagged at bind time with their
    *origin* (their slot in the signature's value tuple) via the
    :class:`PatchImm` / :class:`PatchFloat` carriers — transparent ``int``
    / ``float`` subclasses that survive being stored as instruction
    operands.  Every place where the partial evaluator lets such a value
    steer a specialization decision (a folded branch, an unrolling bound,
    a strength-reduction choice, an emission-time memory read, ...) *pins*
    the origin.  After install, the recorder scans the installed body: a
    tagged operand becomes a *patch hole* ``value = wrap32(origin * scale
    + addend)``; a :class:`Label` operand becomes a relocation.  The
    resulting :class:`CodeTemplate` can then be cloned for a later
    instantiation whose bindings differ only in unpinned hole origins:
    the body is copied instruction-by-instruction through the ordinary
    ``CodeSegment.emit`` path (so capacity checks and fault injection
    still apply), holes are re-patched and label operands relocated —
    lowering and regalloc are skipped entirely.

Soundness rests on the certification rule: an origin is patchable only if
it produced at least one hole and was never pinned.  Any origin that fails
that test must match the template's recorded value exactly.  Emission-time
memory reads (``$arr[k]`` folds) additionally record *guards* — (address,
width, value) triples re-checked before either tier reuses an entry.

Tier-2 templates always live in a :class:`~repro.serving.store
.TemplateStore`: a private one per cache unless a shared one is passed
in.  Memo entries, and the templates of a private store, are invalidated
when the code segment rolls back past them, when an emit fault is
injected, or when the segment is reset (see
``CodeSegment.add_invalidation_listener``).
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict

from repro.runtime.closures import ClosureSignature, signature_of
from repro.runtime.costmodel import Phase
from repro.target.isa import Instruction, wrap32
from repro.target.program import Label
from repro.telemetry.metrics import REGISTRY

#: Memo entries + templates dropped by segment rollback/fault events.
_INVALIDATED = REGISTRY.counter("cache.invalidated")

__all__ = [
    "PatchImm",
    "PatchFloat",
    "imm_int",
    "imm_float",
    "origin_of",
    "PatchRecorder",
    "CodeTemplate",
    "CacheEntry",
    "CodeCache",
    "signature_of",
    "ClosureSignature",
]

#: Tier-1 memo capacity (entries, FIFO eviction).
MEMO_CAPACITY = 512
#: Modeled bytes patched per hole (one 32-bit immediate field).
BYTES_PER_HOLE = 4


class PatchImm(int):
    """An ``int`` carrying patch-hole provenance.

    Behaves exactly like its plain value everywhere (arithmetic, equality,
    hashing, struct packing); the extra attributes record that the value
    is the affine image ``wrap32(origin_value * scale + addend)`` of the
    signature value at index ``origin``.  Any Python arithmetic on it
    returns a plain ``int`` — transform sites that want to keep the tag
    must go through the recorder's preserve helpers.
    """

    # (no __slots__: variable-length base types don't allow them)

    def __new__(cls, value, origin, scale=1, addend=0):
        self = super().__new__(cls, value)
        self.origin = origin
        self.scale = scale
        self.addend = addend
        return self


class PatchFloat(float):
    """A ``float`` carrying patch-hole provenance (identity mapping only:
    any arithmetic drops the tag, and the folding sites then pin the
    origin)."""

    __slots__ = ("origin",)

    def __new__(cls, value, origin):
        self = super().__new__(cls, value)
        self.origin = origin
        return self


def imm_int(value):
    """``int()`` that keeps a :class:`PatchImm` tag intact."""
    if isinstance(value, int):
        return value
    return int(value)


def imm_float(value):
    """``float()`` that keeps a :class:`PatchFloat` tag intact."""
    if isinstance(value, float):
        return value
    return float(value)


def origin_of(value):
    """The origin index of a tagged value, or None for plain values."""
    if isinstance(value, (PatchImm, PatchFloat)):
        return value.origin
    return None


class PatchRecorder:
    """Rides along with one cold instantiation, tracking provenance.

    The driver creates one per cacheable miss and threads it through the
    emit context and the back end.  The lowering layer calls
    :meth:`touch` / :meth:`pin` / the preserve helpers as it folds
    run-time constants; ``install_function`` calls :meth:`scan_installed`
    (pre-link, while Label operands are still live objects) and
    :meth:`snapshot` (post-link) to capture the template.
    """

    def __init__(self, signature: ClosureSignature):
        self.signature = signature
        self.pinned = set()          # origin indices whose value steered codegen
        self.guards = []             # (addr, width_code, value) emission-time reads
        self.pruned_guards = []      # guards discharged as entailed by the kept set
        self.facts = []              # entry-relative elision facts (analysis on)
        self.analysis = False        # set by install_function when analysis ran
        self.disabled = False
        self.disabled_reason = None
        # template capture (filled by scan_installed/snapshot)
        self.entry = None
        self.n_instructions = 0
        self.holes = []              # (rel_idx, field, origin, scale, addend, is_float)
        self.relocs = []             # (rel_idx, field) — Label operands, shift by delta
        self.instructions = None     # post-link plain-valued copy of the body
        self._callee_sites = []      # (rel_idx, field, name) — FuncRef operands
        self.callee_bindings = ()    # (name, resolved address) post-link

    # -- provenance bookkeeping ------------------------------------------

    def tag(self, name_key, value):
        """Wrap a signature value in its provenance carrier at bind time."""
        origin = self.signature.origin_map.get(name_key)
        if origin is None:
            return value
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return PatchImm(value, origin)
        if isinstance(value, float):
            return PatchFloat(value, origin)
        return value

    def pin(self, origin) -> None:
        if origin is not None:
            self.pinned.add(origin)

    def pin_value(self, value) -> None:
        self.pin(origin_of(value))

    def note_guard(self, addr, width_code, value) -> None:
        self.guards.append((int(addr), width_code, value))

    def disable(self, reason: str) -> None:
        """Give up on caching this instantiation entirely (e.g. it
        allocated per-instantiation data memory that reuse would alias)."""
        self.disabled = True
        self.disabled_reason = reason

    # -- affine-preserving folds -----------------------------------------

    def fold_binary(self, op, lhs, rhs, result):
        """Re-tag ``result`` (the plain fold of ``lhs op rhs``) when the
        fold is affine in exactly one tagged integer input; pin every
        tagged input whose provenance the result does not carry."""
        tagged = result
        l_org, r_org = origin_of(lhs), origin_of(rhs)
        if isinstance(result, int) and not isinstance(result, bool):
            if (isinstance(lhs, PatchImm) and r_org is None
                    and isinstance(rhs, int) and not isinstance(rhs, float)):
                if op == "+":
                    tagged = PatchImm(result, lhs.origin, lhs.scale,
                                      lhs.addend + int(rhs))
                elif op == "-":
                    tagged = PatchImm(result, lhs.origin, lhs.scale,
                                      lhs.addend - int(rhs))
                elif op == "*":
                    tagged = PatchImm(result, lhs.origin,
                                      lhs.scale * int(rhs),
                                      lhs.addend * int(rhs))
            elif (isinstance(rhs, PatchImm) and l_org is None
                    and isinstance(lhs, int) and not isinstance(lhs, float)):
                if op == "+":
                    tagged = PatchImm(result, rhs.origin, rhs.scale,
                                      rhs.addend + int(lhs))
                elif op == "-":
                    tagged = PatchImm(result, rhs.origin, -rhs.scale,
                                      int(lhs) - rhs.addend)
                elif op == "*":
                    tagged = PatchImm(result, rhs.origin,
                                      rhs.scale * int(lhs),
                                      rhs.addend * int(lhs))
        res_org = origin_of(tagged)
        for org in (l_org, r_org):
            if org is not None and org != res_org:
                self.pin(org)
        return tagged

    def shift(self, value, delta):
        """value + delta, tag-preserving (delta a plain int)."""
        if isinstance(value, PatchImm):
            return PatchImm(wrap32(int(value) + delta), value.origin,
                            value.scale, value.addend + delta)
        return wrap32(int(value) + delta)

    def scale(self, value, k):
        """value * k, tag-preserving (k a plain int)."""
        if isinstance(value, PatchImm):
            return PatchImm(wrap32(int(value) * k), value.origin,
                            value.scale * k, value.addend * k)
        return wrap32(int(value) * k)

    def negate(self, value):
        if isinstance(value, PatchImm):
            return PatchImm(wrap32(-int(value)), value.origin,
                            -value.scale, -value.addend)
        return wrap32(-int(value))

    # -- template capture -------------------------------------------------

    def scan_installed(self, segment, entry) -> None:
        """Pre-link pass over the installed range: record Label operand
        positions (relocations), tagged-operand positions (holes), and
        FuncRef operands (callee symbols whose resolved addresses the
        persistent cache must re-validate on load)."""
        from repro.core.operands import FuncRef

        self.entry = entry
        body = segment.instructions[entry:]
        self.n_instructions = len(body)
        for rel, instr in enumerate(body):
            for field in ("a", "b", "c"):
                operand = getattr(instr, field)
                if isinstance(operand, Label):
                    self.relocs.append((rel, field))
                elif isinstance(operand, FuncRef):
                    self._callee_sites.append((rel, field, operand.name))
                elif isinstance(operand, PatchImm):
                    self.holes.append((rel, field, operand.origin,
                                       operand.scale, operand.addend, False))
                elif isinstance(operand, PatchFloat):
                    self.holes.append((rel, field, operand.origin, 1, 0, True))

    def snapshot(self, segment) -> None:
        """Post-link copy of the installed body with tags stripped to
        plain operand values (Labels are resolved to ints by now)."""
        if self.entry is None:
            return
        copied = []
        for instr in segment.instructions[self.entry:]:
            ops = []
            for field in ("a", "b", "c"):
                v = getattr(instr, field)
                if isinstance(v, PatchImm):
                    v = int.__int__(v)
                elif isinstance(v, PatchFloat):
                    v = float.__float__(v)
                ops.append(v)
            copied.append(Instruction(instr.op, *ops))
        self.instructions = copied
        # FuncRef sites are plain addresses now; pair each callee's name
        # with what the linker resolved it to (deduplicated, ordered).
        bindings = {}
        for rel, field, name in self._callee_sites:
            if rel < len(copied):
                bindings.setdefault(name, getattr(copied[rel], field))
        self.callee_bindings = tuple(sorted(bindings.items()))

    def patchable_origins(self):
        """Origins certified for Tier-2 patching: produced at least one
        hole and never steered a specialization decision."""
        holed = {h[2] for h in self.holes}
        return frozenset(holed - self.pinned)


class CacheEntry:
    """One Tier-1 memo entry: an installed function address."""

    __slots__ = ("entry", "end", "guards", "cold_cycles")

    def __init__(self, entry, end, guards, cold_cycles):
        self.entry = entry
        self.end = end              # segment length just after install
        self.guards = guards
        self.cold_cycles = cold_cycles


def _body_rows(instructions) -> tuple:
    """An instruction body as immutable ``(op, a, b, c)`` rows.

    A template's checksum is the hash of these rows.  It is captured
    when the template is stored and re-verified before every clone, so
    tampering with the shared template store (cache poisoning) is
    detected *before* the corrupt body is copied into a session's code
    segment — non-hole operands are indistinguishable from ordinary
    immediates once installed, so the install-time audit alone cannot
    catch them.
    """
    return tuple((i.op, i.a, i.b, i.c) for i in instructions)


class CodeTemplate:
    """One Tier-2 template: a relocatable, patchable installed body.

    Templates reference no session state — the body is a post-link copy,
    holes/relocs are positional records, and ``entry`` is only the base
    for relocation deltas — so one template can be cloned into *any*
    machine running the same program (the shared
    :class:`~repro.serving.store.TemplateStore` relies on this).
    """

    __slots__ = ("values", "patchable", "holes", "relocs", "instructions",
                 "entry", "end", "guards", "pruned_guards", "facts",
                 "cold_cycles", "checksum", "callees")

    def __init__(self, recorder: PatchRecorder, end, cold_cycles):
        self.values = recorder.signature.values
        self.patchable = recorder.patchable_origins()
        self.holes = recorder.holes
        self.relocs = recorder.relocs
        self.instructions = recorder.instructions
        self.entry = recorder.entry
        self.end = end
        self.guards = recorder.guards
        self.pruned_guards = list(recorder.pruned_guards)
        self.facts = list(recorder.facts)
        self.cold_cycles = cold_cycles
        self.callees = recorder.callee_bindings
        self.checksum = hash(_body_rows(self.instructions))

    @classmethod
    def restore(cls, *, values, patchable, holes, relocs, instructions,
                entry, guards, cold_cycles, callees, facts=(),
                pruned_guards=()):
        """Rebuild a template deserialized from the persistent cache.

        ``end`` is 0 — the body does not live in this process's segment,
        so a rollback must never be able to drop it (and 0 never exceeds
        a truncation length).  The in-memory checksum is *recomputed*
        here: on-disk integrity is the format layer's sha256 digest, and
        Python's ``hash()`` is salted per process, so the stored value
        would be meaningless anyway.
        """
        self = cls.__new__(cls)
        self.values = tuple(values)
        self.patchable = frozenset(patchable)
        self.holes = list(holes)
        self.relocs = list(relocs)
        self.instructions = list(instructions)
        self.entry = entry
        self.end = 0
        self.guards = list(guards)
        self.pruned_guards = list(pruned_guards)
        self.facts = [tuple(fact) for fact in facts]
        self.cold_cycles = cold_cycles
        self.callees = tuple(callees)
        self.checksum = hash(_body_rows(self.instructions))
        return self

    def checked_body(self):
        """The body as ``(op, a, b, c)`` rows, read once, when they
        still hash to the stored checksum; None when they do not (the
        body was tampered with).  Clone and audit both read these rows,
        never the live ``instructions``, so a tamper that lands after
        this check reaches neither."""
        body = _body_rows(self.instructions)
        return body if hash(body) == self.checksum else None

    def links_into(self, segment) -> bool:
        """True when every callee symbol this body calls resolves to the
        same address in ``segment`` — the link-compatibility gate for
        templates loaded from disk (or surviving a symbol rollback)."""
        if not self.callees:
            return True
        return segment.symbols_match(self.callees)

    def matches(self, signature: ClosureSignature) -> bool:
        """Every origin must carry the template's exact value unless it is
        a certified patch hole."""
        values = signature.values
        if len(values) != len(self.values):
            return False
        for idx, (new, old) in enumerate(zip(values, self.values)):
            if idx in self.patchable:
                if isinstance(new, float) != isinstance(old, float):
                    return False
                continue
            if not _value_eq(new, old):
                return False
        return True


def _value_eq(a, b) -> bool:
    """Bit-exact equality: ``-0.0`` vs ``0.0`` and distinct NaNs never
    alias, and a float never equals an int."""
    if isinstance(a, float) != isinstance(b, float):
        return False
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


def _guards_hold(guards, memory) -> bool:
    from repro.errors import MachineError
    for addr, width, expected in guards:
        try:
            if width == "d":
                actual = memory.load_double(addr)
            elif width == "b":
                actual = memory.load_byte(addr)
            elif width == "bu":
                actual = memory.load_byte_unsigned(addr)
            else:
                actual = memory.load_word(addr)
        except MachineError:
            return False
        if not _value_eq(actual, expected):
            return False
    return True


class CodeCache:
    """Per-process Tier-1 memo entries in front of one Tier-2
    :class:`~repro.serving.store.TemplateStore`.

    Tier-1 entries are absolute addresses in *this* machine's code
    segment, so they stay private.  Tier 2 always lives in a store:
    templates are position-independent copies, so a serving
    :class:`~repro.serving.engine.Engine` passes its shared store in and
    many sessions clone from it.  When no store is passed in, the cache
    builds a private single-stripe one.  The store owns the disk tier
    (:class:`~repro.persist.diskcache.DiskCodeCache`), if any.

    Ownership decides invalidation: this segment's rollback and fault
    events drop the templates of a private store, but never touch a
    shared one.  The memo is guarded by a re-entrant lock; the
    per-session fast paths are single-threaded, but segment invalidation
    events may arrive while another thread inspects :meth:`stats`.
    """

    def __init__(self, enabled=True, templates_enabled=True,
                 memo_capacity=MEMO_CAPACITY, template_store=None):
        from repro.serving.store import TemplateStore

        self.enabled = enabled
        self.templates_enabled = templates_enabled
        self.memo_capacity = memo_capacity
        self._owns_store = template_store is None
        self.template_store = (TemplateStore(stripes=1) if self._owns_store
                               else template_store)
        self._memo = OrderedDict()   # (shape_key, values_key) -> CacheEntry
        #: Surviving facts of the most recent template clone (the driver
        #: hands them to the factcheck layer after the clone links).
        self.last_clone_facts: list = []
        self._lock = threading.RLock()

    # -- lookups ----------------------------------------------------------

    def lookup(self, signature, memory):
        """Tier-1 probe: exact-key hit with guards still holding."""
        with self._lock:
            entry = self._memo.get(signature.key)
            if entry is None:
                return None
            if not _guards_hold(entry.guards, memory):
                del self._memo[signature.key]
                return None
            return entry

    def match_template(self, signature, memory, segment=None):
        """Tier-2 probe: ``(template, body)`` or None.

        The store answers with a same-shape template whose non-hole
        values all match and whose guards still hold (see
        :meth:`TemplateStore.match`, which falls back to the disk tier).
        Its body is then read once and checked against the integrity
        checksum; ``body`` is that checked copy, the only one the clone
        and its audit may read.  A template failing the checksum is
        evicted (cache poisoning), counted, and the probe misses, so the
        request compiles cold."""
        if not self.templates_enabled:
            return None
        template = self.template_store.match(signature, memory, segment)
        if template is None:
            return None
        body = template.checked_body()
        if body is None:
            self.template_store.evict_poisoned(signature.shape_key, template)
            return None
        return template, body

    # -- stores -----------------------------------------------------------

    def store(self, signature, recorder, entry, end, cold_cycles) -> None:
        """Record a completed cold instantiation in both tiers.

        Hole-less bodies (every origin pinned, or no ``$`` leaves at
        all) are normally not worth a template — the Tier-1 memo already
        covers exact replays — but when the store has a disk tier they
        are captured anyway: a *fresh* process has no memo, and an exact
        replay served by clone+patch is still vastly cheaper than a cold
        compile.
        """
        if not self.enabled or recorder is None or recorder.disabled:
            return
        if recorder.analysis and recorder.guards:
            # Guard pruning: guards entailed by earlier ones (duplicate
            # reads, byte read-outs of an already-guarded word) are
            # discharged so match-time evaluation only pays for the kept
            # set.  The factcheck layer independently re-checks the
            # entailment before anything is admitted to the cache.
            from repro import report
            from repro.analysis.facts import prune_guards
            from repro.verify import factcheck

            kept, pruned = prune_guards(recorder.guards)
            if pruned:
                factcheck.run_pruned(kept, pruned, where="store")
                recorder.guards = kept
                recorder.pruned_guards = list(recorder.pruned_guards) + pruned
                report.record_analysis("guards_discharged", len(pruned))
        with self._lock:
            self._memo_put(signature.key,
                           CacheEntry(entry, end, list(recorder.guards),
                                      cold_cycles))
        if not (self.templates_enabled
                and recorder.instructions is not None):
            return
        persisting = self.template_store.disk is not None
        if (recorder.patchable_origins()
                or (persisting and signature.persistable)):
            self.template_store.add(signature.shape_key,
                                    CodeTemplate(recorder, end, cold_cycles),
                                    signature)

    def store_patched(self, signature, template, entry, end) -> None:
        """A Tier-2 clone is itself a valid Tier-1 entry for its key."""
        if not self.enabled:
            return
        with self._lock:
            self._memo_put(signature.key,
                           CacheEntry(entry, end, list(template.guards),
                                      template.cold_cycles))

    def _memo_put(self, key, entry) -> None:
        self._memo[key] = entry
        while len(self._memo) > self.memo_capacity:
            self._memo.popitem(last=False)

    # -- Tier-2 instantiation ---------------------------------------------

    def instantiate_template(self, template, body, signature, machine,
                             cost):
        """Clone a template's checked ``body`` (see :meth:`match_template`)
        at the current segment cursor, patching holes and relocating
        label operands.  Emits through ``segment.emit`` so
        capacity checks and fault injection behave exactly as they would
        for a cold compile; the caller wraps this in mark()/release().

        Elision facts ride along: the fully patched body is re-proven by
        the factcheck rules *before* emission, and any safe-form access
        whose proof no longer holds under the new hole values (a patched
        offset moved an address out of the certified region, say) is
        demoted back to its checked opcode — strictly safer, never
        wrong.  The surviving facts are left in ``last_clone_facts`` for
        the caller's post-link verification pass."""
        segment = machine.code
        new_entry = segment.here
        delta = new_entry - template.entry
        patch_map = {}
        for rel, field in template.relocs:
            patch_map.setdefault(rel, []).append((field, None))
        for rel, field, org, scl, add, is_float in template.holes:
            patch_map.setdefault(rel, []).append((field,
                                                  (org, scl, add, is_float)))
        values = signature.values
        clone = []
        for rel, (op, a, b, c) in enumerate(body):
            ops = {"a": a, "b": b, "c": c}
            for field, hole in patch_map.get(rel, ()):
                if hole is None:
                    ops[field] = ops[field] + delta
                else:
                    org, scl, add, is_float = hole
                    raw = values[org]
                    if is_float:
                        ops[field] = float(raw)
                    else:
                        ops[field] = wrap32(int(raw) * scl + add)
            clone.append(Instruction(op, ops["a"], ops["b"], ops["c"]))
        facts = [tuple(fact) for fact in template.facts]
        if facts:
            facts = self._revalidate_clone(clone, new_entry, facts,
                                           machine.memory, cost)
        self.last_clone_facts = facts
        for instr in clone:
            segment.emit(instr)
        cost.charge(Phase.PATCH, "copy_instr", len(body))
        if template.holes:
            cost.charge(Phase.PATCH, "hole", len(template.holes))
        if template.guards:
            cost.charge(Phase.PATCH, "guard", len(template.guards))
        cost.note_instruction(len(body))
        return new_entry

    @staticmethod
    def _revalidate_clone(clone, new_entry, facts, memory, cost):
        """Re-prove every fact against the patched clone body; demote
        accesses whose proofs fail (safe -> checked opcode) and return
        the surviving facts."""
        from repro import report
        from repro.target.isa import SAFE_TO_CHECKED
        from repro.verify import factcheck

        cost.charge(Phase.LINK, "fact_check", len(facts))
        failed = factcheck.failing_facts(clone, new_entry, facts, memory)
        if not failed:
            return facts
        survivors = [fact for pos, fact in enumerate(facts)
                     if pos not in failed]
        covered = {fact[1] for fact in survivors}
        demoted = 0
        for idx, instr in enumerate(clone):
            checked = SAFE_TO_CHECKED.get(instr.op)
            if checked is not None and idx not in covered:
                clone[idx] = Instruction(checked, instr.a, instr.b, instr.c)
                demoted += 1
        if demoted:
            report.record_analysis("facts_demoted", demoted)
        return survivors

    # -- invalidation ------------------------------------------------------

    def on_segment_event(self, kind, length=None) -> None:
        """CodeSegment invalidation listener (see program.py).

        Memo entries are machine-specific and always follow this
        segment: a rollback drops those installed past ``length``, and
        any other event (a fault) drops them all.  Templates follow only
        when the store is this cache's private one.  A shared store's
        templates are post-link copies that do not reference the faulting
        segment, so a session-local event must not evict another
        session's warm templates.
        """
        with self._lock:
            if kind == "rollback":
                stale = [k for k, e in self._memo.items() if e.end > length]
                for k in stale:
                    del self._memo[k]
                dropped = len(stale)
            else:  # "fault" or anything else: be conservative, drop everything
                dropped = len(self._memo)
                self._memo.clear()
        if self._owns_store:
            if kind == "rollback":
                dropped += self.template_store.drop_after(length)
            else:
                dropped += self.template_store.clear()
        _INVALIDATED.inc(dropped)

    # -- delegated to the store --------------------------------------------

    def flush(self) -> None:
        """Drain write-behind persistence (no-op without a disk tier)."""
        self.template_store.flush()

    def tamper_first(self) -> bool:
        """Chaos hook: corrupt one stored template in place (simulated
        cache poisoning; the checksum must catch it)."""
        return self.template_store.tamper_first()

    def corrupt_disk_first(self) -> bool:
        """Chaos hook (``corrupt_disk``): tamper with one persisted
        entry; a harmless no-op when no disk tier is configured."""
        return self.template_store.corrupt_disk_first()

    def stats(self) -> dict:
        with self._lock:
            memo_entries = len(self._memo)
        return {"memo_entries": memo_entries, **self.template_store.stats()}
