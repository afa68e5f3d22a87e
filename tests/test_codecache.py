"""The specialization cache (repro.core.codecache): Tier-1 memoization,
the Tier-2 copy-and-patch template fast path, certification (pinning) of
specialization-steering values, guards, and invalidation."""

import math
import struct
from types import SimpleNamespace

import pytest

from repro import report
from repro.core.codecache import (
    CacheEntry,
    CodeCache,
    PatchImm,
    _guards_hold,
)
from repro.errors import VerifyError
from repro.runtime.costmodel import Phase
from repro.serving.store import TemplateStore
from repro.target.isa import Instruction
from repro.target.memory import Memory
from repro.telemetry.metrics import REGISTRY
from tests.conftest import BACKENDS, compile_c

ADDER = """
int build(int n) {
    int vspec p = param(int, 0);
    return (int)compile(`($n + p), int);
}
"""

FADDER = """
int build(double x) {
    double vspec p = param(double, 0);
    return (int)compile(`($x + p), double);
}
"""

COND = """
int build(int n) {
    int vspec p = param(int, 0);
    return (int)compile(`($n ? p + 1 : p - 1), int);
}
"""

UNROLL = """
int build(int n) {
    int vspec p = param(int, 0);
    return (int)compile(`{
        int k, s;
        s = 0;
        for (k = 0; k < $n; k++) s = s + p;
        return s;
    }, int);
}
"""

DYNLOOP = """
int build(int n) {
    int vspec p = param(int, 0);
    return (int)compile(`{
        int i, s;
        s = 0;
        for (i = 0; i < $n; i = i + 1) s = s + p;
        return s;
    }, int);
}
"""

NEGATED = """
int build(int n) {
    int vspec p = param(int, 0);
    return (int)compile(`(p - -$n), int);
}
"""

SCALED = """
int build(int n) {
    int * vspec q = param(int *, 0);
    return (int)compile(`(q[$n]), int);
}
"""

GUARDED_SUM = """
int w[4] = {1, 2, 3, 4};
void poke(int k, int v) { w[k] = v; }
int build(int n) {
    int vspec p = param(int, 0);
    return (int)compile(`{
        int k, s;
        s = p;
        for (k = 0; k < $n; k++) s = s + $w[k] + $w[k];
        return s;
    }, int);
}
"""

ARRAY_STORE = """
int a[8];
int build(int n) {
    int vspec i = param(int, 0);
    return (int)compile(`{ a[3] = i; return a[3] + $n; }, int);
}
"""


FSCALE = """
int build(double d) {
    double vspec x = param(double, 0);
    return (int)compile(`(x * $d), double);
}
"""


def _stats(proc):
    return report.cache_stats()


@pytest.mark.parametrize("backend", BACKENDS)
class TestTier1Memoization:
    def test_same_key_returns_identical_entry(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        e1 = proc.run("build", 10)
        e2 = proc.run("build", 10)
        assert e1 == e2
        assert proc.function(e2, "i", "i")(5) == 15
        assert report.cache_stats()["hits"] == 1

    def test_warm_hit_charges_zero_backend_cycles(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        proc.run("build", 10)
        proc.run("build", 10)
        stats = proc.last_codegen_stats
        # only the cache probe is charged: no emission, IR, regalloc,
        # translation, or linking work at all
        for phase in (Phase.EMIT, Phase.IR, Phase.FLOWGRAPH, Phase.LIVENESS,
                      Phase.INTERVALS, Phase.REGALLOC, Phase.TRANSLATE,
                      Phase.LINK, Phase.PATCH):
            assert stats.cycles.get(phase, 0) == 0
        assert stats.events[(Phase.CLOSURE, "cache_probe")] == 1
        assert stats.generated_instructions == 0

    def test_different_dollar_values_never_alias(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        e1 = proc.run("build", 10)
        e2 = proc.run("build", 42)
        assert e1 != e2
        assert proc.function(e1, "i", "i")(1) == 11
        assert proc.function(e2, "i", "i")(1) == 43
        assert report.cache_stats()["hits"] == 0

    def test_cache_can_be_disabled(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend, codecache=False)
        e1 = proc.run("build", 10)
        e2 = proc.run("build", 10)
        assert e1 != e2
        stats = report.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestTier2Templates:
    def test_patched_instantiation_executes_identically(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        proc.run("build", 10)                   # cold: captures a template
        entry = proc.run("build", 42)           # patchable binding change
        assert report.cache_stats()["patched"] == 1
        cold = compile_c(ADDER, backend=backend, codecache=False)
        cold_entry = cold.run("build", 42)
        f_patched = proc.function(entry, "i", "i")
        f_cold = cold.function(cold_entry, "i", "i")
        for arg in (0, 1, -7, 1 << 20):
            assert f_patched(arg) == f_cold(arg)

    def test_patched_body_matches_cold_op_sequence(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        e1 = proc.run("build", 10)
        end1 = len(proc.machine.code.instructions)
        e2 = proc.run("build", 42)
        body1 = proc.machine.code.instructions[e1:end1]
        body2 = proc.machine.code.instructions[e2:e2 + len(body1)]
        assert [i.op for i in body1] == [i.op for i in body2]

    def test_negated_dollar_is_patched_through_its_hole(self, backend):
        # `-$n` keeps its provenance through PatchRecorder.negate, so the
        # template's hole maps the origin with scale -1.
        report.reset()
        proc = compile_c(NEGATED, backend=backend)
        proc.run("build", 10)
        entry = proc.run("build", 5)
        assert report.cache_stats()["patched"] == 1
        cold = compile_c(NEGATED, backend=backend, codecache=False)
        cold_entry = cold.run("build", 5)
        f_patched = proc.function(entry, "i", "i")
        f_cold = cold.function(cold_entry, "i", "i")
        assert [f_patched(p) for p in (0, 3)] == [5, 8]
        for arg in (0, 3, -7, 1 << 20):
            assert f_patched(arg) == f_cold(arg)

    def test_scaled_dollar_is_patched_through_its_hole(self, backend):
        # `q[$n]` scales $n by the element size through
        # PatchRecorder.scale, so the hole maps the origin with scale 4.
        report.reset()
        proc = compile_c(SCALED, backend=backend)
        proc.run("build", 1)
        entry = proc.run("build", 3)
        assert report.cache_stats()["patched"] == 1
        cold = compile_c(SCALED, backend=backend, codecache=False)
        cold_entry = cold.run("build", 3)
        f_patched = proc.function(entry, "i", "i")
        f_cold = cold.function(cold_entry, "i", "i")
        for words in ([10, 11, 12, 13], [0, -1, -2, -3, -4],
                      [7, 7, 7, 1 << 20]):
            q = proc.machine.memory.alloc_words(words)
            cold_q = cold.machine.memory.alloc_words(words)
            assert f_patched(q) == f_cold(cold_q) == words[3]

    def test_patched_float_binding(self, backend):
        report.reset()
        proc = compile_c(FADDER, backend=backend)
        e1 = proc.run("build", 1.5)
        e2 = proc.run("build", -2.25)
        assert report.cache_stats()["patched"] == 1
        assert proc.function(e1, "f", "f")(1.0) == 2.5
        assert proc.function(e2, "f", "f")(1.0) == -1.25

    def test_patch_reports_bytes_and_cycles_saved(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        proc.run("build", 10)
        proc.run("build", 42)
        stats = report.cache_stats()
        assert stats["patched"] == 1
        assert stats["patched_bytes"] >= 4
        assert stats["cycles_saved"] > 0

    def test_branch_steering_dollar_is_pinned(self, backend):
        # $n folds the conditional at emission time: its origin is pinned,
        # so a different truthiness recompiles instead of mispatching
        report.reset()
        proc = compile_c(COND, backend=backend)
        e1 = proc.run("build", 1)
        e2 = proc.run("build", 0)
        assert report.cache_stats()["patched"] == 0
        assert proc.function(e1, "i", "i")(10) == 11
        assert proc.function(e2, "i", "i")(10) == 9

    def test_unrolling_bound_dollar_is_pinned(self, backend):
        # $n is a loop-unrolling bound (the loop body is emitted $n times
        # with no branches): patching it would miscount, so its origin is
        # pinned and the second instantiation recompiles cold
        report.reset()
        proc = compile_c(UNROLL, backend=backend)
        e1 = proc.run("build", 3)
        from repro.target.isa import Op

        body = proc.machine.code.instructions[e1:]
        assert not any(i.op in (Op.BEQZ, Op.BNEZ) for i in body)
        e2 = proc.run("build", 5)
        assert report.cache_stats()["patched"] == 0
        assert proc.function(e1, "i", "i")(7) == 21
        assert proc.function(e2, "i", "i")(7) == 35

    def test_dynamic_loop_bound_is_patchable(self, backend):
        # the same loop written so it runs dynamically keeps $n as a plain
        # comparison immediate — patching it is sound and must be exact
        report.reset()
        proc = compile_c(DYNLOOP, backend=backend)
        e1 = proc.run("build", 3)
        e2 = proc.run("build", 5)
        assert report.cache_stats()["patched"] == 1
        assert proc.function(e1, "i", "i")(7) == 21
        assert proc.function(e2, "i", "i")(7) == 35

    def test_strength_reduction_dollar_is_pinned(self, backend):
        # p * $n lowers to a value-dependent shift/add sequence: the
        # multiplier's origin is pinned, so a new value recompiles
        src = """
        int build(int n) {
            int vspec p = param(int, 0);
            return (int)compile(`(p * $n), int);
        }
        """
        report.reset()
        proc = compile_c(src, backend=backend)
        e1 = proc.run("build", 8)   # power of two: a plain shift
        e2 = proc.run("build", 7)   # shift-and-subtract pattern
        assert report.cache_stats()["patched"] == 0
        assert proc.function(e1, "i", "i")(3) == 24
        assert proc.function(e2, "i", "i")(3) == 21

    def test_templates_can_be_disabled_separately(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend, code_templates=False)
        e1 = proc.run("build", 10)
        e2 = proc.run("build", 10)   # Tier 1 still works
        e3 = proc.run("build", 42)   # but no patching
        assert e1 == e2 and e1 != e3
        stats = report.cache_stats()
        assert stats["hits"] == 1 and stats["patched"] == 0


class TestPatchedCloneFacts:
    def test_clone_revalidates_its_elision_facts(self, monkeypatch):
        # Analysis on x Tier-2 patch: the clone re-proves every elision
        # fact against its patched body before emitting it.  Here no
        # patched hole moves an address, so every fact survives and the
        # clone runs exactly like a cold compile, cycle for cycle.
        revalidated = []
        original = CodeCache._revalidate_clone

        def spy(clone, new_entry, facts, memory, cost):
            survivors = original(clone, new_entry, facts, memory, cost)
            revalidated.append((list(facts), survivors))
            return survivors

        monkeypatch.setattr(CodeCache, "_revalidate_clone",
                            staticmethod(spy))
        report.reset()
        proc = compile_c(ARRAY_STORE, backend="icode", analysis="on")
        proc.run("build", 10)
        entry = proc.run("build", 5)
        assert report.cache_stats()["patched"] == 1
        (facts, survivors), = revalidated
        assert facts and survivors == facts
        cold = compile_c(ARRAY_STORE, backend="icode", analysis="on",
                         codecache=False)
        cold_entry = cold.run("build", 5)
        f_patched = proc.function(entry, "i", "i")
        f_cold = cold.function(cold_entry, "i", "i")
        for arg in (0, 3, -7, 1 << 20):
            before = proc.machine.cpu.cycles, cold.machine.cpu.cycles
            assert f_patched(arg) == f_cold(arg) == arg + 5
            assert (proc.machine.cpu.cycles - before[0]
                    == cold.machine.cpu.cycles - before[1])


@pytest.mark.parametrize("backend", BACKENDS)
class TestInvalidation:
    def test_segment_rollback_invalidates(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        proc.machine.code.mark()
        proc.run("build", 10)
        assert proc.codecache.stats()["memo_entries"] == 1
        proc.machine.code.release()  # discards the installed body
        assert proc.codecache.stats()["memo_entries"] == 0
        assert proc.codecache.stats()["templates"] == 0
        entry = proc.run("build", 10)  # recompiles cold, correctly
        assert proc.function(entry, "i", "i")(5) == 15
        assert report.cache_stats()["misses"] == 2

    def test_fault_injection_invalidates(self, backend):
        report.reset()
        proc = compile_c(ADDER, backend=backend)
        e1 = proc.run("build", 10)
        assert proc.codecache.stats()["memo_entries"] == 1
        proc.machine.code.inject_emit_failure(100_000)  # armed, never fires
        assert proc.codecache.stats()["memo_entries"] == 0
        e2 = proc.run("build", 10)
        assert e1 != e2
        assert proc.function(e2, "i", "i")(5) == 15


class TestGuards:
    def test_guards_hold_checks_memory(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.store_word(addr, 7)
        assert _guards_hold([(addr, "w", 7)], mem)
        assert not _guards_hold([(addr, "w", 8)], mem)
        assert not _guards_hold([(0, "w", 7)], mem)  # trapping read = stale

    def test_stale_guard_evicts_memo_entry(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.store_word(addr, 7)
        cache = CodeCache()

        class Sig:
            key = ("shape", "values")
            shape_key = "shape"

        cache._memo[Sig.key] = CacheEntry(99, 100, [(addr, "w", 7)], 0)
        assert cache.lookup(Sig, mem).entry == 99
        mem.store_word(addr, 8)  # the guarded value changed
        assert cache.lookup(Sig, mem) is None
        assert Sig.key not in cache._memo  # stale entry evicted

    def test_entailed_guards_are_pruned_and_kept_ones_still_guard(self):
        # Each unrolled iteration reads $w[k] twice at emission time:
        # analysis prunes the second read's guard, entailed by the first,
        # and the kept guards still catch a store to w.
        report.reset()
        proc = compile_c(GUARDED_SUM, backend="icode", analysis="on")
        entry = proc.run("build", 2)
        assert report.analysis_stats()["guards_discharged"] == 2
        assert proc.function(entry, "i", "i")(100) == 100 + 2 * (1 + 2)
        assert proc.run("build", 2) == entry
        proc.run("poke", 1, 50)
        fresh = proc.run("build", 2)
        assert fresh != entry
        assert report.cache_stats()["misses"] == 2
        assert proc.function(fresh, "i", "i")(100) == 100 + 2 * (1 + 50)

    def test_double_guards_compare_bits(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.store_double(addr, -0.0)
        assert _guards_hold([(addr, "d", -0.0)], mem)
        assert not _guards_hold([(addr, "d", 0.0)], mem)
        quiet, payload = (struct.unpack("<d", struct.pack("<Q", bits))[0]
                          for bits in (0x7FF8000000000000, 0x7FF8000000000001))
        mem.store_double(addr, quiet)
        assert _guards_hold([(addr, "d", quiet)], mem)
        assert not _guards_hold([(addr, "d", payload)], mem)


NEGZERO = """
double w[2] = {0.0, 1.0};
void flip(void) { w[0] = 0.0 * -1.0; }
int build(int n, double b) {
    return (int)compile(`{
        int k; double s;
        s = $b;
        for (k = 0; k < $n; k++) s = s * $w[k];
        return s;
    }, double);
}
"""


class TestNegativeZeroGuard:
    """A ``$w[k]`` fold guards the double it read: a store that flips
    0.0 to -0.0 must invalidate the fold on every reuse path, exactly as
    it changes the result of a fresh compile."""

    @pytest.mark.parametrize("path, second, counter", [
        ("tier1", (1, 1.0), "hits"),
        ("tier2", (1, 2.0), "patched"),
        ("shared", (1, 2.0), "patched"),
    ])
    def test_flip_to_negative_zero_recompiles(self, path, second, counter):
        def build_twice(flip):
            report.reset()
            options = ({"template_store": TemplateStore()}
                       if path == "shared" else {})
            proc = compile_c(NEGZERO, **options)
            proc.run("build", 1, 1.0)
            if flip:
                proc.run("flip")
            entry = proc.run("build", *second)
            return proc.function(entry, "", "f")()

        build_twice(flip=False)
        assert report.cache_stats()[counter] == 1   # the path is reachable
        result = build_twice(flip=True)
        assert report.cache_stats()[counter] == 0
        assert math.copysign(1.0, result) == -1.0   # -0.0, not stale 0.0
        assert result == second[1] * -0.0


class TestSignature:
    def test_patchimm_is_transparent(self):
        v = PatchImm(7, origin=3, scale=2, addend=1)
        assert v == 7 and v + 1 == 8 and int(v) == 7
        assert not isinstance(v + 1, PatchImm)  # arithmetic strips the tag

    def test_signature_distinguishes_float_and_int(self):
        # value keys must not conflate 1 and 1.0 (or -0.0 and 0.0)
        from repro.runtime.closures import ClosureSignature

        a = ClosureSignature(("s",), (1,), {})
        b = ClosureSignature(("s",), (1.0,), {})
        c = ClosureSignature(("s",), (-0.0,), {})
        d = ClosureSignature(("s",), (0.0,), {})
        assert a.key != b.key
        assert c.key != d.key


class TestTransactionalClone:
    """Tier-2 clone installation is audit-then-publish: nothing a fault
    interrupts mid-clone may ever become callable."""

    def test_emit_fault_mid_clone_rolls_back_and_recovers(self):
        # Store-backed, so arming the fault (which conservatively drops
        # the session-local cache) leaves the shared template alive and
        # the clone path is actually taken.
        store = TemplateStore()
        proc = compile_c(ADDER, template_store=store)
        proc.run("build", 10)                       # cold: donates a template
        assert store.stats()["templates"] == 1
        before = len(proc.machine.code.instructions)
        proc.machine.code.inject_emit_failure(3)    # fires mid-clone
        entry = proc.run("build", 42)
        # The half-emitted clone was rolled back and the request
        # recovered with a cold compile of correct code.
        assert proc.function(entry, "i", "i")(1) == 43
        assert len(proc.machine.code.instructions) > before
        assert proc.machine.code._fail_emit_in is None  # fault consumed

    def test_unexpected_crash_mid_clone_rolls_back(self, monkeypatch):
        report.reset()
        proc = compile_c(ADDER)
        proc.run("build", 10)
        seg = proc.machine.code
        before = len(seg.instructions)

        def crash(self, records, signature, machine, cost):
            machine.code.emit(Instruction(*records.rows[0]))  # partial body...
            raise RuntimeError("boom mid-clone")

        monkeypatch.setattr(CodeCache, "instantiate_template", crash)
        with pytest.raises(RuntimeError, match="boom mid-clone"):
            proc.run("build", 42)
        # The partial instruction is gone; nothing was published.
        assert len(seg.instructions) == before
        monkeypatch.undo()
        entry = proc.run("build", 42)
        assert proc.function(entry, "i", "i")(1) == 43

    def test_truncated_clone_is_caught_even_with_verify_off(self, monkeypatch):
        # The template audit is the publish gate: it runs regardless of
        # the verify mode, so a short clone can never go live.
        proc = compile_c(ADDER, verify="off")
        proc.run("build", 10)
        seg = proc.machine.code

        def short(self, records, signature, machine, cost):
            entry = machine.code.here
            for row in records.rows[:len(records.rows) // 2]:
                machine.code.emit(Instruction(*row))
            return entry

        monkeypatch.setattr(CodeCache, "instantiate_template", short)
        before = len(seg.instructions)
        with pytest.raises(VerifyError):
            proc.run("build", 42)
        assert len(seg.instructions) == before      # unpublished

    def test_sign_dropping_clone_is_caught(self, monkeypatch):
        # The publish gate compares bit for bit: a clone that writes a
        # -0.0 hole as 0.0 must never go live.
        proc = compile_c(FSCALE)
        proc.run("build", 1.5)
        entry = proc.run("build", -0.0)
        assert proc._compile_path == "patched"
        assert math.copysign(1.0, proc.function(entry, "f", "f")(1.0)) == -1.0

        proc = compile_c(FSCALE)
        proc.run("build", 1.5)
        seg = proc.machine.code
        original = CodeCache.instantiate_template

        def unsigned(self, records, signature, machine, cost):
            values = [abs(v) if isinstance(v, float) else v
                      for v in signature.values]
            return original(self, records, SimpleNamespace(values=values),
                            machine, cost)

        monkeypatch.setattr(CodeCache, "instantiate_template", unsigned)
        before = len(seg.instructions)
        with pytest.raises(VerifyError, match="mispatched-template"):
            proc.run("build", -0.0)
        assert len(seg.instructions) == before      # unpublished

    def test_poisoned_template_is_evicted_and_recompiled(self):
        report.reset()
        proc = compile_c(ADDER)
        proc.run("build", 10)
        assert proc.codecache.tamper_first()
        poisoned_before = REGISTRY.counter("cache.poisoned_evictions").value
        entry = proc.run("build", 42)
        # The checksum caught the tampered body before any clone: the
        # template was evicted and the request recompiled cold.
        assert proc.function(entry, "i", "i")(1) == 43
        poisoned = REGISTRY.counter("cache.poisoned_evictions").value
        assert poisoned == poisoned_before + 1
        assert proc.codecache.stats()["templates"] == 1  # fresh replacement

    def test_poisoned_shared_template_is_evicted(self):
        store = TemplateStore()
        proc = compile_c(ADDER, template_store=store)
        proc.run("build", 10)
        assert store.tamper_first()
        poisoned_before = REGISTRY.counter("cache.poisoned_evictions").value
        entry = proc.run("build", 42)
        assert proc.function(entry, "i", "i")(1) == 43
        poisoned = REGISTRY.counter("cache.poisoned_evictions").value
        assert poisoned == poisoned_before + 1
