"""Fault paths: traps, guard regions, the watchdog, fault injection, and
the ICODE->VCODE graceful-degradation fallback."""

import pytest

from repro import report
from repro.errors import (
    CodegenError,
    CodeSegmentExhausted,
    CycleBudgetExceeded,
    MachineError,
    OutOfMemory,
    RuntimeTccError,
    SegmentationFault,
    UnalignedAccess,
)
from repro.runtime.arena import Arena
from repro.target.cpu import Machine
from repro.target.isa import Instruction, Op, Reg
from repro.target.memory import Memory
from repro.vcode.machine import VcodeBackend
from tests.conftest import compile_c


class TestTrapTaxonomy:
    def test_all_traps_are_machine_errors(self):
        for trap in (SegmentationFault, UnalignedAccess, CycleBudgetExceeded,
                     CodeSegmentExhausted, OutOfMemory):
            assert issubclass(trap, MachineError)

    def test_guard_page_hit_carries_context(self):
        machine = Machine()
        entry = machine.code.extend([
            Instruction(Op.LW, Reg.RV, Reg.ZERO, 0),
            Instruction(Op.RET),
        ])
        machine.code.link()
        with pytest.raises(SegmentationFault) as exc:
            machine.call(entry)
        trap = exc.value
        assert trap.pc == entry
        assert "lw" in trap.instr
        assert "null guard" in str(trap)

    def test_stack_guard_gap_traps(self):
        machine = Machine()
        gap = machine.memory.heap_limit  # first byte of the guard gap
        entry = machine.code.extend([
            Instruction(Op.SW, Reg.ZERO, Reg.ZERO, gap),
            Instruction(Op.RET),
        ])
        machine.code.link()
        with pytest.raises(SegmentationFault, match="guard"):
            machine.call(entry)

    def test_unaligned_word_access_traps(self):
        machine = Machine()
        addr = machine.memory.alloc(8)
        entry = machine.code.extend([
            Instruction(Op.LW, Reg.RV, Reg.ZERO, addr + 2),
            Instruction(Op.RET),
        ])
        machine.code.link()
        with pytest.raises(UnalignedAccess) as exc:
            machine.call(entry)
        assert exc.value.pc == entry
        assert "lw" in exc.value.instr

    def test_host_side_trap_has_no_pc(self):
        with pytest.raises(SegmentationFault) as exc:
            Memory().load_word(0)
        assert exc.value.pc is None

    def test_trap_names_dynamic_function_from_install_map(self):
        src = """
        int build(void) {
            int * vspec p = param(int *, 0);
            return (int)compile(`(*p), int);
        }
        """
        proc = compile_c(src)
        entry = proc.run("build")
        with pytest.raises(SegmentationFault) as exc:
            proc.machine.call(entry, (0,))  # null pointer argument
        assert exc.value.function is not None
        assert "cgf_build" in exc.value.function


class TestWatchdog:
    def test_infinite_generated_loop_trips_budget(self):
        src = """
        int build(void) {
            return (int)compile(`{
                int i;
                i = 0;
                while (1) i = i + 1;
                return i;
            }, int);
        }
        """
        proc = compile_c(src, fuel=20_000)
        entry = proc.run("build")
        fn = proc.function(entry, "", "i")
        with pytest.raises(CycleBudgetExceeded, match="budget"):
            fn()

    def test_spec_time_interpreter_has_a_budget_too(self):
        src = """
        int spin(void) {
            int i;
            i = 0;
            while (1) i = i + 1;
            return i;
        }
        """
        proc = compile_c(src, compile_static=False, spec_fuel=5_000)
        with pytest.raises(CycleBudgetExceeded, match="spec-time"):
            proc.run("spin")

    def test_budget_is_per_call(self):
        # A finite loop traps under a tight per-call budget, then the same
        # code completes when a later call brings a bigger budget.
        machine = Machine()
        entry = machine.code.extend([
            Instruction(Op.LI, Reg.T0, 500),
            Instruction(Op.SUBI, Reg.T0, Reg.T0, 1),
            Instruction(Op.BNEZ, Reg.T0, 2),
            Instruction(Op.LI, Reg.RV, 7),
            Instruction(Op.RET),
        ])
        machine.code.link()
        with pytest.raises(CycleBudgetExceeded):
            machine.call(entry, fuel=100)
        assert machine.call(entry, fuel=10_000) == 7


class TestFaultInjection:
    def test_injected_alloc_failure_is_one_shot(self):
        m = Memory()
        m.inject_alloc_failure(2)
        m.alloc(8)                      # 1st alloc unaffected
        with pytest.raises(OutOfMemory, match="injected"):
            m.alloc(8)                  # 2nd alloc fails
        m.alloc(8)                      # and the fault is spent

    def test_recovery_via_arena_rollback(self):
        arena = Arena(memory=Memory(), name="scratch")
        before = arena.alloc(16)
        arena.mark()
        arena.memory.inject_alloc_failure(1)
        with pytest.raises(OutOfMemory):
            arena.alloc(16)
        arena.release()
        assert arena.alloc(16) > before  # arena usable after recovery

    def test_injected_emit_failure(self):
        machine = Machine()
        machine.code.inject_emit_failure(2)
        machine.code.emit(Instruction(Op.NOP))
        with pytest.raises(CodeSegmentExhausted, match="injected"):
            machine.code.emit(Instruction(Op.NOP))
        machine.code.emit(Instruction(Op.NOP))  # one-shot

    def test_real_code_segment_exhaustion(self):
        machine = Machine(code_capacity=4)  # HALT sentinel + 3 slots
        with pytest.raises(CodeSegmentExhausted, match="capacity"):
            machine.code.extend([Instruction(Op.NOP)] * 4)


ADDER = """
int build(int n) {
    int vspec p = param(int, 0);
    return (int)compile(`($n + p), int);
}
"""


class TestBackendFallback:
    def test_icode_falls_back_to_vcode_and_still_computes(self):
        report.reset()
        proc = compile_c(ADDER, backend="icode")
        proc.machine.code.inject_emit_failure(2)
        entry = proc.run("build", 10)
        fn = proc.function(entry, "i", "i")
        assert fn(5) == 15              # correct result via the fallback
        assert report.fallback_count() == 1
        assert report.fallback_stats()["events"][0][:2] == ("icode", "vcode")
        assert isinstance(proc.last_backend, VcodeBackend)

    def test_rollback_leaves_segment_linkable(self):
        report.reset()
        proc = compile_c(ADDER, backend="icode")
        proc.machine.code.inject_emit_failure(2)
        first = proc.run("build", 1)
        second = proc.run("build", 2)   # a clean ICODE compile afterwards
        assert proc.function(first, "i", "i")(10) == 11
        assert proc.function(second, "i", "i")(10) == 12
        from repro.target.program import Label

        assert not any(
            isinstance(v, Label)
            for i in proc.machine.code.instructions
            for v in (i.a, i.b, i.c)
        )

    def test_fallback_can_be_disabled(self):
        proc = compile_c(ADDER, backend="icode", fallback=False)
        proc.machine.code.inject_emit_failure(2)
        with pytest.raises(CodeSegmentExhausted):
            proc.run("build", 10)

    def test_vcode_failures_do_not_retry(self):
        report.reset()
        proc = compile_c(ADDER, backend="vcode")
        proc.machine.code.inject_emit_failure(2)
        with pytest.raises(CodeSegmentExhausted):
            proc.run("build", 10)
        assert report.fallback_count() == 0

    def test_failed_compile_does_not_leak_params(self):
        # regression: a compile() that dies must still reset the pending
        # param() list, or the leaked vspecs raise a bogus "dense indices"
        # error on the next, unrelated compile()
        src = """
        int build_bad(void) {
            int vspec a = param(int, 0);
            int vspec b = param(int, 2);
            return (int)compile(`(a + b), int);
        }
        int build_good(int n) {
            int vspec p = param(int, 0);
            return (int)compile(`($n + p), int);
        }
        """
        proc = compile_c(src, backend="icode")
        with pytest.raises(CodegenError, match="dense indices"):
            proc.run("build_bad")
        assert proc.current_params == []
        entry = proc.run("build_good", 10)   # unaffected by the failure
        assert proc.function(entry, "i", "i")(5) == 15

    def test_failed_instantiation_also_resets_params(self):
        proc = compile_c(ADDER, backend="vcode")
        proc.machine.code.inject_emit_failure(2)
        with pytest.raises(CodeSegmentExhausted):
            proc.run("build", 10)
        assert proc.current_params == []
        entry = proc.run("build", 4)
        assert proc.function(entry, "i", "i")(5) == 9


class TestArenaValidation:
    @pytest.mark.parametrize("align", [0, -8, 3, 6, 2.0])
    def test_bad_alignment_rejected(self, align):
        with pytest.raises(RuntimeTccError, match="power of two"):
            Arena(name="bad").alloc(8, align=align)

    def test_good_alignment_accepted(self):
        arena = Arena(memory=Memory(), name="good")
        assert arena.alloc(8, align=16) % 16 == 0
