"""Mutation self-test for the verifier suite (repro.verify).

Each test plants one deliberate defect — a buggy `C program, a malformed
IR function, a sabotaged register allocator, or corrupted installed code —
and asserts that the layer *designed* to catch it does catch it, with the
expected rule.  This is the evidence that every layer actually pulls its
weight: delete a check and its mutation test goes red.
"""

from __future__ import annotations

import pytest

from repro import TccCompiler
from repro.core.codecache import CodeCache
from repro.errors import VerifyError
from repro.icode.ir import IRFunction, IRInstr
from repro.target.isa import ALLOCATABLE_REGS, Instruction, Op
from repro.target.program import Label
from repro.verify import codeaudit, ircheck
from tests.conftest import compile_c


def _lint(source: str):
    """Static-compile under dev mode; returns the raised VerifyError."""
    with pytest.raises(VerifyError) as err:
        TccCompiler(verify="dev").compile(source)
    return err.value


def _rules(err: VerifyError):
    return {d.rule for d in err.diagnostics}


# ---------------------------------------------------------------------------
# Layer 1: tick lint (static compile time)
# ---------------------------------------------------------------------------


class TestTicklintMutations:
    def test_vspec_use_before_bind(self):
        err = _lint("""
        int build(void) {
            int vspec v;
            int cspec c = `(v + 1);
            return (int)compile(c, int);
        }
        """)
        assert err.layer == "ticklint"
        assert "vspec-use-before-bind" in _rules(err)

    def test_cspec_use_before_specify(self):
        err = _lint("""
        int build(void) {
            int cspec c;
            int cspec d = `(c + 1);
            return (int)compile(d, int);
        }
        """)
        assert err.layer == "ticklint"
        assert "cspec-use-before-specify" in _rules(err)

    def test_cspec_composition_cycle(self):
        err = _lint("""
        int build(void) {
            int cspec c;
            c = `(c + 1);
            return (int)compile(c, int);
        }
        """)
        assert err.layer == "ticklint"
        assert "cspec-composition-cycle" in _rules(err)

    def test_duplicate_param_index(self):
        err = _lint("""
        int build(void) {
            int vspec a = param(int, 0);
            int vspec b = param(int, 0);
            return (int)compile(`(a + b), int);
        }
        """)
        assert err.layer == "ticklint"
        assert "param-index-rebound" in _rules(err)

    def test_dollar_with_side_effect(self):
        err = _lint("""
        int build(int n) {
            return (int)compile(`($(n = n + 1) + 2), int);
        }
        """)
        assert err.layer == "ticklint"
        assert "dollar-side-effect" in _rules(err)

    def test_freevar_captured_past_extent(self):
        err = _lint("""
        int cspec leak(void) {
            int x;
            x = 1;
            return `(x + 1);
        }
        int build(void) {
            return (int)compile(leak(), int);
        }
        """)
        assert err.layer == "ticklint"
        assert "freevar-escape" in _rules(err)


# ---------------------------------------------------------------------------
# Layer 2: inter-pass IR verifier
# ---------------------------------------------------------------------------


def _expect_ircheck(ir, rule: str):
    with pytest.raises(VerifyError) as err:
        ircheck.run_ir(ir, "mutation")
    assert err.value.layer == "ircheck"
    assert rule in _rules(err.value)


class TestIrcheckMutations:
    def test_wrong_register_class(self):
        ir = IRFunction()
        a, b, c = (ir.new_vreg("i") for _ in range(3))
        ir.append(IRInstr(Op.LI, b, 1))
        ir.append(IRInstr(Op.LI, c, 2))
        ir.append(IRInstr(Op.FADD, a, b, c))  # float op on int vregs
        ir.append(IRInstr("ret", a, ret_cls="i"))
        _expect_ircheck(ir, "operand-class")

    def test_branch_to_unplaced_label(self):
        ir = IRFunction()
        ir.append(IRInstr(Op.JMP, Label()))  # never placed
        _expect_ircheck(ir, "unplaced-label")

    def test_label_placed_twice(self):
        ir = IRFunction()
        top = Label()
        ir.append(IRInstr("label", top))
        ir.append(IRInstr("label", top))
        ir.append(IRInstr(Op.JMP, top))
        _expect_ircheck(ir, "duplicate-label")

    def test_use_of_undefined_vreg(self):
        ir = IRFunction()
        a, ghost = ir.new_vreg("i"), ir.new_vreg("i")
        ir.append(IRInstr(Op.MOV, a, ghost))  # ghost is never defined
        ir.append(IRInstr("ret", a, ret_cls="i"))
        _expect_ircheck(ir, "undefined-vreg")

    def test_malformed_immediate_operand(self):
        ir = IRFunction()
        a = ir.new_vreg("i")
        ir.append(IRInstr(Op.LI, a, "forty-two"))  # not an int
        ir.append(IRInstr("ret", a, ret_cls="i"))
        _expect_ircheck(ir, "bad-operand")


# ---------------------------------------------------------------------------
# Layer 3: allocation checker (sabotaged allocators, end to end)
# ---------------------------------------------------------------------------

PRESSURE_SRC = """
int build(void) {
    int vspec a = param(int, 0);
    int vspec b = param(int, 1);
    return (int)compile(`((a + b) * (a - b)), int);
}
"""

CALL_SRC = """
int sq(int x) { return x * x; }
int build(void) {
    int vspec p = param(int, 0);
    return (int)compile(`(p + sq(p)), int);
}
"""


def _expect_regcheck(monkeypatch, source, allocator, rule):
    # Start the process (static compile included) with the real allocator;
    # only the dynamic compile runs under the sabotaged one.
    proc = compile_c(source, backend="icode", verify="dev", fallback=False)
    monkeypatch.setattr("repro.icode.backend.linear_scan", allocator)
    with pytest.raises(VerifyError) as err:
        proc.run("build")
    assert err.value.layer == "regcheck"
    assert rule in _rules(err.value)


class TestRegcheckMutations:
    def test_aliased_registers(self, monkeypatch):
        def alias_everything(intervals, regs, slot_alloc, *a, **kw):
            for iv in intervals:
                iv.reg = int(ALLOCATABLE_REGS[0])
            return 0

        _expect_regcheck(monkeypatch, PRESSURE_SRC, alias_everything,
                         "register-aliasing")

    def test_overlapping_spill_slots(self, monkeypatch):
        def one_slot_for_all(intervals, regs, slot_alloc, *a, **kw):
            for iv in intervals:
                iv.reg = None
                iv.location = 0
            return len(intervals)

        _expect_regcheck(monkeypatch, PRESSURE_SRC, one_slot_for_all,
                         "spill-slot-overlap")

    def test_caller_saved_across_call(self, monkeypatch):
        def caller_saved_regs(intervals, regs, slot_alloc, *a, **kw):
            for i, iv in enumerate(intervals):
                iv.reg = 4 + i  # a0, a1, ... clobbered by any callee
            return 0

        _expect_regcheck(monkeypatch, CALL_SRC, caller_saved_regs,
                         "caller-saved-across-call")


# ---------------------------------------------------------------------------
# Layer 4: install-time code audit
# ---------------------------------------------------------------------------


def _installed_process():
    """A working dynamic function, compiled with verification off so the
    mutations below are the first audit the code ever sees."""
    proc = compile_c(
        "int build(void) { return (int)compile(`(6 * 7), int); }",
        backend="icode", verify="off")
    entry = proc.run("build")
    return proc, entry


def _expect_codeaudit(proc, start, rule):
    with pytest.raises(VerifyError) as err:
        codeaudit.run_range(proc.machine, start,
                            len(proc.machine.code.instructions),
                            where="mutation")
    assert err.value.layer == "codeaudit"
    assert rule in _rules(err.value)


class TestCodeauditMutations:
    def test_branch_out_of_segment(self):
        proc, entry = _installed_process()
        proc.machine.code.instructions[entry] = Instruction(Op.JMP, 10**6)
        _expect_codeaudit(proc, entry, "branch-out-of-segment")

    def test_write_to_zero_register(self):
        proc, entry = _installed_process()
        proc.machine.code.instructions[entry] = Instruction(Op.LI, 0, 42)
        _expect_codeaudit(proc, entry, "zero-write")

    def test_hostcall_index_out_of_table(self):
        proc, entry = _installed_process()
        proc.machine.code.instructions[entry] = Instruction(Op.HOSTCALL, 999)
        _expect_codeaudit(proc, entry, "bad-hostcall-index")

    def test_unresolved_operand_survives_linking(self):
        proc, entry = _installed_process()
        proc.machine.code.instructions[entry] = Instruction(
            Op.JMP, Label())
        _expect_codeaudit(proc, entry, "unresolved-operand")

    def test_mispatched_template(self, monkeypatch):
        src = """
        int build(int n) {
            int vspec p = param(int, 0);
            return (int)compile(`(p + $n), int);
        }
        """
        original = CodeCache.instantiate_template

        def skip_one_patch(self, template, body, signature, machine, cost):
            entry = original(self, template, body, signature, machine, cost)
            if template.holes:
                rel, field = template.holes[0][0], template.holes[0][1]
                old = machine.code.instructions[entry + rel]
                vals = {"a": old.a, "b": old.b, "c": old.c}
                vals[field] = (vals[field] or 0) + 1
                machine.code.instructions[entry + rel] = Instruction(
                    old.op, vals["a"], vals["b"], vals["c"])
            return entry

        monkeypatch.setattr(CodeCache, "instantiate_template",
                            skip_one_patch)
        proc = compile_c(src, backend="icode", verify="dev")
        proc.run("build", 10)  # cold: captures a template
        with pytest.raises(VerifyError) as err:
            proc.run("build", 42)  # Tier-2 clone with a sabotaged hole
        assert err.value.layer == "codeaudit"
        assert "mispatched-template" in _rules(err.value)
