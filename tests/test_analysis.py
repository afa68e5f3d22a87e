"""Tests for the link-time used-opcode analysis and Table 1 workloads."""

import pytest

from repro import TccCompiler
from repro.analysis import collect_used_ops, emitter_size_estimate
from repro.analysis.usedops import (
    FULL_ISA_SIZE,
    FUSED_CASE_SIZE,
    TRANSLATOR_CASE_SIZE,
    fusable_kinds,
)
from repro.apps import ALL_APPS
from repro.apps.table1 import TABLE1_ROWS, run_row, table1
from repro.target.isa import Instruction, Op


@pytest.fixture(scope="module")
def tcc():
    return TccCompiler()


class TestUsedOps:
    def test_tiny_program_uses_few_opcodes(self, tcc):
        prog = tcc.compile(
            "int build(void) { return (int)compile(`(1 + 2), int); }"
        )
        report = collect_used_ops(prog)
        assert report.used_count < FULL_ISA_SIZE / 3

    def test_pruning_factor_reported(self, tcc):
        from repro.target.dispatch import FUSION_PAIRS

        prog = tcc.compile(
            "int build(void) { return (int)compile(`(1 + 2), int); }"
        )
        report = collect_used_ops(prog)
        est = emitter_size_estimate(report)
        assert est["full"] == (FULL_ISA_SIZE * TRANSLATOR_CASE_SIZE
                               + len(FUSION_PAIRS) * FUSED_CASE_SIZE)
        assert est["pruned"] == (
            report.used_count * TRANSLATOR_CASE_SIZE
            + len(report.fusion_kinds) * FUSED_CASE_SIZE
        )
        assert est["reduction_factor"] > 1.0

    def test_fusion_pairs_match_dispatch_fusion(self):
        """FUSION_PAIRS, which sizes the pruned translator, names exactly
        the opcode pairs the superblock generator fuses: over every
        opcode pair, with the first result read through each operand
        slot a fusion rule inspects."""
        from repro.target.dispatch import FUSION_PAIRS, _fusion_kind

        r = 5
        mismatches = []
        for op in Op:
            ins = Instruction(op, r, 6, 7)
            for nop in Op:
                shapes = (Instruction(nop, r, 0, 0),    # branch condition
                          Instruction(nop, 8, r, 9),    # base / x operand
                          Instruction(nop, 8, 9, r))    # reg-form y operand
                got = {_fusion_kind(ins, nxt) for nxt in shapes} - {None}
                want = {kind for kind, (first, second) in FUSION_PAIRS.items()
                        if op in first and nop in second}
                if got != want:
                    mismatches.append((op.name, nop.name, got, want))
        assert mismatches == []

    def test_float_ops_detected(self, tcc):
        prog = tcc.compile(
            "int build(void) { double vspec x = param(double, 0);"
            " return (int)compile(`(x * 2.0), double); }"
        )
        report = collect_used_ops(prog)
        assert Op.FMUL in report.used_ops

    def test_division_pulls_in_strength_reduction_ops(self, tcc):
        prog = tcc.compile(
            "int build(int d) { int vspec x = param(int, 0);"
            " return (int)compile(`(x / $d), int); }"
        )
        report = collect_used_ops(prog)
        assert Op.DIVI in report.used_ops
        assert Op.SRAI in report.used_ops  # the pow2 fast path

    def test_apps_reduction_order_of_magnitude(self, tcc):
        # paper: "cuts the size of the ICODE library by up to an order of
        # magnitude for most programs"
        factors = []
        for app in ALL_APPS.values():
            report = collect_used_ops(tcc.compile(app.source))
            factors.append(report.reduction_factor)
        assert max(factors) >= 4.0
        assert all(f > 1.5 for f in factors)

    def test_program_with_no_ticks_has_baseline_only(self, tcc):
        prog = tcc.compile("int f(int x) { return x; }")
        report = collect_used_ops(prog)
        est = emitter_size_estimate(report)
        assert est["reduction_factor"] > 5.0

    def test_fusion_pairs_counted(self, tcc):
        # Regression: the scan historically ignored the block engine's
        # superinstruction fusion, under-counting the pruned translator
        # for every program whose opcode set can fuse.  A comparison in
        # a loop condition pulls in compare + branch ops: cmp_branch
        # must be charged; the baseline ops alone already enable
        # addr_mem (ADDI + LW/SW) and li_op (LI + ADDI).
        prog = tcc.compile(
            "int build(int n) { int vspec x = param(int, 0);"
            " return (int)compile(`(x < $n ? x + 1 : 0), int); }"
        )
        report = collect_used_ops(prog)
        assert "cmp_branch" in report.fusion_kinds
        assert "addr_mem" in report.fusion_kinds
        assert "li_op" in report.fusion_kinds
        est = emitter_size_estimate(report)
        assert est["fusion_kinds"] == list(report.fusion_kinds)
        # each enabled kind adds exactly one fused case to the
        # pruned size
        assert (est["pruned"] - report.used_count * TRANSLATOR_CASE_SIZE
                ) == len(report.fusion_kinds) * FUSED_CASE_SIZE

    def test_fusable_kinds_need_both_halves(self):
        # A kind needs both halves of its pair present: LI alone cannot
        # fuse (li_op wants an ALU consumer), and a compare without a
        # conditional branch cannot form cmp_branch.
        assert fusable_kinds({Op.LI}) == ()
        assert fusable_kinds({Op.LI, Op.ADD}) == ("li_op",)
        assert fusable_kinds({Op.SLT}) == ()
        assert fusable_kinds({Op.SLT, Op.BNEZ}) == ("cmp_branch",)
        # ADDI feeding LW enables addr_mem; LW feeding ADDI (an ADD imm
        # form) enables load_op — but never li_op without LI.
        assert fusable_kinds({Op.ADDI, Op.LW}) == ("addr_mem", "load_op")


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return table1()

    def test_all_rows_present(self, table):
        assert set(table) == set(TABLE1_ROWS)

    def test_vcode_band(self, table):
        # paper: 96.8 - 260.1 cycles per generated instruction
        for row, values in table.items():
            assert 80 < values["vcode"] < 500, (row, values)

    def test_icode_band(self, table):
        # paper: 1019.7 - 1261.9 cycles per generated instruction
        for row, values in table.items():
            assert 800 < values["icode"] < 2500, (row, values)

    def test_icode_order_of_magnitude_slower(self, table):
        # "Predictably, ICODE is approximately an order of magnitude
        # slower than VCODE"
        for row, values in table.items():
            ratio = values["icode"] / values["vcode"]
            assert 3.0 < ratio < 20.0, (row, ratio)

    def test_large_cspec_workload_size(self):
        source = TABLE1_ROWS["one large cspec, free variables"]()
        stats, fn, _ = run_row(source, "vcode")
        # the paper's large cspec is ~1000 instructions
        assert 600 < stats.generated_instructions < 2200

    def test_workloads_compute_consistently(self):
        for name, factory in TABLE1_ROWS.items():
            src = factory()
            _, f_v, _ = run_row(src, "vcode")
            _, f_i, _ = run_row(src, "icode")
            assert f_v(5) == f_i(5), name

    def test_free_variable_closures_are_bigger(self):
        fv = TABLE1_ROWS["one large cspec, free variables"]()
        dl = TABLE1_ROWS["one large cspec, dynamic locals"]()
        from repro.runtime.costmodel import Phase

        stats_fv, _, _ = run_row(fv, "vcode")
        stats_dl, _, _ = run_row(dl, "vcode")
        assert stats_fv.events[(Phase.CLOSURE, "capture")] > \
            stats_dl.events[(Phase.CLOSURE, "capture")]
