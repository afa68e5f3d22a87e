"""Tests for the link-time used-opcode analysis and Table 1 workloads."""

import pytest

from repro import TccCompiler
from repro.analysis import collect_used_ops, emitter_size_estimate
from repro.analysis.usedops import FULL_ISA_SIZE, TRANSLATOR_CASE_SIZE
from repro.apps import ALL_APPS
from repro.apps.table1 import TABLE1_ROWS, run_row, table1
from repro.target.isa import Op


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
        prog = tcc.compile(
            "int build(void) { return (int)compile(`(1 + 2), int); }"
        )
        report = collect_used_ops(prog)
        est = emitter_size_estimate(report)
        assert est["full"] == FULL_ISA_SIZE * TRANSLATOR_CASE_SIZE
        assert est["pruned"] == report.used_count * TRANSLATOR_CASE_SIZE
        assert est["reduction_factor"] > 1.0

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

    def test_ternary_pulls_in_branch_ops(self, tcc):
        # A ternary lowers to a branch diamond, exactly like an if: the
        # pruned translator must keep both conditional branches and the
        # jump that rejoins the arms.
        prog = tcc.compile(
            "int build(int n) { int vspec x = param(int, 0);"
            " return (int)compile(`(x < $n ? x + 1 : 0), int); }"
        )
        report = collect_used_ops(prog)
        assert {Op.BEQZ, Op.BNEZ, Op.JMP} <= report.used_ops


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
