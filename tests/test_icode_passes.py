"""Unit tests for the ICODE pipeline: IR, flow graph, liveness, intervals,
linear scan, graph coloring, peephole, optimizer."""

from repro.core.operands import VReg
from repro.icode.flowgraph import build_flowgraph
from repro.icode.graphcolor import build_interference, graph_color
from repro.icode.intervals import Interval, build_intervals
from repro.icode.ir import IRFunction, IRInstr
from repro.icode.linearscan import linear_scan
from repro.icode.liveness import compute_liveness
from repro.icode import optim
from repro.icode.peephole import peephole
from repro.target.isa import Instruction, Op
from repro.target.program import Label
from repro.verify import regcheck


def assert_disjoint_registers(ivs):
    """Interval-view invariant: no two overlapping intervals share a
    physical register (what the deleted linearscan.check_allocation
    asserted; the production checker is repro.verify.regcheck)."""
    by_reg = {}
    for iv in ivs:
        if iv.reg is None:
            continue
        for other in by_reg.get(iv.reg, ()):
            assert not iv.overlaps(other), f"{iv} and {other} share a register"
        by_reg.setdefault(iv.reg, []).append(iv)


def build_ir(ops):
    ir = IRFunction()
    for instr in ops:
        ir.append(instr)
    return ir


def v(i, cls="i"):
    return VReg(i, cls)


class TestIRDefsUses:
    def test_alu_defs_first_operand(self):
        d, u = IRInstr(Op.ADD, v(0), v(1), v(2)).defs_uses()
        assert d == (v(0),)
        assert set(u) == {v(1), v(2)}

    def test_store_has_no_defs(self):
        d, u = IRInstr(Op.SW, v(0), v(1), 4).defs_uses()
        assert d == ()
        assert set(u) == {v(0), v(1)}

    def test_branch_uses_condition(self):
        d, u = IRInstr(Op.BEQZ, v(3), Label()).defs_uses()
        assert d == () and u == (v(3),)

    def test_call_defs_result_uses_args(self):
        instr = IRInstr("call", v(9), target=v(1),
                        args=[(v(2), "i"), (v(3), "i")], ret_cls="i")
        d, u = instr.defs_uses()
        assert d == (v(9),)
        assert set(u) == {v(1), v(2), v(3)}

    def test_getarg_defines(self):
        d, u = IRInstr("getarg", v(0), 0, ret_cls="i").defs_uses()
        assert d == (v(0),) and u == ()

    def test_label_neither(self):
        d, u = IRInstr("label", Label()).defs_uses()
        assert d == () and u == ()

    def test_immediate_operands_ignored(self):
        d, u = IRInstr(Op.ADDI, v(0), v(1), 5).defs_uses()
        assert set(u) == {v(1)}

    def test_rewrite_drops_the_cached_answer(self):
        instr = IRInstr(Op.ADD, v(0), v(1), v(2))
        assert instr.defs_uses() == ((v(0),), (v(1), v(2)))
        instr.rewrite(op=Op.ADDI, c=5)
        assert instr.defs_uses() == ((v(0),), (v(1),))

    def test_new_vreg_classes(self):
        ir = IRFunction()
        a = ir.new_vreg("i")
        b = ir.new_vreg("f")
        assert a.cls == "i" and b.cls == "f" and a.id != b.id


class TestFlowGraph:
    def test_straight_line_single_block(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 1),
            IRInstr(Op.ADDI, v(1), v(0), 2),
            IRInstr("ret", v(1), ret_cls="i"),
        ])
        fg = build_flowgraph(ir)
        assert len(fg.blocks) == 1
        assert fg.blocks[0].succs == []

    def test_branch_splits_blocks(self):
        lbl = Label()
        ir = build_ir([
            IRInstr(Op.BEQZ, v(0), lbl),      # B0
            IRInstr(Op.LI, v(1), 1),          # B1
            IRInstr("label", lbl),            # B2
            IRInstr("ret", v(1), ret_cls="i"),
        ])
        fg = build_flowgraph(ir)
        assert len(fg.blocks) == 3
        assert sorted(fg.blocks[0].succs) == [1, 2]
        assert fg.blocks[1].succs == [2]

    def test_jmp_has_single_successor(self):
        lbl = Label()
        ir = build_ir([
            IRInstr(Op.JMP, lbl),
            IRInstr(Op.LI, v(0), 9),   # unreachable
            IRInstr("label", lbl),
            IRInstr("ret", None),
        ])
        fg = build_flowgraph(ir)
        assert fg.blocks[0].succs == [2]

    def test_loop_back_edge(self):
        top = Label()
        ir = build_ir([
            IRInstr("label", top),
            IRInstr(Op.SUBI, v(0), v(0), 1),
            IRInstr(Op.BNEZ, v(0), top),
            IRInstr("ret", None),
        ])
        fg = build_flowgraph(ir)
        assert 0 in fg.blocks[0].succs
        assert fg.blocks[0].preds == [0]

    def test_def_use_sets(self):
        ir = build_ir([
            IRInstr(Op.ADD, v(0), v(1), v(2)),
            IRInstr(Op.ADD, v(3), v(0), v(1)),
        ])
        fg = build_flowgraph(ir)
        block = fg.blocks[0]
        assert v(1) in block.use and v(2) in block.use
        assert v(0) in block.defs
        # v0 is defined before its use: not upward-exposed
        assert v(0) not in block.use


class TestLiveness:
    def test_live_across_branch(self):
        lbl = Label()
        ir = build_ir([
            IRInstr(Op.LI, v(0), 5),          # B0
            IRInstr(Op.BEQZ, v(1), lbl),
            IRInstr(Op.LI, v(2), 1),          # B1
            IRInstr("label", lbl),            # B2
            IRInstr("ret", v(0), ret_cls="i"),
        ])
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        assert v(0) in fg.blocks[0].live_out
        assert v(0) in fg.blocks[2].live_in

    def test_dead_value_not_live(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 5),
            IRInstr(Op.LI, v(1), 6),
            IRInstr("ret", v(1), ret_cls="i"),
        ])
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        assert v(0) not in fg.blocks[0].live_in

    def test_loop_keeps_value_live(self):
        top = Label()
        ir = build_ir([
            IRInstr(Op.LI, v(0), 10),
            IRInstr("label", top),
            IRInstr(Op.SUBI, v(0), v(0), 1),
            IRInstr(Op.BNEZ, v(0), top),
            IRInstr("ret", None),
        ])
        fg = build_flowgraph(ir)
        iterations = compute_liveness(fg)
        loop_block = fg.blocks[1]
        assert v(0) in loop_block.live_in
        assert iterations >= 2


class TestIntervals:
    def test_interval_spans_first_to_last(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 1),       # 0
            IRInstr(Op.LI, v(1), 2),       # 1
            IRInstr(Op.ADD, v(2), v(0), v(1)),  # 2
            IRInstr("ret", v(2), ret_cls="i"),  # 3
        ])
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        ivs = {iv.vreg: iv for iv in build_intervals(ir, fg)}
        assert (ivs[v(0)].start, ivs[v(0)].end) == (0, 2)
        assert (ivs[v(2)].start, ivs[v(2)].end) == (2, 3)

    def test_sorted_by_end_point(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 1),
            IRInstr(Op.LI, v(1), 2),
            IRInstr(Op.ADD, v(2), v(0), v(1)),
            IRInstr("ret", v(2), ret_cls="i"),
        ])
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        ivs = build_intervals(ir, fg)
        ends = [iv.end for iv in ivs]
        assert ends == sorted(ends)

    def test_loop_interval_covers_whole_loop(self):
        top = Label()
        ir = build_ir([
            IRInstr(Op.LI, v(0), 3),          # 0
            IRInstr("label", top),            # 1
            IRInstr(Op.LI, v(1), 7),          # 2
            IRInstr(Op.SUBI, v(0), v(0), 1),  # 3
            IRInstr(Op.BNEZ, v(0), top),      # 4
            IRInstr("ret", v(1), ret_cls="i"),  # 5
        ])
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        ivs = {iv.vreg: iv for iv in build_intervals(ir, fg)}
        assert ivs[v(0)].start == 0 and ivs[v(0)].end == 4


def make_intervals(spans):
    ivs = [Interval(v(i), s, e) for i, (s, e) in enumerate(spans)]
    ivs.sort(key=lambda iv: (iv.end, iv.start))
    return ivs


def slots():
    counter = [0]

    def alloc():
        counter[0] += 1
        return counter[0] - 1

    return alloc


class TestLinearScan:
    def test_no_spill_when_registers_suffice(self):
        ivs = make_intervals([(0, 1), (2, 3), (4, 5)])
        spilled = linear_scan(ivs, [100], slots())
        assert spilled == 0
        assert_disjoint_registers(ivs)

    def test_register_reuse_after_expiry(self):
        ivs = make_intervals([(0, 1), (2, 3)])
        linear_scan(ivs, [100], slots())
        assert ivs[0].reg == ivs[1].reg == 100

    def test_spills_longest_interval(self):
        # one long interval overlapping two short ones; R=1 and the long
        # one (earliest start) should be evicted
        ivs = make_intervals([(0, 10), (1, 2), (3, 4)])
        spilled = linear_scan(ivs, [100], slots())
        assert spilled >= 1
        long_iv = next(iv for iv in ivs if iv.end == 10)
        assert long_iv.location is not None
        assert_disjoint_registers(ivs)

    def test_all_overlapping_with_one_register(self):
        ivs = make_intervals([(0, 9), (0, 9), (0, 9)])
        spilled = linear_scan(ivs, [100], slots())
        assert spilled == 2
        assert sum(1 for iv in ivs if iv.reg is not None) == 1
        assert_disjoint_registers(ivs)

    def test_no_overlap_same_register_invariant(self):
        ivs = make_intervals(
            [(0, 5), (2, 8), (6, 9), (1, 3), (4, 7), (0, 2)]
        )
        linear_scan(ivs, [1, 2, 3], slots())
        assert_disjoint_registers(ivs)


class TestRegcheck:
    """The independent allocation checker (repro.verify.regcheck)."""

    def _straightline_ir(self):
        return build_ir([
            IRInstr(Op.LI, v(0), 1),
            IRInstr(Op.LI, v(1), 2),
            IRInstr(Op.ADD, v(2), v(0), v(1)),
            IRInstr("ret", v(2), ret_cls="i"),
        ])

    def _iv(self, vr, start, end, reg=None, slot=None):
        iv = Interval(vr, start, end)
        iv.reg = reg
        iv.location = slot
        return iv

    def test_clean_allocation_passes(self):
        ivs = [self._iv(v(0), 0, 2, reg=14), self._iv(v(1), 1, 2, reg=15),
               self._iv(v(2), 2, 3, reg=14)]
        assert regcheck.check_allocation(self._straightline_ir(), ivs) == []

    def test_detects_register_aliasing(self):
        ivs = [self._iv(v(0), 0, 2, reg=14), self._iv(v(1), 1, 2, reg=14),
               self._iv(v(2), 2, 3, reg=15)]
        diags = regcheck.check_allocation(self._straightline_ir(), ivs)
        assert any(d.rule == "register-aliasing" for d in diags)

    def test_detects_spill_slot_overlap(self):
        # The case the deleted linearscan.check_allocation never covered:
        # two simultaneously live values spilled to the same slot.
        ivs = [self._iv(v(0), 0, 2, slot=0), self._iv(v(1), 1, 2, slot=0),
               self._iv(v(2), 2, 3, reg=14)]
        diags = regcheck.check_allocation(self._straightline_ir(), ivs)
        assert any(d.rule == "spill-slot-overlap" for d in diags)

    def test_detects_caller_saved_across_call(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 1),
            IRInstr("hostcall", None, target=0, args=[], ret_cls=None),
            IRInstr("ret", v(0), ret_cls="i"),
        ])
        ivs = [self._iv(v(0), 0, 2, reg=4)]  # a0: clobbered by the callee
        diags = regcheck.check_allocation(ir, ivs)
        assert any(d.rule == "caller-saved-across-call" for d in diags)

    def test_detects_unallocated_value(self):
        ivs = [self._iv(v(0), 0, 2, reg=14), self._iv(v(1), 1, 2),
               self._iv(v(2), 2, 3, reg=15)]
        diags = regcheck.check_allocation(self._straightline_ir(), ivs)
        assert any(d.rule == "unallocated" for d in diags)

    def test_ignores_conflicts_in_unreachable_blocks(self):
        # A folded branch (`1 ? 0 : b`) leaves its dead arm in the IR; a
        # use there may extend a value's interval over another value's
        # register, but the aliasing can never execute (found by
        # hypothesis: tests/test_properties.py).
        skip, join = Label(), Label()
        ir = build_ir([
            IRInstr("getarg", v(1), 1, ret_cls="i"),
            IRInstr(Op.ADDI, v(3), v(1), 0),
            IRInstr(Op.LI, v(4), 0),
            IRInstr(Op.JMP, join),
            IRInstr("label", skip),
            IRInstr(Op.MOV, v(4), v(1)),   # dead arm: v1 "live" here
            IRInstr("label", join),
            IRInstr(Op.ADD, v(5), v(3), v(4)),
            IRInstr("ret", v(5), ret_cls="i"),
        ])
        ivs = [self._iv(v(1), 0, 5, reg=15), self._iv(v(3), 1, 7, reg=15),
               self._iv(v(4), 2, 7, reg=14), self._iv(v(5), 7, 8, reg=14)]
        assert regcheck.check_allocation(ir, ivs) == []


class TestGraphColoring:
    def _ir_with_pressure(self, n):
        """n values all live simultaneously, then all consumed."""
        ops = [IRInstr(Op.LI, v(i), i) for i in range(n)]
        acc = v(n)
        ops.append(IRInstr(Op.ADD, acc, v(0), v(1)))
        for i in range(2, n):
            ops.append(IRInstr(Op.ADD, acc, acc, v(i)))
        ops.append(IRInstr("ret", acc, ret_cls="i"))
        return build_ir(ops)

    def test_interference_edges(self):
        ir = self._ir_with_pressure(3)
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        adj = build_interference(ir, fg)
        assert v(1) in adj[v(0)] or v(0) in adj[v(1)]

    def test_coloring_valid(self):
        ir = self._ir_with_pressure(4)
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        ivs = build_intervals(ir, fg)
        graph_color(ir, fg, ivs, [1, 2, 3, 4, 5], [], slots())
        adj = build_interference(ir, fg)
        colors = {iv.vreg: iv.reg for iv in ivs}
        for a, neighbors in adj.items():
            for b in neighbors:
                if colors.get(a) is not None and colors.get(b) is not None:
                    assert colors[a] != colors[b]

    def test_spill_when_insufficient_colors(self):
        ir = self._ir_with_pressure(6)
        fg = build_flowgraph(ir)
        compute_liveness(fg)
        ivs = build_intervals(ir, fg)
        spilled = graph_color(ir, fg, ivs, [1, 2], [], slots())
        assert spilled > 0


class TestPeephole:
    def test_removes_self_move(self):
        body = [
            Instruction(Op.MOV, 5, 5),
            Instruction(Op.RET),
        ]
        out = peephole(body, [], Label())
        assert len(out) == 1

    def test_keeps_real_move(self):
        body = [Instruction(Op.MOV, 5, 6), Instruction(Op.RET)]
        out = peephole(body, [], Label())
        assert len(out) == 2

    def test_removes_jump_to_next(self):
        lbl = Label()
        lbl.address = 1
        body = [Instruction(Op.JMP, lbl), Instruction(Op.RET)]
        out = peephole(body, [lbl], Label())
        assert out[0].op is Op.RET

    def test_removes_unreachable_after_jmp(self):
        lbl = Label()
        lbl.address = 3
        body = [
            Instruction(Op.JMP, lbl),
            Instruction(Op.LI, 5, 1),   # unreachable
            Instruction(Op.LI, 5, 2),   # unreachable
            Instruction(Op.RET),
        ]
        out = peephole(body, [lbl], Label())
        # the unreachable LIs disappear, after which the JMP targets the
        # very next instruction and is itself removed
        assert [i.op for i in out] == [Op.RET]
        assert lbl.address == 0

    def test_label_remapping_preserves_targets(self):
        lbl = Label()
        lbl.address = 2
        body = [
            Instruction(Op.MOV, 5, 5),  # removed
            Instruction(Op.LI, 6, 1),
            Instruction(Op.SUBI, 6, 6, 1),  # label points here
            Instruction(Op.BNEZ, 6, lbl),
            Instruction(Op.RET),
        ]
        out = peephole(body, [lbl], Label())
        assert out[lbl.address].op is Op.SUBI


class TestOptimizer:
    def test_constant_folding(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 4),
            IRInstr(Op.ADDI, v(1), v(0), 3),
            IRInstr("ret", v(1), ret_cls="i"),
        ])
        optim.optimize(ir, build_flowgraph, compute_liveness)
        li = [i for i in ir.instrs if i.op is Op.LI and i.a == v(1)]
        assert li and li[0].b == 7

    def test_copy_propagation(self):
        ir = build_ir([
            IRInstr("getarg", v(0), 0, ret_cls="i"),
            IRInstr(Op.MOV, v(1), v(0)),
            IRInstr(Op.ADDI, v(2), v(1), 1),
            IRInstr("ret", v(2), ret_cls="i"),
        ])
        optim.optimize(ir, build_flowgraph, compute_liveness)
        add = next(i for i in ir.instrs if i.op is Op.ADDI)
        assert add.b == v(0)

    def test_dead_code_removed(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 4),
            IRInstr(Op.LI, v(1), 5),  # dead
            IRInstr("ret", v(0), ret_cls="i"),
        ])
        optim.optimize(ir, build_flowgraph, compute_liveness)
        assert all(i.a != v(1) for i in ir.instrs)

    def test_stores_never_removed(self):
        ir = build_ir([
            IRInstr(Op.LI, v(0), 4),
            IRInstr(Op.SW, v(0), None, 256),
            IRInstr("ret", None),
        ])
        optim.optimize(ir, build_flowgraph, compute_liveness)
        assert any(i.op is Op.SW for i in ir.instrs)

    def test_reg_form_folds_to_imm_form(self):
        ir = build_ir([
            IRInstr("getarg", v(0), 0, ret_cls="i"),
            IRInstr(Op.LI, v(1), 3),
            IRInstr(Op.MUL, v(2), v(0), v(1)),
            IRInstr("ret", v(2), ret_cls="i"),
        ])
        optim.optimize(ir, build_flowgraph, compute_liveness)
        assert any(i.op is Op.MULI for i in ir.instrs)
