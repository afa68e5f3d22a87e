"""Unit tests for the profile-guided tiering layer.

The bit-identity differentials live in tests/test_engines.py (every
engine comparison there now includes "tiered"); this file covers the
tiering machinery itself: policy validation, trace formation over a
profile, promotion/deopt mechanics, the cross-session hotness rollup,
hot-unit reporting, and the driver's adaptive VCODE->ICODE retier.
"""

from __future__ import annotations

import pytest

from repro import Engine, report
from repro.target.cpu import Machine
from repro.target.isa import Instruction, Op, Reg
from repro.tiering import SharedHotness, TieredEngine, TieringPolicy, \
    form_trace
from tests.conftest import compile_c

HOT2 = {"hot_threshold": 2}


def _countdown(n):
    # pc 0 holds the top-level HALT; extend() places these at 1..4 with
    # the loop back edge targeting the SUBI at pc 2.
    return [
        Instruction(Op.LI, Reg.T0, n),
        Instruction(Op.SUBI, Reg.T0, Reg.T0, 1),
        Instruction(Op.BNEZ, Reg.T0, 2),
        Instruction(Op.RET),
    ]


def _hot_machine(n=30, tiering=None):
    machine = Machine(engine="tiered", tiering=tiering or HOT2)
    entry = machine.code.extend(_countdown(n))
    machine.code.link()
    return machine, entry


def _reference_cycles(n=30):
    ref = Machine(engine="reference")
    entry = ref.code.extend(_countdown(n))
    ref.code.link()
    ref.call(entry)
    return ref.cpu.cycles


class TestPolicy:
    def test_defaults(self):
        policy = TieringPolicy()
        assert policy.hot_threshold == 8
        assert policy.max_trace_instructions == 512
        assert policy.max_trace_blocks == 256
        # Whether the trace tier runs is the engine choice, not a field.
        assert TieringPolicy.__slots__ == (
            "hot_threshold", "max_trace_instructions", "max_trace_blocks")

    def test_threshold_must_allow_an_observed_edge(self):
        # Promotion consumes the successor edge observed on the previous
        # dispatch; a threshold of 1 would promote before any edge exists.
        with pytest.raises(ValueError):
            TieringPolicy(hot_threshold=1)

    @pytest.mark.parametrize("field", ["max_trace_instructions",
                                       "max_trace_blocks"])
    def test_budgets_must_be_positive(self, field):
        with pytest.raises(ValueError):
            TieringPolicy(**{field: 0})

    def test_of_conversions(self):
        policy = TieringPolicy(hot_threshold=3)
        assert TieringPolicy.of(policy) is policy
        assert TieringPolicy.of(None).hot_threshold == 8
        assert TieringPolicy.of({"hot_threshold": 5}).hot_threshold == 5
        with pytest.raises(TypeError):
            TieringPolicy.of(42)


class TestTraceFormation:
    def test_loop_unrolls_along_taken_edges(self):
        code = [Instruction(Op.HALT)] + _countdown(9)
        policy = TieringPolicy(hot_threshold=2, max_trace_instructions=11,
                               max_trace_blocks=8)
        # The profile says the loop block at 2 branches back to itself.
        form = form_trace(code, 2, {2: 2}, len(code), policy)
        assert form.entry == 2
        assert len(form.block_entries) >= 2
        assert all(e == 2 for e in form.block_entries)
        assert form.instructions <= policy.max_trace_instructions
        # Every unrolled iteration speculates the back edge as a guard.
        guards = [s for s in form.steps if s[0] == "guard"]
        assert guards and all(s[3] for s in guards)

    def test_fall_through_profile_speculates_exit(self):
        code = [Instruction(Op.HALT)] + _countdown(9)
        policy = TieringPolicy(hot_threshold=2)
        # Profile says the branch at 3 falls through to the RET at 4.
        form = form_trace(code, 2, {2: 4}, len(code), policy)
        assert form.block_entries == [2, 4]
        kinds = [s[0] for s in form.steps]
        assert "guard" in kinds
        guard = next(s for s in form.steps if s[0] == "guard")
        assert guard[3] is False         # speculated NOT taken
        assert form.terminal[0] == "end"  # ends at the RET

    def test_unprofiled_branch_ends_the_trace(self):
        code = [Instruction(Op.HALT)] + _countdown(9)
        form = form_trace(code, 2, {}, len(code), TieringPolicy())
        assert form.block_entries == [2]
        assert form.terminal[0] == "end"

    def test_block_budget_caps_the_trace(self):
        code = [Instruction(Op.HALT)] + _countdown(9)
        policy = TieringPolicy(max_trace_blocks=3)
        form = form_trace(code, 2, {2: 2}, len(code), policy)
        assert len(form.block_entries) <= 3


class TestPromotion:
    def test_hot_loop_forms_a_trace(self):
        report.reset()
        machine, entry = _hot_machine()
        machine.call(entry)
        engine = machine._engine
        assert isinstance(engine, TieredEngine)
        assert engine._traces, "hot loop never promoted"
        stats = report.tiering_stats()
        assert stats["promotions"] >= 1
        assert stats["trace_dispatches"] >= 1
        assert stats["trace_blocks"] >= 2 * stats["promotions"]
        assert stats["trace_length"]["count"] == stats["promotions"]

    def test_promotion_preserves_modeled_cycles(self):
        machine, entry = _hot_machine(30)
        machine.call(entry)
        assert machine.cpu.cycles == _reference_cycles(30)

    def test_promotion_is_one_shot_per_entry(self):
        report.reset()
        machine, entry = _hot_machine()
        machine.call(entry)
        machine.call(entry)     # the entry block itself promotes here
        promos = report.tiering_stats()["promotions"]
        machine.call(entry)
        machine.call(entry)
        assert report.tiering_stats()["promotions"] == promos

    def test_tiering_can_be_disabled(self):
        """engine="block" is the same engine with the trace tier off: it
        forms no traces and writes no profile, not even into a shared
        rollup it was handed."""
        report.reset()
        shared = SharedHotness()
        machine = Machine(engine="block", tiering=HOT2,
                          tiering_shared=shared)
        entry = machine.code.extend(_countdown(30))
        machine.code.link()
        machine.call(entry)
        engine = machine._engine
        assert not engine._traces
        assert not engine._counts and not engine._succ
        assert engine.hot_units() == []
        engine.publish_profile()
        assert shared.snapshot() == ({}, {})
        assert report.tiering_stats()["promotions"] == 0
        assert report.tiering_stats()["trace_dispatches"] == 0
        assert machine.cpu.cycles == _reference_cycles(30)


class TestDeopt:
    def test_poison_live_trace_deopts_bit_identically(self):
        report.reset()
        machine, entry = _hot_machine(30)
        machine.call(entry)
        engine = machine._engine
        poisoned = engine.poison_trace()
        assert poisoned is not None and poisoned in engine._traces

        before = machine.cpu.cycles
        machine.call(entry)
        assert machine.cpu.cycles - before == _reference_cycles(30)
        stats = report.tiering_stats()
        assert stats["deopts"] == 1
        # The deopt re-armed the counter and the loop re-promoted.
        assert stats["promotions"] >= 2
        assert poisoned in engine._traces

    def test_poison_arms_the_next_promotion(self):
        report.reset()
        machine, entry = _hot_machine(30)
        assert machine._engine.poison_trace() is None   # nothing live yet
        machine.call(entry)
        # The first trace formed was poisoned, deopted mid-run, and the
        # re-promotion produced a healthy replacement — all inside one
        # call, with reference-identical cycles.
        assert report.tiering_stats()["deopts"] == 1
        assert machine.cpu.cycles == _reference_cycles(30)


class TestSharedHotness:
    def test_absorb_snapshot_reset(self):
        shared = SharedHotness()
        shared.absorb({5: 3, 9: 0}, {5: 9})
        shared.absorb({5: 2}, {})
        counts, succ = shared.snapshot()
        assert counts == {5: 5} and succ == {5: 9}
        assert len(shared) == 1
        shared.reset()
        assert shared.snapshot() == ({}, {})

    def test_seeded_machine_promotes_on_first_dispatch(self):
        report.reset()
        shared = SharedHotness()
        warm, entry = _hot_machine(30)
        warm.call(entry)
        warm._engine.shared = shared
        warm._engine.publish_profile()
        assert len(shared) > 0

        cold = Machine(engine="tiered", tiering=HOT2, tiering_shared=shared)
        e2 = cold.code.extend(_countdown(30))
        cold.code.link()
        # Seeds are capped below the threshold: hot on first dispatch.
        assert cold._engine._counts
        assert all(n < 2 for n in cold._engine._counts.values())
        promos = report.tiering_stats()["promotions"]
        cold.call(e2)
        assert report.tiering_stats()["promotions"] > promos
        assert cold.cpu.cycles == _reference_cycles(30)

    def test_idle_session_publishes_nothing(self):
        """A session publishes only what it dispatched: one that opens
        and closes without executing leaves the rollup unchanged, rather
        than re-adding the seed it read."""
        eng = Engine(LOOP_SRC, chaos=None)
        with eng.session() as s:
            assert s.request("make_sum", (20,), call_args=(3,)).ok
        before = eng.hotness.snapshot()
        assert before[0]
        for _ in range(3):
            eng.open_session().close()
            assert eng.hotness.snapshot() == before


class TestHotUnits:
    def test_rows_rank_traces_and_blocks(self):
        machine, entry = _hot_machine(30)
        machine.call(entry)
        rows = machine._engine.hot_units()
        assert rows
        kinds = {row["kind"] for row in rows}
        assert "trace" in kinds
        for row in rows:
            assert set(row) == {"pc", "kind", "dispatches", "blocks",
                                "instructions", "cycles"}
        counts = [row["dispatches"] for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert len(machine._engine.hot_units(top=1)) == 1


LOOP_SRC = """
int make_sum(int n) {
    int vspec x = param(int, 0);
    void cspec c = `{
        int i, s;
        s = 0;
        for (i = 0; i < $n; i++)
            s = s + x;
        return s;
    };
    return (int)compile(c, int);
}
"""


class TestAdaptiveRetier:
    def test_hot_vcode_closure_retiers_to_icode(self):
        """Once a VCODE closure's cumulative exec cycles cross the
        Fig. 5 crossover multiple of its compile cost, the next
        compile() re-instantiates it with ICODE."""
        report.reset()
        eng = Engine(LOOP_SRC, chaos=None)
        # The closure's spec-time+codegen cost dwarfs one run of the
        # generated loop, so a small crossover ratio keeps the test
        # fast: ~2 executions' cumulative cycles trip it.
        with eng.session(backend="vcode", retier_cost_ratio=0.01) as s:
            first = s.request("make_sum", (2000,), call_args=(3,))
            assert first.ok and first.value == 6000
            assert first.path == "cold"
            for _ in range(3):
                assert s.call(first.entry, (3,)) == 6000
            again = s.request("make_sum", (2000,), call_args=(3,))
            assert again.ok and again.value == 6000
            assert again.path == "retier"
        assert report.tiering_stats()["retier_promotions"] >= 1

    def test_retier_can_be_disabled(self):
        report.reset()
        eng = Engine(LOOP_SRC, chaos=None)
        with eng.session(backend="vcode", retier=False,
                         retier_cost_ratio=0.01) as s:
            first = s.request("make_sum", (2000,), call_args=(3,))
            for _ in range(3):
                s.call(first.entry, (3,))
            again = s.request("make_sum", (2000,), call_args=(3,))
            assert again.ok and again.path == "hit"
        assert report.tiering_stats()["retier_promotions"] == 0


class TestStatsReset:
    def test_report_reset_clears_tiering_stats(self):
        machine, entry = _hot_machine()
        machine.call(entry)
        stats = report.tiering_stats()
        assert stats["promotions"] >= 1
        report.reset()
        cleared = report.tiering_stats()
        assert cleared["promotions"] == 0
        assert cleared["trace_dispatches"] == 0
        assert cleared["deopts"] == 0
        assert cleared["trace_length"]["count"] == 0


def test_generated_loop_matches_reference_with_tiny_threshold():
    """An end-to-end compiled program under the hair-trigger policy:
    promotion happens mid-run and the final state matches the
    reference stepper exactly."""
    src = """
    int build(void) {
        int vspec n = param(int, 0);
        void cspec code = `{
            int i, acc;
            acc = 0;
            for (i = 0; i < n; i++) { acc = acc + i * 3; }
            return acc;
        };
        return (int)compile(code, int);
    }
    """
    states = {}
    for engine in ("tiered", "reference"):
        proc = compile_c(src, backend="icode", compile_static=False,
                         engine=engine, tiering=HOT2)
        fn = proc.function(proc.run("build"), "i", "i")
        states[engine] = (fn(40), proc.machine.cpu.cycles)
    assert states["tiered"] == states["reference"]
    assert states["tiered"][0] == sum(i * 3 for i in range(40))
