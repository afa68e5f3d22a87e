"""Differential tests: the compiled engines vs the reference stepper.

The block engine and the tiered engine (the default) must be observably
identical to the reference interpreter: same results, same registers,
same memory image, same modeled cycle counts, and the same trap
taxonomy.  The one licensed divergence is *bounded watchdog overshoot*:
a cycle-budget trap may be raised at a block (or trace) boundary rather
than mid-block, so its pc/cycles may sit up to one block — or one trace
— past the reference's trap point; but whether a run traps at all must
match the reference exactly.  The tiered differentials run with
``hot_threshold=2`` so promotions (and the traces they install) happen
mid-run, under the same programs the reference executes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import report
from repro.apps import ALL_APPS, blur_app, heap_app
from repro.apps.table1 import TABLE1_ROWS
from repro.errors import (
    CycleBudgetExceeded,
    IllegalInstruction,
    MachineError,
    SegmentationFault,
    UnalignedAccess,
)
from repro.target.cpu import ENGINES, ICache, Machine
from repro.target.dispatch import MAX_BLOCK_INSTRUCTIONS
from repro.target.isa import CYCLE_COST, FReg, Instruction, Op, Reg
from tests.conftest import compile_c
from tests.test_program_properties import programs


#: A hair-trigger promotion policy so even short differential programs
#: exercise trace formation mid-run.
HOT2 = {"hot_threshold": 2}


def _run_both(instrs, args=(), fuel=100_000, hosts=(), icache=False,
              tiering=HOT2):
    """Assemble the same program into one machine per engine and run it.

    Returns ``{engine: outcome}`` where a successful outcome is
    ``("ok", rv, cycles)`` and a trapping one is
    ``("trap", trap_class_name, trap, cycles)``.
    """
    out = {}
    for engine in ENGINES:
        machine = Machine(fuel=fuel, engine=engine,
                          icache=ICache() if icache else None,
                          tiering=tiering)
        for name, fn in hosts:
            machine.register_host_function(name, fn)
        entry = machine.code.extend(list(instrs))
        machine.code.link()
        try:
            rv = machine.call(entry, args)
            out[engine] = ("ok", rv, machine.cpu.cycles)
        except MachineError as trap:
            out[engine] = ("trap", type(trap).__name__, trap,
                           machine.cpu.cycles)
    return out


def _assert_same_trap(outcomes, expected_type):
    ref = outcomes["reference"]
    assert ref[0] == "trap", outcomes
    assert ref[1] == expected_type.__name__
    for engine in ("block", "tiered"):
        got = outcomes[engine]
        assert got[0] == "trap", (engine, outcomes)
        assert got[1] == expected_type.__name__
        e_trap, r_trap = got[2], ref[2]
        assert str(e_trap) == str(r_trap), engine
        assert e_trap.pc == r_trap.pc, engine
        assert e_trap.instr == r_trap.instr, engine
        assert got[3] == ref[3], engine    # cycles charged up to the trap


# -- whole generated programs ---------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(body=programs(), a=st.integers(-50, 50), b=st.integers(-50, 50),
       c=st.integers(-50, 50))
def test_generated_programs_agree(body, a, b, c):
    """Every random structured program leaves both engines in the same
    final state: result, registers, float registers, cycles, memory."""
    src = f"""
    int build(void) {{
        int vspec a = param(int, 0);
        int vspec b = param(int, 1);
        int vspec c = param(int, 2);
        void cspec code = `{{
            int i, j;
            {body}
            return a * 3 + b * 5 + c * 7;
        }};
        return (int)compile(code, int);
    }}
    """
    states = {}
    for engine in ENGINES:
        proc = compile_c(src, backend="icode", compile_static=False,
                         engine=engine, tiering=HOT2)
        entry = proc.run("build")
        rv = proc.function(entry, "iii", "i")(a, b, c)
        cpu = proc.machine.cpu
        states[engine] = (rv, list(cpu.regs), list(cpu.fregs), cpu.cycles,
                         bytes(proc.machine.memory._data))
    assert states["block"] == states["reference"], body
    assert states["tiered"] == states["reference"], body


@pytest.mark.parametrize("backend", ["vcode", "icode"])
def test_loop_program_agrees_per_backend(backend):
    src = """
    int build(void) {
        int vspec n = param(int, 0);
        void cspec code = `{
            int i, acc;
            acc = 0;
            for (i = 1; i <= n; i++) { acc = acc + i * i; }
            return acc;
        };
        return (int)compile(code, int);
    }
    """
    results = {}
    for engine in ENGINES:
        proc = compile_c(src, backend=backend, compile_static=False,
                         engine=engine, tiering=HOT2)
        fn = proc.function(proc.run("build"), "i", "i")
        results[engine] = (fn(10), proc.machine.cpu.cycles)
    assert results["block"] == results["reference"]
    assert results["tiered"] == results["reference"]
    assert results["block"][0] == 385


def _state(machine, value):
    """What a call leaves behind: its result, cycles, registers, float
    registers and memory.  Floats compare by their bits (``float.hex``:
    -0.0 and 0.0 differ, and a NaN equals itself)."""
    cpu = machine.cpu
    if isinstance(value, float):
        value = value.hex()
    return (value, cpu.cycles, list(cpu.regs), [f.hex() for f in cpu.fregs],
            bytes(machine.memory._data))


#: Back-end configurations of the app differential.
APP_CONFIGS = {
    "icode": {"backend": "icode"},
    "vcode": {"backend": "vcode"},
    "icode-analysis": {"backend": "icode", "analysis": "on"},
}

#: Apps whose tiered runs are dominated by trace compiles run on ICODE
#: only: every opcode they execute on the other two configurations they
#: also execute there.
ICODE_ONLY_APPS = ("heap", "blur")


@pytest.mark.parametrize("config, name", [
    (config, name) for config in APP_CONFIGS for name in ALL_APPS
    if config == "icode" or name not in ICODE_ONLY_APPS
])
def test_app_agrees_with_reference(config, name, monkeypatch):
    """Each app's builder and call leave the reference stepper and the
    tiered engine in the same state: result, cycles, registers, float
    registers, memory.  This is what runs the stepper's calls, byte and
    double memory ops, float ops and safe-memory ops on real programs."""
    # Smaller heap and image keep the reference stepper quick; the code
    # generated is the same, since neither size is a `$` binding that
    # steers specialization.
    monkeypatch.setattr(heap_app, "COUNT", 100)
    monkeypatch.setattr(blur_app, "WIDTH", 16)
    monkeypatch.setattr(blur_app, "HEIGHT", 12)
    app = ALL_APPS[name]
    states = {}
    for engine in ("reference", "tiered"):
        proc = compile_c(app.source, engine=engine, **APP_CONFIGS[config])
        ctx = app.setup(proc)
        entry = proc.run(app.builder, *app.builder_args(ctx))
        fn = proc.function(entry, app.dyn_signature, app.dyn_returns,
                           name=app.name)
        states[engine] = _state(proc.machine, app.dyn_call(fn, ctx))
    assert states["tiered"] == states["reference"]


# -- trap taxonomy --------------------------------------------------------------

def test_division_by_zero_traps_identically():
    outcomes = _run_both([
        Instruction(Op.LI, Reg.T0, 1),
        Instruction(Op.DIV, Reg.RV, Reg.T0, Reg.ZERO),
        Instruction(Op.RET),
    ])
    _assert_same_trap(outcomes, IllegalInstruction)


def test_division_by_zero_into_zero_register_is_discarded():
    """Reference semantics: a write to r0 is dropped before the divider
    runs, so div-by-zero into r0 does NOT trap.  The block engine must
    preserve this quirk exactly."""
    outcomes = _run_both([
        Instruction(Op.LI, Reg.T0, 1),
        Instruction(Op.DIV, Reg.ZERO, Reg.T0, Reg.ZERO),
        Instruction(Op.LI, Reg.RV, 7),
        Instruction(Op.RET),
    ])
    assert outcomes["block"] == outcomes["reference"]
    assert outcomes["tiered"] == outcomes["reference"]
    assert outcomes["block"][:2] == ("ok", 7)


def test_null_load_traps_identically():
    outcomes = _run_both([
        Instruction(Op.LW, Reg.RV, Reg.ZERO, 0),
        Instruction(Op.RET),
    ])
    _assert_same_trap(outcomes, SegmentationFault)
    assert "null guard" in str(outcomes["block"][2])


def test_unaligned_store_traps_identically():
    outcomes = _run_both([
        Instruction(Op.LI, Reg.T0, 0x2002),
        Instruction(Op.SW, Reg.T0, Reg.T0, 1),
        Instruction(Op.RET),
    ])
    _assert_same_trap(outcomes, UnalignedAccess)


def test_branch_out_of_code_range_traps_identically():
    outcomes = _run_both([
        Instruction(Op.JMP, 99_999),
    ])
    _assert_same_trap(outcomes, SegmentationFault)


# -- watchdog taxonomy ----------------------------------------------------------

def _countdown(n, at=1):
    # On a fresh machine pc 0 holds the top-level HALT, so extend() places
    # these at pc 1..4 by default; the branch targets the SUBI at at + 1.
    return [
        Instruction(Op.LI, Reg.T0, n),
        Instruction(Op.SUBI, Reg.T0, Reg.T0, 1),
        Instruction(Op.BNEZ, Reg.T0, at + 1),
        Instruction(Op.RET),
    ]


def test_watchdog_taxonomy_matches_reference_exactly():
    """Whether a run exhausts its budget is a yes/no the two engines must
    answer identically for EVERY fuel value, even though the block engine
    only checks at block boundaries."""
    ref = Machine(engine="reference")
    entry = ref.code.extend(_countdown(6))
    ref.code.link()
    ref.call(entry)
    exact = ref.cpu.cycles          # precise cost of the whole run

    for fuel in range(exact - 3, exact + 2):
        outcomes = _run_both(_countdown(6), fuel=fuel)
        reference = outcomes["reference"]
        for engine in ("block", "tiered"):
            got = outcomes[engine]
            assert got[0] == reference[0], (engine, fuel, exact, outcomes)
            if reference[0] == "trap":
                assert got[1] == reference[1] == "CycleBudgetExceeded"
            else:
                assert got == reference   # success: cycles equal too


def test_watchdog_overshoot_is_bounded():
    """A budget trap may land past the limit, but never by more than one
    maximal block."""
    machine = Machine(fuel=500, engine="block")
    entry = machine.code.extend(_countdown(1_000_000))
    machine.code.link()
    with pytest.raises(CycleBudgetExceeded, match="budget"):
        machine.call(entry)
    bound = 500 + MAX_BLOCK_INSTRUCTIONS * max(CYCLE_COST.values())
    assert machine.cpu.cycles <= bound


def test_tiered_watchdog_overshoot_is_bounded():
    """The tiered engine checks fuel once per *trace* return, so the
    licensed overshoot grows to one maximal trace (each instruction may
    additionally carry a +1 taken-branch charge riding pend)."""
    from repro.tiering import TieringPolicy

    policy = TieringPolicy()
    machine = Machine(fuel=500, engine="tiered",
                      tiering={"hot_threshold": 2})
    entry = machine.code.extend(_countdown(1_000_000))
    machine.code.link()
    with pytest.raises(CycleBudgetExceeded, match="budget"):
        machine.call(entry)
    bound = 500 + policy.max_trace_instructions * \
        (max(CYCLE_COST.values()) + 1)
    assert machine.cpu.cycles <= bound


# -- icache ---------------------------------------------------------------------

def test_icache_cycles_identical_across_engines():
    # Tiering disarms itself under an icache (promotion would change the
    # fetch pattern); the tiered engine must degrade to plain blocks.
    outcomes = _run_both(_countdown(40), icache=True)
    assert outcomes["block"] == outcomes["reference"]
    assert outcomes["tiered"] == outcomes["reference"]


def test_attaching_icache_mid_machine_rebuilds_blocks():
    """The engine environment is rebuilt when machine.icache changes, so
    already-cached penalty-free blocks cannot leak stale cycle counts."""
    results = {}
    for engine in ENGINES:
        machine = Machine(engine=engine)
        entry = machine.code.extend(_countdown(12))
        machine.code.link()
        machine.call(entry)
        cold = machine.cpu.cycles
        machine.icache = ICache()
        machine.call(entry)
        results[engine] = (cold, machine.cpu.cycles)
    assert results["block"] == results["reference"]
    assert results["tiered"] == results["reference"]


# -- host calls -----------------------------------------------------------------

def test_hostcall_agreement():
    for engine in ENGINES:
        seen = []
        machine = Machine(engine=engine)
        idx = machine.register_host_function(
            "probe", lambda cpu: seen.append(cpu.regs[Reg.A0]))
        entry = machine.code.extend([
            Instruction(Op.LI, Reg.A0, 33),
            Instruction(Op.HOSTCALL, idx),
            Instruction(Op.LI, Reg.RV, 1),
            Instruction(Op.RET),
        ])
        machine.code.link()
        assert machine.call(entry) == 1
        assert seen == [33], engine
        assert machine.cpu.regs[Reg.ZERO] == 0


# -- opcodes no app executes ----------------------------------------------------

def _final_states(instrs, args=(), fargs=(), returns="i"):
    """Run ``instrs`` on a fresh machine per engine; every engine must
    leave the reference's :func:`_state`.  Returns the result."""
    states, values = {}, {}
    for engine in ENGINES:
        machine = Machine(engine=engine, tiering=HOT2)
        entry = machine.code.extend(list(instrs))
        machine.code.link()
        values[engine] = machine.call(entry, args, fargs, returns)
        states[engine] = _state(machine, values[engine])
    assert states["block"] == states["reference"]
    assert states["tiered"] == states["reference"]
    return values["reference"]


FLOAT_COMPARES = (Op.FSEQ, Op.FSNE, Op.FSLT, Op.FSLE, Op.FSGT, Op.FSGE)


@pytest.mark.parametrize("x, y", [
    (1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (-0.0, 0.0), (math.nan, 1.0),
])
def test_float_compares_agree(x, y):
    instrs = [Instruction(Op.LI, Reg.RV, 0)]
    for bit, op in enumerate(FLOAT_COMPARES):
        instrs += [Instruction(op, Reg.T0, FReg.F1, FReg.F2),
                   Instruction(Op.SLLI, Reg.T0, Reg.T0, bit),
                   Instruction(Op.OR, Reg.RV, Reg.RV, Reg.T0)]
    instrs.append(Instruction(Op.RET))
    want = sum(int(held) << bit for bit, held in enumerate(
        (x == y, x != y, x < y, x <= y, x > y, x >= y)))
    assert _final_states(instrs, fargs=(x, y)) == want


@pytest.mark.parametrize("op, a0, want", [
    (Op.NEG, 5, -5), (Op.NEG, -2**31, -2**31),
    (Op.NOT, 5, -6), (Op.NOT, -1, 0),
])
def test_int_unary_ops_agree(op, a0, want):
    instrs = [Instruction(op, Reg.RV, Reg.A0), Instruction(Op.RET)]
    assert _final_states(instrs, args=(a0,)) == want


def test_nop_agrees():
    instrs = [Instruction(Op.NOP), Instruction(Op.LI, Reg.RV, 7),
              Instruction(Op.RET)]
    assert _final_states(instrs) == 7


@pytest.mark.parametrize("store, load, load_unsigned", [
    (Op.SB, Op.LB, Op.LBU),
    (Op.SBS, Op.LBS, Op.LBUS),
])
def test_byte_ops_agree(store, load, load_unsigned):
    # A byte store keeps the low 8 bits; the signed load sign-extends
    # them and the unsigned one does not.
    instrs = [
        Instruction(store, Reg.A0, Reg.SP, -4),
        Instruction(load, Reg.T0, Reg.SP, -4),
        Instruction(load_unsigned, Reg.T1, Reg.SP, -4),
        Instruction(Op.SLLI, Reg.T1, Reg.T1, 16),
        Instruction(Op.SUB, Reg.RV, Reg.T1, Reg.T0),
        Instruction(Op.RET),
    ]
    assert _final_states(instrs, args=(0x1FF,)) == (0xFF << 16) + 1


@pytest.mark.parametrize("store, load", [
    (Op.FSW, Op.FLW), (Op.FSWS, Op.FLWS),
])
def test_double_ops_agree(store, load):
    instrs = [
        Instruction(store, FReg.F1, Reg.SP, -16),
        Instruction(load, FReg.F0, Reg.SP, -16),
        Instruction(Op.RET),
    ]
    got = _final_states(instrs, fargs=(-0.0,), returns="f")
    assert got.hex() == (-0.0).hex()


@pytest.mark.parametrize("x, want", [(1.5, -1.5), (0.0, -0.0)])
def test_fneg_agrees(x, want):
    instrs = [Instruction(Op.FNEG, FReg.F0, FReg.F1), Instruction(Op.RET)]
    got = _final_states(instrs, fargs=(x,), returns="f")
    assert got.hex() == want.hex()


def test_conversions_agree():
    # int -> double -> scaled -> int, truncating toward zero
    instrs = [
        Instruction(Op.CVTIF, FReg.F4, Reg.A0),
        Instruction(Op.FMUL, FReg.F4, FReg.F4, FReg.F1),
        Instruction(Op.CVTFI, Reg.RV, FReg.F4),
        Instruction(Op.RET),
    ]
    assert _final_states(instrs, args=(-7,), fargs=(0.5,)) == -3
    assert _final_states(instrs, args=(7,), fargs=(0.5,)) == 3


@pytest.mark.parametrize("bad_index", [-1, 99, None])
def test_hostcall_bad_index_traps_identically(bad_index):
    """Unregistered, negative, and malformed hostcall operands all take
    the standard trap-annotation path on both engines (a negative index
    used to silently wrap around into the wrong host function)."""
    outcomes = _run_both(
        [Instruction(Op.HOSTCALL, bad_index), Instruction(Op.RET)],
        hosts=[("only", lambda cpu: None)])
    _assert_same_trap(outcomes, IllegalInstruction)
    trap = outcomes["block"][2]
    assert "not registered" in str(trap)
    assert trap.pc == 1
    assert trap.instr is not None


# -- block-cache invalidation ---------------------------------------------------

def test_rollback_invalidates_rolled_back_blocks_only():
    report.reset()
    machine = Machine(engine="block")
    e1 = machine.code.extend([Instruction(Op.LI, Reg.RV, 1),
                              Instruction(Op.RET)])
    machine.code.link()
    assert machine.call(e1) == 1

    machine.code.mark()
    e2 = machine.code.extend([Instruction(Op.LI, Reg.RV, 2),
                              Instruction(Op.RET)])
    machine.code.link()
    assert machine.call(e2) == 2

    machine.code.release()
    e3 = machine.code.extend([Instruction(Op.LI, Reg.RV, 3),
                              Instruction(Op.RET)])
    machine.code.link()
    assert e3 == e2                      # same addresses, new instructions
    assert machine.call(e3) == 3         # a stale block here would return 2
    assert report.dispatch_stats()["blocks_invalidated"] >= 1

    # The block below the rollback point survived and is still correct.
    hits_before = report.dispatch_stats()["block_cache_hits"]
    assert machine.call(e1) == 1
    assert report.dispatch_stats()["block_cache_hits"] > hits_before


def test_fault_injection_clears_the_block_cache():
    report.reset()
    machine = Machine(engine="block")
    entry = machine.code.extend([Instruction(Op.LI, Reg.RV, 9),
                                 Instruction(Op.RET)])
    machine.code.link()
    assert machine.call(entry) == 9
    compiled = report.dispatch_stats()["blocks_compiled"]

    machine.code.inject_emit_failure(nth=99)   # fires the "fault" event
    assert report.dispatch_stats()["blocks_invalidated"] >= 1
    assert machine.call(entry) == 9            # recompiled, still correct
    assert report.dispatch_stats()["blocks_compiled"] > compiled


def test_tier2_patched_code_composes_with_cached_blocks():
    """Tier-2 copy-and-patch appends clones past the link horizon, so
    previously cached blocks stay valid alongside the patched code."""
    report.reset()
    source = TABLE1_ROWS["one large cspec, dynamic locals"]()
    proc = compile_c(source, backend="icode")     # spec cache defaults on
    f1 = proc.function(proc.run("build", 5), "i", "i")
    first = [f1(arg) for arg in (0, 1, 9)]
    f2 = proc.function(proc.run("build", 7), "i", "i")   # Tier-2 clone
    assert report.cache_stats()["patched"] >= 1

    oracle = compile_c(source, backend="icode", codecache=False)
    f_oracle = oracle.function(oracle.run("build", 7), "i", "i")
    for arg in (0, 1, 9):
        assert f2(arg) == f_oracle(arg)
    assert [f1(arg) for arg in (0, 1, 9)] == first   # old blocks still valid


def test_engine_knob_is_validated():
    from repro.tiering import TieredEngine

    with pytest.raises(MachineError, match="unknown execution engine"):
        Machine(engine="turbo")
    assert Machine(engine="reference")._engine is None
    assert Machine().engine == "tiered"
    assert isinstance(Machine()._engine, TieredEngine)
    # "block" is the same engine with its trace tier off.
    assert isinstance(Machine(engine="block")._engine, TieredEngine)
    assert Machine()._engine.tracing
    assert not Machine(engine="block")._engine.tracing


# -- trace-cache invalidation ---------------------------------------------------

def test_rollback_invalidates_traces_with_blocks():
    """A segment rollback must drop the traces formed over the rolled-back
    region and keep the ones below it; re-extended code at the same
    addresses reruns correctly."""
    report.reset()
    machine = Machine(engine="tiered", tiering=HOT2)
    engine = machine._engine
    e1 = machine.code.extend(_countdown(30))
    machine.code.link()
    machine.call(e1)
    below = set(engine._traces)
    assert below, "the countdown below the mark never promoted"

    machine.code.mark()
    e2 = machine.code.extend(_countdown(5, at=machine.code.here))
    machine.code.link()
    machine.call(e2)
    assert any(entry >= e2 for entry in engine._traces)
    dropped = report.tiering_stats()["traces_invalidated"]
    machine.code.release()
    assert report.tiering_stats()["traces_invalidated"] - dropped >= 1
    assert set(engine._traces) == below  # the traces below the mark survive

    e3 = machine.code.extend([Instruction(Op.LI, Reg.RV, 3),
                              Instruction(Op.RET)])
    machine.code.link()
    assert e3 == e2
    assert machine.call(e3) == 3         # a stale trace here would loop

    # The countdown below the rollback point still runs bit-identically.
    ref = Machine(engine="reference")
    r1 = ref.code.extend(_countdown(30))
    ref.code.link()
    ref.call(r1)
    before = machine.cpu.cycles
    machine.call(e1)
    assert machine.cpu.cycles - before == ref.cpu.cycles


def test_distrust_demotes_traces_and_profile():
    """distrust_block_cache (the exec-trust breaker's demotion hook) must
    drop formed traces AND the hotness profile, so a re-trusted machine
    starts cold instead of instantly re-promoting."""
    report.reset()
    machine = Machine(engine="tiered", tiering=HOT2)
    entry = machine.code.extend(_countdown(30))
    machine.code.link()
    machine.call(entry)
    assert report.tiering_stats()["promotions"] >= 1
    engine = machine._engine
    assert engine._traces

    machine.distrust_block_cache()
    assert not engine._traces
    assert not engine._counts
    assert report.tiering_stats()["traces_invalidated"] >= 1

    # Still correct (and re-promotes) after demotion.
    before = machine.cpu.cycles
    machine.call(entry)
    ref = Machine(engine="reference")
    r1 = ref.code.extend(_countdown(30))
    ref.code.link()
    ref.call(r1)
    assert machine.cpu.cycles - before == ref.cpu.cycles


def _traces_formed(machine, instrs, calls):
    entry = machine.code.extend(instrs)
    machine.code.link()
    for _ in range(calls):
        machine.call(entry)
    return sorted(machine._engine._traces)


def test_fault_rearms_promotion():
    """An emit fault evicts every trace together with the profile that
    formed them, so the loop re-forms its traces afterwards instead of
    staying on the block tier for good."""
    report.reset()
    machine = Machine(engine="tiered", tiering=HOT2)
    entry = machine.code.here
    formed = _traces_formed(machine, _countdown(50), calls=2)
    assert formed

    machine.code.inject_emit_failure(nth=99)   # fires the "fault" event
    assert not machine._engine._traces
    runs = report.tiering_stats()["trace_dispatches"]
    for _ in range(2):
        machine.call(entry)
    assert sorted(machine._engine._traces) == formed
    assert report.tiering_stats()["trace_dispatches"] > runs


def test_rollback_rearms_promotion_of_reextended_code():
    """Code re-extended over rolled-back addresses promotes exactly as it
    would on a fresh machine: the rollback drops the profile at or past
    the mark along with the units."""
    machine = Machine(engine="tiered", tiering=HOT2)
    machine.code.mark()
    _traces_formed(machine, _countdown(50), calls=1)
    machine.code.release()
    reextended = _traces_formed(machine, _countdown(20), calls=2)
    fresh = _traces_formed(Machine(engine="tiered", tiering=HOT2),
                           _countdown(20), calls=2)
    assert reextended == fresh


def test_block_dispatches_count_blocks_only():
    """Trace runs count in tiering.trace_dispatches, never as block
    dispatches: every block dispatch is a cache hit or a compile."""
    report.reset()
    machine = Machine(engine="tiered", tiering=HOT2)
    _traces_formed(machine, _countdown(300), calls=5)
    assert report.tiering_stats()["trace_dispatches"] > 0
    stats = report.dispatch_stats()
    assert stats["block_cache_hits"] + stats["blocks_compiled"] == \
        stats["block_dispatches"]
