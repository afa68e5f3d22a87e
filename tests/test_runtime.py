"""Runtime-support tests: arena, closures, cost model."""

import pytest

from repro.errors import RuntimeTccError
from repro.runtime.arena import Arena
from repro.runtime.closures import CaptureKind, Closure, Vspec
from repro.runtime.costmodel import (
    DEFAULT_WEIGHTS,
    EMIT_INSTR,
    IR_RECORD,
    LINK_PATCH,
    CodegenStats,
    CostModel,
    Phase,
)
from repro.target.memory import Memory


class TestArena:
    def test_tracks_allocations(self):
        a = Arena()
        a.alloc(16)
        a.alloc(8)
        assert a.allocations == 2
        assert a.bytes_allocated == 24

    def test_mark_release_restores_counters(self):
        a = Arena()
        a.alloc(8)
        a.mark()
        a.alloc(100)
        a.release()
        assert a.bytes_allocated == 8

    def test_release_without_mark(self):
        with pytest.raises(RuntimeTccError):
            Arena().release()

    def test_memory_backed_arena_returns_addresses(self):
        mem = Memory()
        a = Arena(mem)
        addr1 = a.alloc(8)
        addr2 = a.alloc(8)
        assert addr2 > addr1 > 0

    def test_memory_backed_release_reuses_space(self):
        mem = Memory()
        a = Arena(mem)
        a.mark()
        addr1 = a.alloc(32)
        a.release()
        addr2 = a.alloc(32)
        assert addr1 == addr2

    def test_negative_allocation_rejected(self):
        with pytest.raises(RuntimeTccError):
            Arena().alloc(-1)


class TestClosure:
    def test_capture_and_size(self):
        c = Closure(cgf=None, label="t")
        c.capture("fv_x", CaptureKind.FREEVAR, 0x100)
        c.capture("rc_y", CaptureKind.RTCONST, 7)
        assert c.slots["fv_x"] == 0x100
        # 4 (cgf ptr) + 4 (freevar addr) + 8 (rtconst)
        assert c.modeled_size() == 16

    def test_capture_kind_sizes(self):
        assert CaptureKind.RTCONST.modeled_bytes == 8
        assert CaptureKind.FREEVAR.modeled_bytes == 4
        assert CaptureKind.CSPEC.modeled_bytes == 4

    def test_vspec_kinds(self):
        from repro.frontend import typesys as T

        local = Vspec("local", T.INT, "i")
        par = Vspec("param", T.DOUBLE, "f", 2)
        assert local.kind == "local"
        assert par.index == 2
        with pytest.raises(ValueError):
            Vspec("bogus", T.INT, "i")


class TestCostModel:
    def test_charge_accumulates(self):
        cm = CostModel()
        cm.charge(EMIT_INSTR, 3)
        weight = DEFAULT_WEIGHTS[(Phase.EMIT, "instr")]
        assert cm.current.cycles[Phase.EMIT] == 3 * weight

    def test_cycles_per_instruction(self):
        cm = CostModel()
        cm.charge(EMIT_INSTR, 10)
        cm.note_instruction(10)
        assert cm.current.cycles_per_instruction() == \
            DEFAULT_WEIGHTS[(Phase.EMIT, "instr")]

    def test_end_instantiation_resets_current(self):
        cm = CostModel()
        cm.charge(IR_RECORD)
        stats = cm.end_instantiation()
        assert stats.cycles[Phase.IR] > 0
        assert cm.current.total_cycles() == 0

    def test_lifetime_accumulates_across_instantiations(self):
        cm = CostModel()
        cm.charge(IR_RECORD)
        cm.end_instantiation()
        cm.charge(IR_RECORD, 2)
        cm.end_instantiation()
        assert cm.lifetime.events[(Phase.IR, "record")] == 3

    def test_phase_breakdown_per_instruction(self):
        stats = CodegenStats()
        stats.charge(EMIT_INSTR, 4)
        stats.generated_instructions = 2
        breakdown = stats.phase_breakdown()
        assert breakdown["emit"] == 2 * DEFAULT_WEIGHTS[(Phase.EMIT, "instr")]

    def test_merge(self):
        a = CodegenStats()
        b = CodegenStats()
        a.charge(LINK_PATCH)
        b.charge(LINK_PATCH, 2)
        b.generated_instructions = 5
        a.merge(b)
        assert a.events[(Phase.LINK, "patch")] == 3
        assert a.generated_instructions == 5

    def test_zero_instructions_no_division_error(self):
        assert CodegenStats().cycles_per_instruction() == 0.0
