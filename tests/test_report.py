"""Smoke tests for the repro.report CLI (the cheap reports only; the
expensive figures are exercised by benchmarks/)."""

import pytest

from repro import report
from repro.report import __main__ as report_cli
from repro.target.cpu import Machine
from repro.target.isa import Instruction, Op, Reg


def test_usedops_report_renders():
    text = report_cli.report_usedops()
    assert "pruned" in text
    for name in ("hash", "dp", "blur"):
        assert name in text


def test_table1_report_renders():
    text = report_cli.report_table1()
    assert "one large cspec, dynamic locals" in text
    assert "VCODE" in text and "ICODE" in text


def test_main_rejects_unknown_report(capsys):
    assert report_cli.main(["nonsense"]) == 1
    assert "Usage" in capsys.readouterr().out or True


def test_main_runs_named_report(capsys):
    assert report_cli.main(["usedops"]) == 0
    out = capsys.readouterr().out
    assert "reduction" in out or "pruned" in out


def test_reset_clears_dispatch_counters():
    """report.reset() must zero the block-dispatch counters too, or one
    benchmark's fusion/cache numbers bleed into the next."""
    report.reset()
    machine = Machine()                    # block engine is the default
    entry = machine.code.extend([
        Instruction(Op.LI, Reg.RV, 5),
        Instruction(Op.RET),
    ])
    machine.code.link()
    assert machine.call(entry) == 5

    stats = report.dispatch_stats()
    assert stats["blocks_compiled"] >= 1
    assert stats["instructions_predecoded"] >= 2
    assert stats["block_dispatches"] >= 1

    report.reset()
    stats = report.dispatch_stats()
    assert all(v == 0 for k, v in stats.items() if k != "fused_by_kind")
    assert stats["fused_by_kind"] == {}


def test_reset_clears_verify_counters():
    """report.reset() must zero the verifier counters too, or one
    benchmark's diagnostic/timing numbers bleed into the next."""
    report.reset()
    report.record_verify("ticklint", 0, 0.25)
    report.record_verify("regcheck", 3, 0.5)

    stats = report.verify_stats()
    assert stats["checks_run"] == 2
    assert stats["diagnostics"]["regcheck"] == 3
    assert stats["diagnostics"]["ticklint"] == 0
    assert stats["time_seconds"] == pytest.approx(0.75)

    report.reset()
    stats = report.verify_stats()
    assert stats["checks_run"] == 0
    assert all(n == 0 for n in stats["diagnostics"].values())
    assert stats["time_seconds"] == 0.0


def test_reset_runs_registered_hooks():
    """report.reset() must clear state living outside the registry too
    (SLO windows, flight-recorder rings) via registered hooks."""
    calls = []

    def hook():
        calls.append(1)

    report.register_reset_hook(hook)
    report.register_reset_hook(hook)       # idempotent registration
    try:
        report.reset()
        assert calls == [1]
    finally:
        report._RESET_HOOKS.remove(hook)


def test_reset_clears_observability_plane():
    """The obs plane's hook wipes live SLO windows and recorder rings."""
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.slo import SloEngine, default_policy

    slo = SloEngine(default_policy())
    rec = FlightRecorder(capacity=8, name="t")
    slo.observe("hit", 1, True)
    rec.record({
        "session": "s", "builder": "b", "correlation_id": "s#1",
        "ok": True, "error": None, "tier": "patched", "path": "hit",
        "retries": 0, "cycles": 1, "deadline": None,
        "deadline_slack": None, "rungs": [0], "exec_engine": "block",
        "chaos": (), "breaker_opens": 0, "wall_us": 1.0, "spans": (),
    })
    assert slo.observed == 1 and len(rec) == 1
    report.reset()
    assert slo.observed == 0 and len(rec) == 0
