"""Guard elision benchmark: Figure-4 apps with the dataflow analysis on
vs off, under paranoid verification.

Three headlines, each an assert here, with the results written to
``BENCH_analysis.json``:

* elision is *observationally free* — every app computes a bit-identical
  result with analysis on;
* elision pays — modeled execution cycles drop by at least 5% on at
  least three memory-heavy apps;
* every elided check re-proves — the whole sweep runs with
  ``verify="paranoid"``, so a single factcheck diagnostic fails the
  benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import report
from repro.apps import ALL_APPS, FIGURE4_APPS
from repro.core.driver import TccCompiler

BENCH_PATH = Path(__file__).parent.parent / "BENCH_analysis.json"

#: Required modeled-cycle reduction (%), and how many Figure-4 apps must
#: clear it.  The winners are the memory-heavy kernels: hash, ms, heap,
#: mshl, umshl, binary.
REDUCTION_PCT = 5.0
MIN_APPS_OVER = 3

_RESULTS: dict = {"apps": {}}


def _run(app, analysis):
    prog = TccCompiler().compile(app.source, filename=f"<{app.name}>")
    proc = prog.start(backend="icode", regalloc="linear",
                      analysis=analysis, verify="paranoid")
    ctx = app.setup(proc)
    entry = proc.run(app.builder, *app.builder_args(ctx))
    fn = proc.function(entry, app.dyn_signature, app.dyn_returns,
                       name=app.name)
    result = app.dyn_call(fn, ctx)
    return result, proc.machine.cpu.cycles


@pytest.mark.parametrize("name", FIGURE4_APPS)
def test_elision_identical_and_counted(name):
    app = ALL_APPS[name]
    report.reset()
    result_off, cycles_off = _run(app, False)
    report.reset()
    result_on, cycles_on = _run(app, True)
    stats = report.analysis_stats()
    verify = report.verify_stats()

    assert result_on == result_off, (name, result_on, result_off)
    assert cycles_on <= cycles_off, (name, cycles_on, cycles_off)
    assert stats.get("facts_exported", 0) > 0, name
    assert all(n == 0 for n in verify["diagnostics"].values()), verify

    reduction = (100.0 * (cycles_off - cycles_on) / cycles_off
                 if cycles_off else 0.0)
    _RESULTS["apps"][name] = {
        "identical": result_on == result_off,
        "cycles_off": cycles_off,
        "cycles_on": cycles_on,
        "reduction_pct": round(reduction, 2),
        "elided_frame": stats.get("elided_frame", 0),
        "elided_dup": stats.get("elided_dup", 0),
        "elided_const": stats.get("elided_const", 0),
        "guards_discharged": stats.get("guards_discharged", 0),
        "facts_exported": stats.get("facts_exported", 0),
        "factcheck_diagnostics": verify["diagnostics"].get("factcheck", 0),
    }


def test_reduction_headline():
    """>= 5% modeled-cycle reduction on >= 3 memory-heavy apps."""
    assert _RESULTS["apps"], "per-app benchmarks did not run"
    over = [name for name, row in _RESULTS["apps"].items()
            if row["reduction_pct"] >= REDUCTION_PCT]
    assert len(over) >= MIN_APPS_OVER, (over, _RESULTS["apps"])
    _RESULTS["apps_over_floor"] = sorted(over)
    _RESULTS["reduction_floor_pct"] = REDUCTION_PCT


def test_write_bench_json():
    """Persist the elision matrix (runs after the apps above)."""
    assert _RESULTS["apps"], "per-app benchmarks did not run"
    payload = dict(_RESULTS)
    payload["description"] = (
        "Proof-carrying guard elision benchmark: modeled execution cycles "
        "per Figure-4 app with the dataflow analysis off vs on (paranoid "
        "verification, bit-identical results required)."
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert BENCH_PATH.exists()
