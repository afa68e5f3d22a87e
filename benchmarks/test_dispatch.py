"""Host-time benchmark: the block-dispatch engine vs the reference stepper.

Modeled target cycles are engine-independent by construction (the
differential suite in tests/test_engines.py proves it); what the block
engine buys is *host* wall time.  This benchmark times identical
workloads under both engines, interleaved in one process (best-of), and
records:

* **table1-kernel** — the paper's "one large cspec, dynamic locals"
  kernel: a long straight-line body, repeatedly invoked;
* **blur** — the paper's convolution case study: nested loops, loads,
  stores, compares and branches.

Results go to ``BENCH_dispatch.json``: host seconds per engine, the
speedup, and the block engine's own counters (blocks compiled,
dispatch/cache-hit rates).  The acceptance headline is a
>= 3x host speedup on BOTH workloads with identical modeled cycles.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import interleaved_best
from repro import report
from repro.apps import ALL_APPS
from repro.apps.table1 import TABLE1_ROWS
from repro.core.driver import TccCompiler

BENCH_PATH = Path(__file__).parent.parent / "BENCH_dispatch.json"

_RESULTS: dict = {"cases": {}}


def _dispatch_summary():
    stats = report.dispatch_stats()
    dispatches = stats["block_dispatches"]
    stats["cache_hit_rate"] = round(
        stats["block_cache_hits"] / dispatches, 4) if dispatches else 0.0
    return stats


def _record(case, engine_times, cycles, result_ok, counters):
    speedup = engine_times["reference"] / engine_times["block"]
    _RESULTS["cases"][case] = {
        "reference_s": round(engine_times["reference"], 6),
        "block_s": round(engine_times["block"], 6),
        "speedup": round(speedup, 2),
        "modeled_cycles": cycles,
        "results_identical": result_ok,
        "block_counters": counters,
    }
    return speedup


def test_table1_kernel_speedup():
    source = TABLE1_ROWS["one large cspec, dynamic locals"]()
    calls, cycles, results = {}, {}, {}
    # The reference stepper records no dispatch counters, so after one
    # reset they are the block engine's alone.
    report.reset()
    for engine in ("reference", "block"):
        proc = TccCompiler().compile(source).start(
            backend="icode", codecache=False, engine=engine)
        fn = proc.function(proc.run("build", 5), "i", "i")
        before = proc.machine.cpu.cycles
        results[engine] = [fn(arg) for arg in (0, 1, 9)]
        cycles[engine] = proc.machine.cpu.cycles - before
        calls[engine] = lambda fn=fn: [fn(arg) for arg in range(20)]
    ref_s, block_s = interleaved_best(calls["reference"], calls["block"],
                                      rounds=3, warmup=1)
    times = {"reference": ref_s, "block": block_s}
    counters = _dispatch_summary()

    assert results["block"] == results["reference"]
    assert cycles["block"] == cycles["reference"]
    assert counters["blocks_compiled"] >= 1
    assert counters["block_cache_hits"] > 0
    speedup = _record("table1-kernel", times, cycles["block"],
                      results["block"] == results["reference"], counters)
    assert speedup >= 3.0, times


def test_blur_case_study_speedup():
    app = ALL_APPS["blur"]
    calls, cycles, results = {}, {}, {}
    report.reset()
    for engine in ("reference", "block"):
        proc = TccCompiler().compile(
            app.source, filename="<blur>").start(
            backend="icode", codecache=False, engine=engine)
        ctx = app.setup(proc)
        entry = proc.run(app.builder, *app.builder_args(ctx))
        fn = proc.function(entry, app.dyn_signature, app.dyn_returns)
        before = proc.machine.cpu.cycles
        results[engine] = app.dyn_call(fn, ctx)
        cycles[engine] = proc.machine.cpu.cycles - before
        calls[engine] = lambda fn=fn, ctx=ctx: app.dyn_call(fn, ctx)
    ref_s, block_s = interleaved_best(calls["reference"], calls["block"],
                                      rounds=2)
    times = {"reference": ref_s, "block": block_s}
    counters = _dispatch_summary()

    assert results["block"] == results["reference"]
    assert cycles["block"] == cycles["reference"]
    assert counters["cache_hit_rate"] > 0.9
    speedup = _record("blur", times, cycles["block"],
                      results["block"] == results["reference"], counters)
    assert speedup >= 3.0, times


def test_write_bench_json():
    """Persist the engine comparison (runs after the cases above)."""
    assert _RESULTS["cases"], "dispatch benchmarks did not run"
    payload = dict(_RESULTS)
    payload["description"] = (
        "Block-dispatch engine benchmark: host seconds for identical "
        "workloads under the reference stepper vs the block engine, with "
        "block-cache counters.  Modeled cycles are identical "
        "by design; the speedup is host-side only."
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert BENCH_PATH.exists()
