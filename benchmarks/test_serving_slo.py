"""Latency-SLO serving benchmark.

One session replays the deterministic heavy-tailed workload
(:mod:`repro.obs.workload` — a hot set of repeated signatures, a warm
Zipf band, a never-repeating cold tail) against a serving engine with
the observability plane on, and records per-path latency percentiles
(host µs and modeled cycles), throughput, and the engine's own SLO
verdict — the benchmark *asserts* the verdict, so a latency regression
that burns an error budget fails here before any dashboard would page.

A second pass prices the plane itself: the same workload served by an
engine with SLO tracking + flight recorder + exemplars on and by one
constructed with them off, side by side, request by request.  The
observability overhead must stay within :data:`OVERHEAD_CEILING` of the
bare engine.

Results go to ``BENCH_serving.json``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from repro import Engine, report
from repro.obs import workload

BENCH_PATH = Path(__file__).parent.parent / "BENCH_serving.json"

N_REQUESTS = 400          # the instrumented percentile run
OVERHEAD_REQUESTS = 150   # per overhead repetition
OVERHEAD_REPS = 10        # repetitions, pooled
OVERHEAD_CEILING = 0.05   # plane must cost <= 5% of bare serving

_RESULTS: dict = {}


def _percentile(sorted_values, q):
    if not sorted_values:
        return None
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _path_stats(samples):
    out = {}
    for path, rows in sorted(samples.items()):
        us = sorted(r[0] for r in rows)
        cy = sorted(r[1] for r in rows)
        out[path] = {
            "requests": len(rows),
            "latency_us": {
                "p50": round(_percentile(us, 0.50), 1),
                "p95": round(_percentile(us, 0.95), 1),
                "p99": round(_percentile(us, 0.99), 1),
            },
            "modeled_cycles": {
                "p50": _percentile(cy, 0.50),
                "p95": _percentile(cy, 0.95),
                "p99": _percentile(cy, 0.99),
            },
        }
    return out


def _replay(engine, n, seed=1234):
    """One cold-engine replay; returns (elapsed_s, per-path samples,
    outcomes)."""
    samples: dict = {}
    outcomes = []

    def observer(request, outcome, host_us):
        samples.setdefault(outcome.path, []).append(
            (host_us, outcome.cycles))
        outcomes.append(outcome)

    with engine.session("bench") as session:
        t0 = time.perf_counter()
        workload.replay(session, workload.generate(n, seed=seed),
                        observer=observer)
        elapsed = time.perf_counter() - t0
    return elapsed, samples, outcomes


def test_slo_verdict_on_clean_replay():
    report.reset()
    engine = Engine(workload.PROGRAM, chaos=None)
    elapsed, samples, outcomes = _replay(engine, N_REQUESTS)
    assert all(o.ok for o in outcomes)

    status = engine.slo.status()
    verdict = status.to_dict()
    # The acceptance bar: a clean replay meets every objective.
    assert status.ok, f"SLO breached: {verdict}"
    assert not status.exhausted
    assert status.observed == N_REQUESTS

    per_path = _path_stats(samples)
    # The heavy-tailed mix exercises the three serving paths the SLOs
    # gate on; hits dominate.
    assert {"hit", "patched", "cold"} <= set(per_path)
    assert per_path["hit"]["requests"] > per_path["cold"]["requests"]

    _RESULTS["workload"] = {
        "requests": N_REQUESTS,
        "seed": 1234,
        "mix": {k: sum(r.klass == k
                       for r in workload.generate(N_REQUESTS))
                for k in ("hot", "warm", "cold")},
    }
    _RESULTS["throughput_rps"] = round(N_REQUESTS / elapsed, 1)
    _RESULTS["elapsed_s"] = round(elapsed, 4)
    _RESULTS["paths"] = per_path
    _RESULTS["slo"] = verdict


def _side_by_side(rep: int) -> list:
    """Host seconds ``[bare, observed]`` of two fresh engines, one with
    the plane and one without, serving the same workload side by side.

    Each request goes to both engines back to back, and the side served
    first alternates by request and by rep, so a burst of host noise on
    a shared CI runner lands on both sides alike.  The heap
    is collected and frozen after set-up, so collector work left over
    from earlier reps never lands inside a timed request.
    """
    report.reset()
    bare = Engine(workload.PROGRAM, chaos=None, slo=None, recorder=None)
    observed = Engine(workload.PROGRAM, chaos=None)
    seconds = [0.0, 0.0]
    with bare.session("bench") as b, observed.session("bench") as o:
        sides = ((0, b), (1, o))
        gc.collect()
        gc.freeze()
        try:
            for i, request in enumerate(workload.generate(OVERHEAD_REQUESTS)):
                order = sides if (i + rep) % 2 else sides[::-1]
                for side, session in order:
                    t0 = time.perf_counter()
                    outcome = session.request(request.builder,
                                              request.builder_args,
                                              call_args=request.call_args)
                    seconds[side] += time.perf_counter() - t0
                    assert outcome.ok, outcome.error
        finally:
            gc.unfreeze()
    return seconds


def test_observability_overhead_within_ceiling():
    """The always-on plane (SLO windows, flight recorder, exemplars) vs
    the bare engine, pooled over :data:`OVERHEAD_REPS` side-by-side
    replays on fresh engines."""
    bare_s = observed_s = 0.0
    for rep in range(OVERHEAD_REPS):
        bare, observed = _side_by_side(rep)
        bare_s += bare
        observed_s += observed
    overhead = (observed_s - bare_s) / bare_s
    _RESULTS["overhead"] = {
        "requests_per_rep": OVERHEAD_REQUESTS,
        "reps": OVERHEAD_REPS,
        "bare_s": round(bare_s, 4),
        "observed_s": round(observed_s, 4),
        "overhead_pct": round(overhead * 100, 2),
        "ceiling_pct": OVERHEAD_CEILING * 100,
    }
    assert overhead <= OVERHEAD_CEILING, (
        f"observability overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_CEILING:.0%} ceiling "
        f"(bare {bare_s:.4f}s vs observed {observed_s:.4f}s)")


def test_write_bench_json():
    """Persist the run (executes after the cases above)."""
    assert "slo" in _RESULTS, "serving SLO benchmark did not run"
    assert "overhead" in _RESULTS, "overhead benchmark did not run"
    payload = dict(_RESULTS)
    payload["description"] = (
        "Latency-SLO serving benchmark: one session replays a "
        "deterministic heavy-tailed workload (hot/warm/cold signature "
        "mix) against the serving engine with the observability plane "
        "on.  Per-path p50/p95/p99 latency (host us + modeled cycles), "
        "throughput, the engine's SLO verdict (asserted OK on a clean "
        "replay), and the measured observability overhead vs a bare "
        "engine (two fresh engines serving the workload request by "
        "request, pooled over 10 reps, ceiling 5%)."
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert BENCH_PATH.exists()
