"""Latency-SLO serving benchmark.

One session replays the deterministic heavy-tailed workload
(:mod:`repro.obs.workload` — a hot set of repeated signatures, a warm
Zipf band, a never-repeating cold tail) against a serving engine with
the observability plane on, and records per-path latency percentiles
(host µs and modeled cycles), throughput, and the engine's own SLO
verdict — the benchmark *asserts* the verdict, so a latency regression
that burns an error budget fails here before any dashboard would page.

A second, interleaved best-of-5 pass prices the plane itself: the same
workload with SLO tracking + flight recorder + exemplars on vs
constructed off.  The observability overhead must stay within
:data:`OVERHEAD_CEILING` of the bare engine.

Results go to ``BENCH_serving.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import Engine, report
from repro.obs import workload

BENCH_PATH = Path(__file__).parent.parent / "BENCH_serving.json"

N_REQUESTS = 400          # the instrumented percentile run
OVERHEAD_REQUESTS = 150   # per overhead repetition
OVERHEAD_REPS = 5         # interleaved best-of-5
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


def test_observability_overhead_within_ceiling():
    """Interleaved best-of-5: the always-on plane (SLO windows, flight
    recorder, exemplars) vs the bare engine on identical fresh-engine
    replays.  Best-of minimizes shared-runner noise; interleaving keeps
    thermal/cache drift from biasing either side."""
    bare, full = [], []
    for rep in range(OVERHEAD_REPS):
        report.reset()
        engine = Engine(workload.PROGRAM, chaos=None,
                        slo=None, recorder=None)
        bare.append(_replay(engine, OVERHEAD_REQUESTS)[0])
        report.reset()
        engine = Engine(workload.PROGRAM, chaos=None)
        full.append(_replay(engine, OVERHEAD_REQUESTS)[0])
    best_bare, best_full = min(bare), min(full)
    overhead = (best_full - best_bare) / best_bare
    _RESULTS["overhead"] = {
        "requests_per_rep": OVERHEAD_REQUESTS,
        "reps": OVERHEAD_REPS,
        "bare_best_s": round(best_bare, 4),
        "observed_best_s": round(best_full, 4),
        "overhead_pct": round(overhead * 100, 2),
        "ceiling_pct": OVERHEAD_CEILING * 100,
    }
    assert overhead <= OVERHEAD_CEILING, (
        f"observability overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_CEILING:.0%} ceiling "
        f"(bare {best_bare:.4f}s vs observed {best_full:.4f}s)")


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
        "engine (interleaved best-of-5, ceiling 5%)."
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert BENCH_PATH.exists()
