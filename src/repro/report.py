"""Regenerate the paper's tables and figures from the reproduction.

Usage::

    python -m repro.report table1     # Table 1: codegen cycles/instruction
    python -m repro.report fig4       # Figure 4: static/dynamic run ratios
    python -m repro.report fig5       # Figure 5: cross-over points
    python -m repro.report fig6       # Figure 6: VCODE cost breakdown
    python -m repro.report fig7       # Figure 7: ICODE breakdown, LS vs GC
    python -m repro.report blur       # section 6.2 xv Blur case study
    python -m repro.report usedops    # section 5.2 pruned-emitter sizes
    python -m repro.report telemetry  # traced blur compile+run summary
    python -m repro.report hot        # hottest traces/superblocks (tiered)
    python -m repro.report cache      # code-cache stats (memory + disk)
    python -m repro.report analysis   # guard elision + factcheck stats
    python -m repro.report slo        # SLO burn-rate / error-budget status
    python -m repro.report all

Numbers are deterministic (simulated machine + modeled codegen cycles).

Statistics plumbing: every counter lives in the unified metrics registry
(:data:`repro.telemetry.metrics.REGISTRY`).  Each family (fallbacks,
specialization cache, block dispatch, tiering, verifier suite, analysis,
serving) has ``record_*`` helpers that write to it and a ``*_stats()``
accessor that returns a plain-dict snapshot; ``reset()`` zeroes them all.
"""

from __future__ import annotations

import sys

from repro.telemetry import metrics as _metrics

# The heavyweight repro.apps/analysis imports live inside the report
# functions: the driver imports this module at module level (for the
# fallback and cache counters), and the apps import the driver.

SERIES = [
    ("icode", "lcc"),
    ("icode", "gcc"),
    ("vcode", "lcc"),
    ("vcode", "gcc"),
]

_REGISTRY = _metrics.REGISTRY


# -- backend fallbacks --------------------------------------------------------

# Graceful-degradation counters, fed by
# :meth:`repro.core.driver.Process.compile_closure` whenever a failed
# ICODE instantiation is successfully retried on VCODE.  ``events`` holds
# the most recent ``(from_backend, to_backend, reason)`` tuples in
# occurrence order (bounded; ``count`` is always exact).
_FALLBACK_COUNT = _REGISTRY.counter("fallback.count")
#: Recent fallback events are retained up to a fixed cap (the count above
#: stays exact); unbounded growth in long-running processes was a bug.
_FALLBACK_EVENTS = _REGISTRY.events(
    "fallback.events", capacity=_metrics.DEFAULT_EVENT_CAPACITY)


def record_fallback(from_backend: str, to_backend: str, reason: str) -> None:
    """Record one successful backend fallback."""
    _FALLBACK_COUNT.inc()
    _FALLBACK_EVENTS.append((from_backend, to_backend, reason))


def fallback_count() -> int:
    return _FALLBACK_COUNT.value


def fallback_stats() -> dict:
    return {"count": _FALLBACK_COUNT.value, "events": list(_FALLBACK_EVENTS)}


# -- specialization cache -----------------------------------------------------

# Specialization-cache counters, fed by
# :meth:`repro.core.driver.Process.compile_closure`:
# Tier-1 memo hits, Tier-2 template patches, and cold misses, plus the
# modeled bytes patched and codegen cycles the cache avoided.
_CACHE_KEYS = ("hits", "misses", "patched", "patched_bytes", "cycles_saved")
_CACHE = {key: _REGISTRY.counter(f"cache.{key}") for key in _CACHE_KEYS}


def record_cache_hit(cycles_saved: int = 0) -> None:
    """Record one Tier-1 memo hit."""
    _CACHE["hits"].inc()
    _CACHE["cycles_saved"].inc(max(int(cycles_saved), 0))


def record_cache_patch(patched_bytes: int, cycles_saved: int = 0) -> None:
    """Record one Tier-2 template instantiation."""
    _CACHE["patched"].inc()
    _CACHE["patched_bytes"].inc(int(patched_bytes))
    _CACHE["cycles_saved"].inc(max(int(cycles_saved), 0))


def record_cache_miss() -> None:
    """Record one cold compile (cache enabled but no reuse possible)."""
    _CACHE["misses"].inc()


def cache_stats() -> dict:
    return {key: _CACHE[key].value for key in _CACHE_KEYS}


# -- dispatch engine ----------------------------------------------------------

# Block-tier counters, fed by :class:`repro.tiering.TieredEngine` and
# :func:`repro.target.dispatch.compile_block`: superblocks compiled,
# instructions predecoded into them, superinstruction pairs fused (by
# kind), block dispatches (each one a cache hit or a compile; trace runs
# count in ``tiering.trace_dispatches`` instead), block-cache hits, and
# blocks evicted by code-segment invalidation events.
_DISPATCH_KEYS = ("blocks_compiled", "instructions_predecoded",
                  "fused_pairs", "block_dispatches", "block_cache_hits",
                  "blocks_invalidated")
_DISPATCH = {key: _REGISTRY.counter(f"dispatch.{key}")
             for key in _DISPATCH_KEYS}
_FUSED_BY_KIND = _REGISTRY.labeled("dispatch.fused_by_kind")


def record_block_compiled(n_instructions: int, fused: dict) -> None:
    """Record one superblock compilation."""
    _DISPATCH["blocks_compiled"].inc()
    _DISPATCH["instructions_predecoded"].inc(int(n_instructions))
    for kind, count in fused.items():
        _DISPATCH["fused_pairs"].inc(count)
        _FUSED_BY_KIND.inc(kind, count)


def record_dispatch(dispatches: int, cache_hits: int) -> None:
    """Record one engine run's dispatch-loop totals."""
    _DISPATCH["block_dispatches"].inc(int(dispatches))
    _DISPATCH["block_cache_hits"].inc(int(cache_hits))


def record_block_invalidation(dropped: int) -> None:
    """Record blocks evicted by a segment rollback/fault event."""
    _DISPATCH["blocks_invalidated"].inc(int(dropped))


def dispatch_stats() -> dict:
    out = {key: _DISPATCH[key].value for key in _DISPATCH_KEYS}
    out["fused_by_kind"] = _FUSED_BY_KIND.snapshot()
    return out


# -- trace tier ---------------------------------------------------------------

# Trace-tier counters, fed by :class:`repro.tiering.TieredEngine`
# and the driver's adaptive-retier pass: traces promoted (with the
# superblocks and instructions they cover, plus a trace-length
# histogram and cross-seam fusion counts), trace-granular dispatches,
# deopts (poisoned traces evicted back to the block tier), traces
# dropped by invalidation/demotion, and VCODE->ICODE re-instantiations
# triggered by the Fig. 5 crossover.
_TIERING_KEYS = ("promotions", "trace_blocks", "trace_instructions",
                 "trace_dispatches", "deopts", "traces_invalidated",
                 "retier_promotions")
_TIERING = {key: _REGISTRY.counter(f"tiering.{key}")
            for key in _TIERING_KEYS}
_TIERING_FUSED = _REGISTRY.labeled("tiering.fused_by_kind")
_TRACE_LENGTH = _REGISTRY.histogram("tiering.trace_length",
                                    _metrics.INSTRUCTION_BOUNDS)


def record_promotion(n_blocks: int, n_instructions: int, fused: dict) -> None:
    """Record one superblock->trace promotion."""
    _TIERING["promotions"].inc()
    _TIERING["trace_blocks"].inc(int(n_blocks))
    _TIERING["trace_instructions"].inc(int(n_instructions))
    _TRACE_LENGTH.record(int(n_instructions))
    for kind, count in fused.items():
        _TIERING_FUSED.inc(kind, count)


def record_trace_dispatches(dispatches: int) -> None:
    """Record one engine run's trace-granular dispatch count."""
    _TIERING["trace_dispatches"].inc(int(dispatches))


def record_deopt() -> None:
    """Record one trace deopt (poisoned trace evicted mid-flight)."""
    _TIERING["deopts"].inc()


def record_trace_invalidation(dropped: int) -> None:
    """Record traces evicted by segment events or cache demotion."""
    _TIERING["traces_invalidated"].inc(int(dropped))


def record_retier() -> None:
    """Record one adaptive VCODE->ICODE re-instantiation."""
    _TIERING["retier_promotions"].inc()


def tiering_stats() -> dict:
    out = {key: _TIERING[key].value for key in _TIERING_KEYS}
    out["fused_by_kind"] = _TIERING_FUSED.snapshot()
    out["trace_length"] = _TRACE_LENGTH.snapshot()
    return out


# -- verifier suite -----------------------------------------------------------

# Verifier-suite counters, fed by :mod:`repro.verify`: total checks run,
# diagnostics raised per layer, and wall time spent inside the verifiers.
_VERIFY_LAYERS = ("ticklint", "ircheck", "regcheck", "codeaudit",
                  "factcheck")
_VERIFY_CHECKS = _REGISTRY.counter("verify.checks_run")
_VERIFY_DIAGNOSTICS = _REGISTRY.labeled("verify.diagnostics",
                                        preset=_VERIFY_LAYERS)
_VERIFY_SECONDS = _REGISTRY.counter("verify.time_seconds")


def record_verify(layer: str, n_diagnostics: int, seconds: float) -> None:
    """Record one verifier check (one layer invocation)."""
    _VERIFY_CHECKS.inc()
    _VERIFY_DIAGNOSTICS.inc(layer, int(n_diagnostics))
    _VERIFY_SECONDS.inc(float(seconds))


def verify_stats() -> dict:
    return {
        "checks_run": _VERIFY_CHECKS.value,
        "diagnostics": _VERIFY_DIAGNOSTICS.snapshot(),
        "time_seconds": float(_VERIFY_SECONDS.value),
    }


# -- static analysis / guard elision ------------------------------------------

# Static-analysis counters, fed by the ICODE backend and the install
# path: checks elided per fact kind (``elided_frame`` / ``elided_dup``
# / ``elided_const``), facts exported to the factcheck layer, branches
# folded by dataflow verdicts, template guards discharged by analysis
# facts, and facts demoted back to checked form when a template clone's
# new hole values break the proof.
_ANALYSIS_EVENTS = _REGISTRY.labeled("analysis.events")


def record_analysis(event: str, n: int = 1) -> None:
    """Record ``n`` occurrences of one analysis event."""
    _ANALYSIS_EVENTS.inc(event, int(n))


def analysis_stats() -> dict:
    return dict(_ANALYSIS_EVENTS.snapshot())


# -- serving engine -----------------------------------------------------------

# Serving-engine counters, fed by :mod:`repro.serving`: requests served,
# completions/failures, retry attempts, deadline misses, circuit-breaker
# opens, and requests served at a degraded rung (per tier name).
_SERVING_KEYS = ("requests", "completed", "failed", "retries",
                 "deadline_misses", "breaker_opens", "degraded")
_SERVING = {key: _REGISTRY.counter(f"serving.{key}")
            for key in _SERVING_KEYS}
_DEGRADED_BY_TIER = _REGISTRY.labeled("serving.degraded_by_tier")

# The serving record helpers accept the registry to write to: a session
# passes its per-session registry (rolled up into the global one when the
# session closes); None writes to the global registry directly.

def record_request(outcome: str, registry=None) -> None:
    """Record one serving request: ``outcome`` is "completed"/"failed"."""
    reg = registry or _REGISTRY
    reg.counter("serving.requests").inc()
    if outcome in ("completed", "failed"):
        reg.counter(f"serving.{outcome}").inc()


def record_retry(registry=None) -> None:
    (registry or _REGISTRY).counter("serving.retries").inc()


def record_deadline_miss(registry=None) -> None:
    (registry or _REGISTRY).counter("serving.deadline_misses").inc()


def record_breaker_open(registry=None) -> None:
    (registry or _REGISTRY).counter("serving.breaker_opens").inc()


def record_degraded(tier: str, registry=None) -> None:
    """Record one request served below the top rung of the ladder."""
    reg = registry or _REGISTRY
    reg.counter("serving.degraded").inc()
    reg.labeled("serving.degraded_by_tier").inc(tier)


def serving_stats() -> dict:
    out = {key: _SERVING[key].value for key in _SERVING_KEYS}
    out["degraded_by_tier"] = _DEGRADED_BY_TIER.snapshot()
    return out


#: Extra zero-arg callables run by :func:`reset` after the registry —
#: the observability plane registers one that clears live SLO windows
#: and flight-recorder rings (state that lives outside the registry).
_RESET_HOOKS: list = []


def register_reset_hook(hook) -> None:
    """Run ``hook()`` on every :func:`reset` (idempotent per callable)."""
    if hook not in _RESET_HOOKS:
        _RESET_HOOKS.append(hook)


def reset() -> None:
    """Reset every cross-process counter the registry accumulates —
    backend fallbacks, specialization-cache statistics, block-dispatch
    engine statistics, verifier statistics, serving-engine statistics,
    and the newer telemetry metrics (compile histograms, segment events,
    backend counters) — plus any registered reset hooks (live SLO
    windows, flight-recorder rings)."""
    _REGISTRY.reset()
    for hook in list(_RESET_HOOKS):
        hook()


def _series_results(app_names):
    from repro.apps import ALL_APPS
    from repro.apps.harness import measure

    out = {}
    for name in app_names:
        app = ALL_APPS[name]
        row = {}
        for backend, static_opt in SERIES:
            row[f"{backend}-{static_opt}"] = measure(
                app, backend=backend, static_opt=static_opt
            )
        out[name] = row
    return out


def report_table1() -> str:
    from repro.apps.table1 import table1

    lines = [
        "Table 1: code generation overhead, cycles per generated instruction",
        "(paper: VCODE 96.8-260.1, ICODE 1019.7-1261.9)",
        "",
        f"{'workload':40s} {'VCODE':>8s} {'ICODE':>9s} {'ratio':>6s}",
    ]
    for row, values in table1().items():
        ratio = values["icode"] / values["vcode"]
        lines.append(
            f"{row:40s} {values['vcode']:8.1f} {values['icode']:9.1f} "
            f"{ratio:6.1f}"
        )
    return "\n".join(lines)


def report_fig4(results=None) -> str:
    from repro.apps import FIGURE4_APPS

    results = results or _series_results(FIGURE4_APPS)
    names = list(results)
    lines = [
        "Figure 4: run-time ratio (static time / dynamic time); >1 means",
        "dynamic code generation produced faster code",
        "",
        f"{'benchmark':8s} " + " ".join(f"{b}-{s:>3s}".rjust(10)
                                        for b, s in SERIES),
    ]
    for name in names:
        row = results[name]
        cells = " ".join(
            f"{row[f'{b}-{s}'].speedup:10.2f}" for b, s in SERIES
        )
        lines.append(f"{name:8s} {cells}")
    return "\n".join(lines)


def report_fig5(results=None) -> str:
    from repro.apps import FIGURE4_APPS

    results = results or _series_results(FIGURE4_APPS)
    lines = [
        "Figure 5: cross-over point (runs needed to amortize dynamic",
        "compilation); '-' means dynamic code never pays for itself",
        "",
        f"{'benchmark':8s} " + " ".join(f"{b}-{s:>3s}".rjust(10)
                                        for b, s in SERIES),
    ]
    for name, row in results.items():
        cells = []
        for b, s in SERIES:
            x = row[f"{b}-{s}"].crossover
            cells.append(f"{'-' if x is None else x:>10}")
        lines.append(f"{name:8s} " + " ".join(cells))
    return "\n".join(lines)


def report_fig6() -> str:
    from repro.apps import ALL_APPS, FIGURE4_APPS
    from repro.apps.harness import measure

    lines = [
        "Figure 6: VCODE dynamic compilation cost breakdown",
        "(cycles per generated instruction; paper band: 100-500,",
        " emission dominant, closure cost negligible)",
        "",
        f"{'benchmark':8s} {'total':>7s} {'closure':>8s} {'emit':>7s} "
        f"{'link':>6s}",
    ]
    for name in FIGURE4_APPS:
        r = measure(ALL_APPS[name], backend="vcode")
        pb = r.phase_breakdown
        lines.append(
            f"{name:8s} {r.cycles_per_instruction:7.1f} "
            f"{pb.get('closure', 0):8.1f} {pb.get('emit', 0):7.1f} "
            f"{pb.get('link', 0):6.1f}"
        )
    return "\n".join(lines)


def report_fig7() -> str:
    from repro.apps import ALL_APPS, FIGURE4_APPS
    from repro.apps.harness import measure

    lines = [
        "Figure 7: ICODE cost breakdown, linear scan (LS) vs graph",
        "coloring (GC) register allocation (cycles per generated",
        "instruction; paper band: 1000-2500, 70-80% in allocation work)",
        "",
        f"{'benchmark':8s} {'alloc':>5s} {'total':>8s} {'closure':>8s} "
        f"{'ir':>7s} {'fg':>6s} {'live':>7s} {'intrv':>7s} {'alloc':>8s} "
        f"{'xlate':>7s}",
    ]
    for name in FIGURE4_APPS:
        for regalloc, tag in (("linear", "LS"), ("color", "GC")):
            r = measure(ALL_APPS[name], backend="icode", regalloc=regalloc)
            pb = r.phase_breakdown
            lines.append(
                f"{name:8s} {tag:>5s} {r.cycles_per_instruction:8.1f} "
                f"{pb.get('closure', 0):8.1f} {pb.get('ir', 0):7.1f} "
                f"{pb.get('flowgraph', 0):6.1f} {pb.get('liveness', 0):7.1f} "
                f"{pb.get('intervals', 0):7.1f} {pb.get('regalloc', 0):8.1f} "
                f"{pb.get('translate', 0):7.1f}"
            )
    return "\n".join(lines)


def report_blur() -> str:
    from repro.apps import ALL_APPS, blur_app
    from repro.apps.harness import measure

    r_lcc = measure(ALL_APPS["blur"], backend="icode", static_opt="lcc")
    r_gcc = measure(ALL_APPS["blur"], backend="icode", static_opt="gcc")
    lines = [
        "xv Blur case study (section 6.2); paper: dynamic 1.08s vs lcc",
        "1.96s (1.8x) and gcc 1.04s (~1x), codegen 0.01s",
        "",
        f"image {blur_app.WIDTH}x{blur_app.HEIGHT}, kernel "
        f"{blur_app.KSIZE}x{blur_app.KSIZE}",
        f"dynamic (ICODE):       {r_lcc.dynamic_cycles:>12d} cycles",
        f"static lcc-level:      {r_lcc.static_cycles:>12d} cycles "
        f"(ratio {r_lcc.speedup:.2f})",
        f"static gcc-level:      {r_gcc.static_cycles:>12d} cycles "
        f"(ratio {r_gcc.speedup:.2f})",
        f"dynamic compile cost:  {r_lcc.codegen_cycles:>12d} cycles "
        f"({100 * r_lcc.codegen_cycles / max(r_lcc.dynamic_cycles, 1):.1f}% "
        "of one run)",
    ]
    return "\n".join(lines)


def report_usedops() -> str:
    from repro.analysis import collect_used_ops
    from repro.apps import ALL_APPS
    from repro.core.driver import TccCompiler

    tcc = TccCompiler()
    lines = [
        "Link-time ICODE-emitter pruning (section 5.2); paper: 'cuts the",
        "size of the ICODE library by up to an order of magnitude'",
        "",
        f"{'program':8s} {'used ops':>9s} {'full size':>10s} "
        f"{'pruned':>8s} {'factor':>7s}",
    ]
    for name, app in ALL_APPS.items():
        report = collect_used_ops(tcc.compile(app.source))
        lines.append(
            f"{name:8s} {report.used_count:9d} {report.full_size:10d} "
            f"{report.pruned_size:8d} {report.reduction_factor:6.1f}x"
        )
    return "\n".join(lines)


def report_telemetry() -> str:
    from repro.apps import ALL_APPS
    from repro.apps.harness import measure
    from repro.telemetry import export

    result = measure(ALL_APPS["blur"], backend="icode", telemetry="on")
    lines = [
        "Telemetry: one traced blur compile+run (export a Perfetto trace",
        "with `python -m repro.telemetry blur -f chrome -o blur.json`)",
        "",
        export.summary(result.tracer),
    ]
    return "\n".join(lines)


def report_hot(top: int = 10) -> str:
    from repro.apps import ALL_APPS
    from repro.apps.harness import measure

    result = measure(ALL_APPS["blur"], backend="icode", engine="tiered")
    rows = result.hot_profile or []
    lines = [
        "Hottest execution units (tiered engine, one blur run): traces",
        "formed by profile-guided promotion plus remaining superblocks,",
        "ranked by dispatch count and cumulative modeled cycles",
        "",
        f"{'rank':>4s} {'pc':>6s} {'kind':6s} {'dispatches':>10s} "
        f"{'blocks':>6s} {'instrs':>6s} {'cycles':>12s}",
    ]
    for rank, row in enumerate(rows[:top], start=1):
        lines.append(
            f"{rank:4d} {row['pc']:6d} {row['kind']:6s} "
            f"{row['dispatches']:10d} {row['blocks']:6d} "
            f"{row['instructions']:6d} {row['cycles']:12d}"
        )
    if not rows:
        lines.append("(no units dispatched)")
    stats = tiering_stats()
    lines.append("")
    lines.append(
        f"promotions {stats['promotions']}, trace dispatches "
        f"{stats['trace_dispatches']}, deopts {stats['deopts']}"
    )
    return "\n".join(lines)


def report_cache() -> str:
    """Code cache stats: the in-memory tiers plus the persistent disk
    tier (entries/bytes/hit ratios/evictions).  Reads live counters
    only — safe to run inside a serving process or after the fact."""
    import os

    # Importing the disk tier registers its metrics (zeroed when the
    # process never touched disk), so the report shape is stable.
    from repro import persist  # noqa: F401  (metric registration)

    stats = cache_stats()
    reuse = stats["hits"] + stats["patched"]
    probes = reuse + stats["misses"]
    mem_ratio = reuse / probes if probes else 0.0
    poisoned = _REGISTRY.counter("cache.poisoned_evictions").value
    invalidated = _REGISTRY.counter("cache.invalidated").value
    disk = {key: _REGISTRY.counter(f"cache.disk.{key}").value
            for key in ("hits", "misses", "loads", "evictions", "rejects")}
    disk_probes = disk["hits"] + disk["misses"]
    disk_ratio = disk["hits"] / disk_probes if disk_probes else 0.0
    lines = [
        "Code cache: in-memory tiers (Tier-1 memo + Tier-2 templates)",
        "plus the persistent disk tier (repro.persist)",
        "",
        f"{'tier':10s} {'hits':>8s} {'misses':>8s} {'evictions':>9s} "
        f"{'hit ratio':>9s}",
        f"{'in-memory':10s} {reuse:8d} {stats['misses']:8d} "
        f"{invalidated + poisoned:9d} {mem_ratio:9.2f}",
        f"{'disk':10s} {disk['hits']:8d} {disk['misses']:8d} "
        f"{disk['evictions']:9d} {disk_ratio:9.2f}",
        "",
        f"in-memory: {stats['hits']} memo hits, {stats['patched']} template "
        f"clones ({stats['patched_bytes']} bytes patched), "
        f"{stats['cycles_saved']} modeled cycles saved, "
        f"{poisoned} poisoned evictions",
        f"disk: {disk['loads']} templates deserialized, "
        f"{disk['rejects']} rejected (corrupt/tampered)",
    ]
    hist = _REGISTRY.get("cache.disk.load_us")
    if hist is not None and hist.count:
        lines.append(
            f"disk load latency: p50 {hist.percentile(0.5):.0f} us, "
            f"p99 {hist.percentile(0.99):.0f} us over {hist.count} loads"
        )
    root = os.environ.get("REPRO_CODECACHE_DIR")
    if root:
        entries, total = persist.scan_dir(root)
        lines.append(f"disk dir {root}: {entries} entries, {total} bytes")
    return "\n".join(lines)


def report_analysis() -> str:
    """Static-analysis stats: checks elided per fact kind, branches
    folded by dataflow verdicts, guards discharged at template-store
    time, clone-time fact demotions, and the factcheck layer's
    pass/fail totals.  Reads live counters only."""
    stats = analysis_stats()
    elided = {kind: stats.get(f"elided_{kind}", 0)
              for kind in ("frame", "dup", "const")}
    verify = verify_stats()
    fact_diags = verify["diagnostics"].get("factcheck", 0)
    lines = [
        "Static analysis: proof-carrying guard elision "
        "(repro.analysis.dataflow)",
        "",
        f"{'fact kind':10s} {'checks elided':>13s}",
        f"{'frame':10s} {elided['frame']:13d}",
        f"{'dup':10s} {elided['dup']:13d}",
        f"{'const':10s} {elided['const']:13d}",
        f"{'total':10s} {sum(elided.values()):13d}",
        "",
        f"facts exported to factcheck: {stats.get('facts_exported', 0)}",
        f"branches folded by interval verdicts: "
        f"{stats.get('branches_folded', 0)}",
        f"template guards discharged at store: "
        f"{stats.get('guards_discharged', 0)}",
        f"facts demoted on clone revalidation: "
        f"{stats.get('facts_demoted', 0)}",
        "",
        f"factcheck: {verify['checks_run']} verifier checks run "
        f"(all layers), {fact_diags} factcheck diagnostics",
    ]
    if not any(stats.values()):
        lines.append("(analysis off — set REPRO_ANALYSIS=1 or "
                     "options={'analysis': 'on'})")
    return "\n".join(lines)


def report_slo() -> str:
    """SLO status: the attached serving engine's live burn-rate view
    when one exists, else the default policy evaluated from the
    registry's latency histograms and serving counters."""
    from repro.obs import server
    from repro.obs.slo import default_policy, evaluate_registry

    engine = server.attached()
    slo = getattr(engine, "slo", None) if engine is not None else None
    if slo is not None:
        status = slo.status()
        source = f"live engine ({slo.policy.name} policy)"
    else:
        status = evaluate_registry(default_policy())
        source = "registry histograms (default policy)"
    lines = [
        "Serving SLOs: error budgets and multi-window burn rates",
        f"source: {source}",
        "",
        f"verdict: {'OK' if status.ok else 'BREACHED'} "
        f"(worst alert: {status.worst()}, observed {status.observed})",
        "",
        f"{'objective':18s} {'alert':>9s} {'viol':>6s} {'total':>7s} "
        f"{'burn fast':>9s} {'burn slow':>9s} {'budget left':>11s}",
    ]
    for s in status.statuses:
        lines.append(
            f"{s.objective.name:18s} {s.alert:>9s} {s.violations:6d} "
            f"{s.total:7d} {s.burn_fast:9.2f} {s.burn_slow:9.2f} "
            f"{s.budget_remaining:10.1%}"
        )
    if status.exhausted:
        lines.append("")
        lines.append("(!) budget exhausted: " + ", ".join(status.exhausted))
    return "\n".join(lines)


REPORTS = {
    "table1": report_table1,
    "fig4": report_fig4,
    "fig5": report_fig5,
    "fig6": report_fig6,
    "fig7": report_fig7,
    "blur": report_blur,
    "usedops": report_usedops,
    "telemetry": report_telemetry,
    "hot": report_hot,
    "cache": report_cache,
    "analysis": report_analysis,
    "slo": report_slo,
}


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if not argv or argv[0] not in set(REPORTS) | {"all"}:
        print(__doc__)
        return 1
    if argv[0] == "all":
        from repro.apps import FIGURE4_APPS

        shared = _series_results(FIGURE4_APPS)
        print(report_table1())
        print()
        print(report_fig4(shared))
        print()
        print(report_fig5(shared))
        print()
        print(report_fig6())
        print()
        print(report_fig7())
        print()
        print(report_blur())
        print()
        print(report_usedops())
        print()
        print(report_telemetry())
        print()
        print(report_hot())
        print()
        print(report_cache())
        return 0
    print(REPORTS[argv[0]]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
