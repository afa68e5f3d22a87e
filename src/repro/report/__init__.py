"""Cross-process counters behind the paper's reports.

Every counter lives in the unified metrics registry
(:data:`repro.telemetry.metrics.REGISTRY`).  Each family (fallbacks,
specialization cache, block dispatch, tiering, verifier suite, analysis,
serving) has ``record_*`` helpers that write to it and a ``*_stats()``
accessor that returns a plain-dict snapshot; ``reset()`` zeroes them all.

The driver, the engines, the serving plane and the verifiers import this
module to record.  The reports and their CLI live in
:mod:`repro.report.__main__` (``python -m repro.report``), which imports
all of those in turn.
"""

from __future__ import annotations

from repro.telemetry import metrics as _metrics

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
# instructions predecoded into them, block dispatches (each one a cache
# hit or a compile; trace runs count in ``tiering.trace_dispatches``
# instead), block-cache hits, and blocks evicted by code-segment
# invalidation events.
_DISPATCH_KEYS = ("blocks_compiled", "instructions_predecoded",
                  "block_dispatches", "block_cache_hits",
                  "blocks_invalidated")
_DISPATCH = {key: _REGISTRY.counter(f"dispatch.{key}")
             for key in _DISPATCH_KEYS}


def record_block_compiled(n_instructions: int) -> None:
    """Record one superblock compilation."""
    _DISPATCH["blocks_compiled"].inc()
    _DISPATCH["instructions_predecoded"].inc(int(n_instructions))


def record_dispatch(dispatches: int, cache_hits: int) -> None:
    """Record one engine run's dispatch-loop totals."""
    _DISPATCH["block_dispatches"].inc(int(dispatches))
    _DISPATCH["block_cache_hits"].inc(int(cache_hits))


def record_block_invalidation(dropped: int) -> None:
    """Record blocks evicted by a segment rollback/fault event."""
    _DISPATCH["blocks_invalidated"].inc(int(dropped))


def dispatch_stats() -> dict:
    return {key: _DISPATCH[key].value for key in _DISPATCH_KEYS}


# -- trace tier ---------------------------------------------------------------

# Trace-tier counters, fed by :class:`repro.tiering.TieredEngine`
# and the driver's adaptive-retier pass: traces promoted (with the
# superblocks and instructions they cover, plus a trace-length
# histogram), trace-granular dispatches, deopts (poisoned traces
# evicted back to the block tier), traces dropped by
# invalidation/demotion, and VCODE->ICODE re-instantiations triggered
# by the Fig. 5 crossover.
_TIERING_KEYS = ("promotions", "trace_blocks", "trace_instructions",
                 "trace_dispatches", "deopts", "traces_invalidated",
                 "retier_promotions")
_TIERING = {key: _REGISTRY.counter(f"tiering.{key}")
            for key in _TIERING_KEYS}
_TRACE_LENGTH = _REGISTRY.histogram("tiering.trace_length",
                                    _metrics.INSTRUCTION_BOUNDS)


def record_promotion(n_blocks: int, n_instructions: int) -> None:
    """Record one superblock->trace promotion."""
    _TIERING["promotions"].inc()
    _TIERING["trace_blocks"].inc(int(n_blocks))
    _TIERING["trace_instructions"].inc(int(n_instructions))
    _TRACE_LENGTH.record(int(n_instructions))


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
