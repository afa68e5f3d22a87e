"""The serving observability plane.

Always-on, near-zero-overhead introspection for the serving engine,
four pillars in one package:

:mod:`repro.obs.slo`
    declarative latency/availability objectives with windowed error
    budgets and multi-window burn-rate alerts (:class:`SloEngine`),
    scored live over each serving engine's request stream (runs and
    calls alike; a call compiles nothing, so only availability
    objectives score it);
:mod:`repro.obs.flightrec`
    the black-box flight recorder — a bounded ring of the rows
    ``Session.request`` builds, one per run or call served, that dumps
    a self-contained diagnostic bundle (JSON + Chrome trace) when a
    breaker opens, traps storm, deadlines burst, chaos poisons a
    template, or ``Engine.dump_blackbox()`` is called;
:mod:`repro.obs.openmetrics`
    OpenMetrics text exposition of the whole metrics registry (with
    per-bucket exemplars carrying request correlation ids) plus a
    parser/validator tests round-trip every scrape through;
:mod:`repro.obs.server`
    the stdlib HTTP endpoint (``/metrics`` ``/healthz`` ``/slo``
    ``/blackbox``) behind ``python -m repro.report serve``.

``repro.report.reset()`` clears the plane too: every live
:class:`SloEngine` and :class:`FlightRecorder` registers itself here (a
weak set — observability must never keep an engine alive) and a reset
hook wipes their windows and rings alongside the registry.
"""

from __future__ import annotations

import weakref

from repro import report as _report
from repro.obs.flightrec import FlightRecorder
from repro.obs.openmetrics import CONTENT_TYPE, parse, render, validate
from repro.obs.server import ObsServer, attach, attached, slo_status
from repro.obs.slo import (
    SloEngine,
    SloObjective,
    SloPolicy,
    SloStatus,
    default_policy,
)

__all__ = [
    "SloObjective", "SloPolicy", "SloEngine", "SloStatus",
    "default_policy",
    "FlightRecorder",
    "render", "parse", "validate", "CONTENT_TYPE",
    "ObsServer", "attach", "attached", "slo_status",
]

#: Live SLO engines and flight recorders, tracked weakly so
#: ``report.reset()`` can clear their out-of-registry state.
_LIVE = weakref.WeakSet()


def _track_for_reset(obj) -> None:
    """Called by SloEngine/FlightRecorder constructors."""
    _LIVE.add(obj)


def _reset_all() -> None:
    for obj in list(_LIVE):
        obj.reset()


_report.register_reset_hook(_reset_all)
