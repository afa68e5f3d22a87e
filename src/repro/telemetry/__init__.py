"""Unified observability for the dynamic-code lifecycle.

Three pieces (see docs/INTERNALS.md, "Telemetry"):

* :mod:`repro.telemetry.metrics` — the typed metrics registry
  (:data:`~repro.telemetry.metrics.REGISTRY`) behind every counter the
  system keeps, including the legacy ``repro.report`` accessors;
* :mod:`repro.telemetry.trace` — begin/end span tracing over the full
  lifecycle (static compile, specification, instantiation phases, cache
  hit/patch/miss, link/install, verification, execution, traps,
  fallbacks) on a modeled-cycles clock, with correlation ids tying a
  specialization to its installed code;
* :mod:`repro.telemetry.export` — JSONL, Chrome trace-event/Perfetto
  JSON, and a terminal summary; ``python -m repro.report trace`` drives
  them from the command line.

The knob: ``telemetry="off" | "on" | "sample:N"`` on
:class:`~repro.core.driver.TccCompiler`,
:meth:`~repro.core.driver.CompiledProgram.start` (which installs the
process's tracer on its machine) and
:func:`repro.apps.harness.measure`.  Default is **off** (hot paths pay
one attribute check); metrics are always on (they are cheap and the
``report`` accessors depend on them).
"""

from repro.telemetry.metrics import REGISTRY, MetricsRegistry
from repro.telemetry.trace import (
    NULL,
    Span,
    Tracer,
    activate,
    active,
    resolve_mode,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "NULL",
    "activate",
    "active",
    "resolve_mode",
]
