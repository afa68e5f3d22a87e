"""Trace and metrics exporters: JSONL, Chrome trace-event JSON, terminal.

The Chrome format is the trace-event "JSON object format" understood by
``chrome://tracing`` and by Perfetto's legacy-trace importer: a
``traceEvents`` list of complete (``"ph": "X"``) and instant (``"i"``)
events plus metadata naming the process/thread.  Timestamps are the
tracer's modeled-cycle cursor, surfaced as microseconds — i.e. one
trace-viewer "µs" is one modeled cycle — so the viewer's rulers read
directly in the paper's unit.
"""

from __future__ import annotations

import json

from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import Span, Tracer

#: pid/tid the single modeled timeline is published under.
TRACE_PID = 1
TRACE_TID = 1


def _spans_of(source) -> list:
    if isinstance(source, Tracer):
        return list(source.spans)
    return [s for s in source if isinstance(s, Span)]


def to_jsonl(source) -> str:
    """One JSON object per line: every span, then one ``{"metrics": ...}``
    record with the registry snapshot."""
    lines = [json.dumps(span.to_dict(), sort_keys=True, default=repr)
             for span in _spans_of(source)]
    lines.append(json.dumps({"metrics": REGISTRY.snapshot()},
                            sort_keys=True, default=repr))
    return "\n".join(lines) + "\n"


def chrome_trace(source, title: str = "tcc repro") -> dict:
    """The trace as a Chrome trace-event JSON object (Perfetto-loadable).

    Modeled cycles are the clock: ``ts``/``dur`` are cycle counts
    surfaced in the format's microsecond field.
    """
    events = [
        {"name": "process_name", "ph": "M", "pid": TRACE_PID,
         "args": {"name": f"{title} (1 us = 1 modeled cycle)"}},
        {"name": "thread_name", "ph": "M", "pid": TRACE_PID,
         "tid": TRACE_TID, "args": {"name": "dynamic-code lifecycle"}},
    ]
    for span in _spans_of(source):
        args = {k: v for k, v in span.args.items()
                if isinstance(v, (int, float, str, bool)) or v is None}
        if span.dur == 0 and span.cat in ("event", "verify"):
            events.append({
                "name": span.name, "cat": span.cat, "ph": "i", "s": "t",
                "ts": span.ts, "pid": TRACE_PID, "tid": TRACE_TID,
                "args": args,
            })
        else:
            events.append({
                "name": span.name, "cat": span.cat, "ph": "X",
                "ts": span.ts, "dur": span.dur,
                "pid": TRACE_PID, "tid": TRACE_TID, "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "modeled cycles",
                      "metrics": REGISTRY.snapshot()},
    }


def write_chrome_trace(source, path, title: str = "tcc repro") -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(source, title), fh, indent=1, default=repr)


def summary(source) -> str:
    """A terminal summary: spans grouped by category, then key metrics."""
    spans = _spans_of(source)
    by_cat: dict = {}
    for span in spans:
        count, cycles = by_cat.get(span.cat, (0, 0))
        by_cat[span.cat] = (count + 1, cycles + span.dur)

    lines = ["Telemetry summary", ""]
    lines.append(f"{'category':10s} {'spans':>7s} {'modeled cycles':>15s}")
    for cat in sorted(by_cat):
        count, cycles = by_cat[cat]
        lines.append(f"{cat:10s} {count:7d} {cycles:15d}")
    total_cycles = max((s.end for s in spans), default=0)
    lines.append(f"{'timeline':10s} {len(spans):7d} {total_cycles:15d}")
    dropped = getattr(source, "dropped", 0)
    if dropped:
        lines.append(f"(!) {dropped} spans dropped past the "
                     f"{Tracer.MAX_SPANS}-span retention cap")

    interesting = [name for name in REGISTRY.names()
                   if not name.startswith("segment.")]
    if interesting:
        lines.append("")
        lines.append(f"{'metric':34s} {'value':>12s}")
        for name in interesting:
            metric = REGISTRY.get(name)
            snap = metric.snapshot()
            if isinstance(snap, dict):
                if "count" in snap:          # histogram
                    mean = snap["sum"] / snap["count"] if snap["count"] \
                        else 0.0
                    cell = f"n={snap['count']} mean={mean:.0f}"
                elif "total" in snap:        # event log
                    cell = f"{snap['total']} ({snap['dropped']} dropped)"
                else:                        # labeled counter
                    cell = " ".join(f"{k}={v}" for k, v in
                                    sorted(snap.items())) or "0"
                lines.append(f"{name:34s} {cell:>12s}")
            else:
                if isinstance(snap, float):
                    cell = f"{snap:.6f}"
                else:
                    cell = str(snap)
                lines.append(f"{name:34s} {cell:>12s}")
    return "\n".join(lines)
