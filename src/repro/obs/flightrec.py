"""The black-box flight recorder: recent-request ring + trigger dumps.

A :class:`FlightRecorder` hangs off one serving
:class:`~repro.serving.engine.Engine` and keeps a bounded ring of request
rows — one per request (run or call) served by any session: the plain
dict ``Session.request`` builds once the outcome is known, plus the
recorder's ``index``.  The row is deliberately small (scalars and short
tuples: outcome, tier, serving path, retries, deadline budget/slack,
compile-rung transitions, chaos events, a correlation id, optionally a
truncated span tree when the session traces) and holds no exception or
traceback, so recording is always on and costs one deque append.

On a **trigger** — a circuit breaker opening, a trap-storm pin to the
reference stepper, a burst of deadline misses, a chaos poison, or an
explicit ``Engine.dump_blackbox()`` — the recorder snapshots a
self-contained diagnostic *bundle*: the trigger event, the retained
request rows, the trigger-event feed, the engine's SLO status, and the
global serving counters (:func:`repro.report.serving_stats`, the same
view ``Engine.stats()["serving"]`` returns).  ``$REPRO_BLACKBOX_DIR``
(or the ``dump_dir`` argument) makes every trigger also write the bundle
to disk as JSON plus a Chrome-trace rendering of the retained rows, so a
CI chaos failure ships its own post-mortem artifact.  Dump files rotate
(``blackbox-0..N``) so a trigger storm cannot fill the disk.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque

from repro import report
from repro.telemetry.metrics import REGISTRY, EventLog

#: Request records retained by default.
DEFAULT_CAPACITY = 256

#: The trigger-event feed keeps more history than the default event ring:
#: triggers are rare and each one is the index a post-mortem starts from.
EVENT_FEED_CAPACITY = 1024

#: Dump-file rotation depth per recorder.
MAX_DUMPS = 4

#: Deadline-burst trigger: this many deadline misses within the last
#: ``DEADLINE_BURST_WINDOW`` records.
DEADLINE_BURST = 3
DEADLINE_BURST_WINDOW = 16

#: Everything that can fire a bundle dump.
TRIGGER_KINDS = ("breaker_open", "trap_storm", "deadline_burst",
                 "chaos_poison", "manual")


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


class FlightRecorder:
    """The per-engine ring of recent requests plus the trigger machinery."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 dump_dir: str | None = None, name: str = "engine"):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._dump_seq = 0
        self._recent_deadline_misses: deque = deque(
            maxlen=DEADLINE_BURST_WINDOW)
        if dump_dir is None:
            dump_dir = os.environ.get("REPRO_BLACKBOX_DIR") or None
        self.dump_dir = dump_dir
        #: Optional zero-arg callable returning the owning engine's
        #: current :class:`~repro.obs.slo.SloStatus`; bundles include it.
        self.slo_source = None
        #: The shared trigger-event feed: a larger EventLog ring than the
        #: 256-entry default, registered so scrapes see trigger totals.
        self.events: EventLog = REGISTRY.events("obs.flightrec.events")
        if self.events.capacity < EVENT_FEED_CAPACITY:
            self.events.resize(EVENT_FEED_CAPACITY)
        self._dropped = REGISTRY.counter("obs.flightrec.dropped_records")
        self._triggers = REGISTRY.labeled("obs.flightrec.triggers",
                                          preset=TRIGGER_KINDS)
        from repro.obs import _track_for_reset
        _track_for_reset(self)

    # -- recording ----------------------------------------------------------

    def record(self, row: dict, triggers=()) -> None:
        """Keep one request row (``index`` added); fire any triggers.

        ``triggers`` carries the caller-detected trigger kinds (breaker
        opened during the request, chaos poison injected, ...); the
        recorder adds the deadline-burst detection itself.
        """
        with self._lock:
            self._seq += 1
            if len(self._records) == self._records.maxlen:
                self._dropped.inc()
            row = dict(row, index=self._seq)
            self._records.append(row)
            fired = list(triggers)
            missed = row["error"] == "DeadlineExceeded"
            self._recent_deadline_misses.append(missed)
            if missed and sum(self._recent_deadline_misses) >= DEADLINE_BURST:
                fired.append("deadline_burst")
                self._recent_deadline_misses.clear()
        for kind in fired:
            self.trigger(kind, row)

    def trigger(self, kind: str, row=None) -> dict:
        """Note one trigger event; dump a bundle when a dump dir is
        configured.  Returns the bundle."""
        if kind not in TRIGGER_KINDS:
            raise ValueError(f"unknown trigger kind {kind!r}")
        self._triggers.inc(kind)
        event = {
            "kind": kind,
            "index": row["index"] if row else self._seq,
            "correlation_id": row["correlation_id"] if row else None,
        }
        self.events.append(event)
        bundle = self.bundle(event)
        if self.dump_dir:
            self._write_dump(bundle)
        return bundle

    # -- bundles ------------------------------------------------------------

    def bundle(self, event=None) -> dict:
        """The self-contained post-mortem: trigger, retained rows, the
        trigger-event feed, SLO status, and serving counters.  ``event``
        is the trigger event :meth:`trigger` noted (default: a manual
        one at the latest row)."""
        with self._lock:
            records = list(self._records)
        out = {
            "recorder": self.name,
            "trigger": event or {"kind": "manual", "index": self._seq,
                                 "correlation_id": None},
            "capacity": self.capacity,
            "recorded_total": self._seq,
            "records": [_plain(row) for row in records],
            "events": self.events.snapshot(),
            "serving": report.serving_stats(),
        }
        if self.slo_source is not None:
            out["slo"] = self.slo_source().to_dict()
        return out

    def to_chrome_trace(self) -> dict:
        """The retained rows as a Chrome trace-event JSON object: one
        complete event per request on the host-time axis (µs), named by
        correlation id, error/degradation surfaced as args — load in
        Perfetto next to the bundle JSON."""
        with self._lock:
            records = list(self._records)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": f"flight recorder: {self.name}"}},
        ]
        cursor = 0.0
        tids = {}
        for row in records:
            tid = tids.setdefault(row["session"], len(tids) + 1)
            dur = max(float(row["wall_us"] or 1.0), 1.0)
            events.append({
                "name": f"{row['builder'] or 'call'} [{row['path']}]",
                "cat": "request" if row["ok"] else "request,error",
                "ph": "X", "ts": round(cursor, 1), "dur": round(dur, 1),
                "pid": 1, "tid": tid,
                "args": {
                    "correlation_id": row["correlation_id"],
                    "ok": row["ok"], "error": row["error"],
                    "tier": row["tier"], "path": row["path"],
                    "retries": row["retries"], "cycles": row["cycles"],
                    "rungs": repr(list(row["rungs"])),
                    "chaos": repr(list(row["chaos"])),
                },
            })
            cursor += dur
        for session, tid in sorted(tids.items()):
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": session}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def _write_dump(self, bundle: dict) -> None:
        try:
            os.makedirs(self.dump_dir, exist_ok=True)
            slot = self._dump_seq % MAX_DUMPS
            self._dump_seq += 1
            base = os.path.join(self.dump_dir, f"blackbox-{slot}")
            with open(base + ".json", "w") as fh:
                json.dump(bundle, fh, indent=1, sort_keys=True,
                          default=repr)
            with open(base + ".trace.json", "w") as fh:
                json.dump(self.to_chrome_trace(), fh, indent=1,
                          default=repr)
        except OSError:
            # The black box must never take the serving path down.
            pass

    # -- views / lifecycle ---------------------------------------------------

    def records(self) -> list:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def reset(self) -> None:
        """Clear the ring and burst window (trigger counters live in the
        registry and reset with it)."""
        with self._lock:
            self._records.clear()
            self._recent_deadline_misses.clear()
            self._seq = 0

    def __repr__(self) -> str:
        return (f"<FlightRecorder {self.name} "
                f"{len(self._records)}/{self.capacity} records>")
