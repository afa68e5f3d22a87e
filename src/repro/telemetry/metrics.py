"""The metrics registry: typed counters, histograms, event logs.

One process-wide :data:`REGISTRY` absorbs the ad-hoc module-level stats
dicts that grew in :mod:`repro.report` over PRs 1-4 (fallbacks, the
specialization cache, the dispatch engine, the verifier suite).
The legacy accessors in ``report`` are thin views over these metrics, so
nothing downstream had to change; new subsystems register metrics here
directly.

Metric types
------------

``Counter``
    a monotonically increasing number (int or float); ``reset()`` zeroes.
``LabeledCounter``
    a family of counters keyed by a string label (verifier diagnostics
    per layer, serving requests degraded per tier).  ``preset`` labels
    survive a reset at zero, matching the legacy dict shapes.
``Histogram``
    fixed-boundary distribution; records count/sum/min/max plus one
    bucket per boundary (bucket *i* counts values <= ``bounds[i]``, the
    last bucket is the overflow).
``EventLog``
    a bounded ring of recent events with an *exact* total count — the
    fix for the backend-fallback event list growing without bound in
    long-running processes.

This module is intentionally a leaf: it imports nothing from the rest of
the package, so every layer (target machine, back ends, verifier, driver,
report) can feed it without cycles.

Thread safety: every mutation and snapshot goes through one module lock
(:data:`_LOCK`).  Plain ``value += n`` is not atomic in Python (the
read-modify-write interleaves at bytecode granularity), so concurrent
serving sessions hammering the shared :data:`REGISTRY` would drop
increments without it.  The lock is uncontended in single-threaded use
and all call sites are per-compile / per-run / per-request granularity,
so the cost is noise.  Serving sessions (see :mod:`repro.serving`) write
the shared :data:`REGISTRY` directly, so a scrape sees every request as
it is served.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager

#: One lock for every metric mutation/snapshot in the process.  Metric
#: operations are tiny, so sharing one lock beats per-object locks on
#: memory and can never deadlock on lock order.
_LOCK = threading.RLock()

#: Retained-event cap for bounded event logs.  The total stays exact;
#: only the per-event detail beyond the cap is dropped (oldest first).
DEFAULT_EVENT_CAPACITY = 256

#: Histogram boundaries for modeled codegen cycles per compile().
CYCLE_BOUNDS = (100, 300, 1_000, 3_000, 10_000, 30_000,
                100_000, 300_000, 1_000_000)

#: Histogram boundaries for generated instructions per compile().
INSTRUCTION_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: The compile() outcome classes whose latency distributions we keep
#: apart: a Tier-1 memo hit, a Tier-2 template patch, a cold build, the
#: legacy ICODE->VCODE fallback, a compile served at a degraded rung
#: of the serving ladder (see :mod:`repro.serving.breaker`), and an
#: adaptive VCODE->ICODE re-instantiation (see "retier" in
#: :mod:`repro.core.driver`).
COMPILE_PATHS = ("hit", "patched", "cold", "fallback", "degrade", "retier")

#: Thread-local exemplar correlation context.  While a trace id is set
#: (the serving session sets its request correlation id), histograms
#: attach it to the bucket each recorded value lands in, so an
#: OpenMetrics scrape can link a latency bucket back to one concrete
#: request in the flight recorder (see :mod:`repro.obs`).
_EXEMPLAR_TLS = threading.local()


@contextmanager
def exemplar_context(trace_id: str):
    """Attach ``trace_id`` to every histogram value recorded on this
    thread for the dynamic extent (nesting restores the outer id)."""
    previous = getattr(_EXEMPLAR_TLS, "trace_id", None)
    _EXEMPLAR_TLS.trace_id = trace_id
    try:
        yield
    finally:
        _EXEMPLAR_TLS.trace_id = previous


def current_exemplar():
    """The calling thread's exemplar trace id, or None."""
    return getattr(_EXEMPLAR_TLS, "trace_id", None)


class Counter:
    """A monotonically increasing count (int or float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n=1) -> None:
        with _LOCK:
            self.value += n

    def reset(self) -> None:
        with _LOCK:
            self.value = 0

    def snapshot(self):
        return self.value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class LabeledCounter:
    """A family of counters keyed by a string label.

    ``preset`` labels are created at zero and survive :meth:`reset`, so
    views that promise a fixed key set (e.g. the verifier's four layers)
    keep their shape.
    """

    __slots__ = ("name", "preset", "values")

    def __init__(self, name: str, preset=()):
        self.name = name
        self.preset = tuple(preset)
        self.values = {label: 0 for label in self.preset}

    def inc(self, label: str, n=1) -> None:
        with _LOCK:
            self.values[label] = self.values.get(label, 0) + n

    def reset(self) -> None:
        with _LOCK:
            self.values = {label: 0 for label in self.preset}

    def snapshot(self) -> dict:
        with _LOCK:
            return dict(self.values)

    def __repr__(self) -> str:
        return f"<LabeledCounter {self.name} {self.values}>"


class Histogram:
    """A fixed-boundary distribution with count/sum/min/max.

    When a thread-local :func:`exemplar_context` is active, each
    recorded value also stores ``(value, trace_id)`` as the *exemplar*
    of the bucket it landed in (last write wins), surfaced by the
    OpenMetrics exporter next to the bucket's cumulative count.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total",
                 "min", "max", "exemplars")

    def __init__(self, name: str, bounds):
        self.name = name
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds}")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.exemplars: dict = {}

    def record(self, value) -> None:
        with _LOCK:
            index = bisect_left(self.bounds, value)
            self.buckets[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            trace_id = getattr(_EXEMPLAR_TLS, "trace_id", None)
            if trace_id is not None:
                self.exemplars[index] = (value, trace_id)

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float):
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Returns the upper bound of the bucket containing the quantile
        rank (the overflow bucket reports the recorded max), or None when
        the histogram is empty.  The edges are exact rather than bucket
        estimates: ``q=0`` is the recorded min, ``q=1`` the recorded max,
        and a single-sample histogram reports that sample (its min) for
        every quantile.  Values of ``q`` outside ``[0, 1]`` raise
        ``ValueError``.  Coarse by construction otherwise — exact enough
        for p50/p99 reporting against fixed bounds.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with _LOCK:
            if not self.count:
                return None
            if q == 0 or self.count == 1:
                return self.min
            if q == 1:
                return self.max
            rank = q * self.count
            seen = 0
            for i, n in enumerate(self.buckets):
                seen += n
                if seen >= rank:
                    if i < len(self.bounds):
                        return self.bounds[i]
                    return self.max
            return self.max

    def reset(self) -> None:
        with _LOCK:
            self.buckets = [0] * (len(self.bounds) + 1)
            self.count = 0
            self.total = 0
            self.min = None
            self.max = None
            self.exemplars = {}

    def snapshot(self) -> dict:
        with _LOCK:
            out = {
                "count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "bounds": list(self.bounds), "buckets": list(self.buckets),
            }
            if self.exemplars:
                out["exemplars"] = {index: list(ex) for index, ex
                                    in self.exemplars.items()}
            return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} sum={self.total}>"


class EventLog:
    """A bounded ring of recent events with an exact total count."""

    __slots__ = ("name", "capacity", "total", "_events")

    def __init__(self, name: str, capacity: int = DEFAULT_EVENT_CAPACITY):
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.total = 0
        self._events = deque(maxlen=capacity)

    def append(self, event) -> None:
        with _LOCK:
            self.total += 1
            self._events.append(event)

    @property
    def dropped(self) -> int:
        """Events no longer retained (total is still exact)."""
        return self.total - len(self._events)

    def resize(self, capacity: int) -> None:
        """Change the retention cap in place (the flight recorder grows
        its event feed beyond the default); shrinking drops the oldest
        retained events, the total stays exact."""
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        with _LOCK:
            if capacity == self.capacity:
                return
            self.capacity = capacity
            self._events = deque(self._events, maxlen=capacity)

    def __iter__(self):
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        return list(self._events)[index]

    def reset(self) -> None:
        with _LOCK:
            self.total = 0
            self._events.clear()

    def snapshot(self) -> dict:
        with _LOCK:
            return {"total": self.total, "dropped": self.dropped,
                    "recent": list(self._events)}

    def __repr__(self) -> str:
        return f"<EventLog {self.name} {len(self._events)}/{self.total}>"


class MetricsRegistry:
    """All metrics, by name.  Get-or-create accessors keep call sites
    one-liners; metric objects are stable across :meth:`reset` (reset
    zeroes in place), so modules may cache them at import time."""

    def __init__(self):
        self._metrics: dict = {}

    def _get(self, name: str, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            with _LOCK:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def labeled(self, name: str, preset=()) -> LabeledCounter:
        return self._get(name, lambda: LabeledCounter(name, preset),
                         LabeledCounter)

    def histogram(self, name: str, bounds) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds), Histogram)

    def events(self, name: str,
               capacity: int = DEFAULT_EVENT_CAPACITY) -> EventLog:
        return self._get(name, lambda: EventLog(name, capacity), EventLog)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def items(self):
        """A stable ``[(name, metric), ...]`` list (sorted by name)."""
        with _LOCK:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict:
        """{name: plain-python value} for every registered metric."""
        with _LOCK:
            items = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(items)}

    def reset(self) -> None:
        """Zero every metric in place (objects keep their identity)."""
        with _LOCK:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


#: The process-wide registry every subsystem feeds.
REGISTRY = MetricsRegistry()


def record_compile(path: str, cycles: int, instructions: int) -> None:
    """Per-``compile()`` distributions: total modeled codegen cycles,
    generated instructions, and the latency class of the serving path
    (``hit``/``patched``/``cold``/``fallback``)."""
    REGISTRY.histogram("compile.codegen_cycles", CYCLE_BOUNDS).record(cycles)
    REGISTRY.histogram("compile.generated_instructions",
                       INSTRUCTION_BOUNDS).record(instructions)
    REGISTRY.histogram(f"compile.latency.{path}", CYCLE_BOUNDS).record(cycles)
