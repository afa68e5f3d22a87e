"""Lifecycle span tracing on the modeled-cycles clock.

The paper's claims are *cost* claims, so the tracer's timeline is modeled
cycles, not wall time: a :class:`Tracer` owns a monotonic cycle **cursor**
that providers advance by exactly the cost they just accounted — the cost
model's cycles for an instantiation, the CPU's cycle delta for a call into
generated code.  Spans stamp the cursor at begin/end, so

* durations are exact modeled costs (a ``compile`` span's phase children
  tile it and sum to the cost model's phase totals *by construction*),
* nesting is guaranteed (children advance the cursor between the parent's
  begin and end stamps), and
* one trace is one totally ordered timeline that Chrome tracing / Perfetto
  render without translation (see :mod:`repro.telemetry.export`).

Work with no modeled cost (parsing, verifier layers) appears as
zero-duration spans or instants carrying host wall time in ``args``.

Span taxonomy (``cat`` -> names):

==========  ==========================================================
``static``  ``static_compile`` + ``parse``/``sema``/``ticklint``/
            ``cgf`` children; per-function ``static:<name>`` installs
``spec``    ``run:<fn>`` — one spec-time interpreter entry
``compile`` ``compile#N`` — one ``compile()``, with correlation args
            (``sig``, ``closure``, ``backend``, ``path``, ``entry``,
            ``code_range``)
``phase``   ``phase:<name>`` — cost-model phases tiling their compile
``exec``    ``exec:<fn>`` — one call into installed code (``trap`` arg
            on a machine fault)
``verify``  ``verify:<layer>`` instants (wall time in args)
``event``   everything else (fallbacks, superblock compiles, trace
            promotions, ...)
==========  ==========================================================

Sampling: mode ``"on"`` traces everything, ``"sample:N"`` keeps every
Nth lifecycle per sampling key (``compile``, ``exec``); metrics are
always recorded regardless of mode.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.telemetry.metrics import REGISTRY as _REGISTRY

#: Spans silently discarded past ``Tracer.MAX_SPANS`` used to vanish with
#: no signal beyond the tracer's own ``dropped`` attribute; this counter
#: makes the loss visible in every metrics export and scrape.
_DROPPED_SPANS = _REGISTRY.counter("telemetry.trace.dropped_spans")

#: Telemetry modes; ``sample:N`` is validated by :func:`resolve_mode`.
MODES = ("off", "on")


def resolve_mode(value) -> str:
    """Normalize a ``telemetry=`` knob: ``None`` -> ``"off"``; accepts
    ``"off"``, ``"on"``, or ``"sample:N"`` with integer N >= 1."""
    if value is None:
        return "off"
    if value in MODES:
        return value
    if isinstance(value, str) and value.startswith("sample:"):
        try:
            n = int(value.split(":", 1)[1])
        except ValueError:
            n = 0
        if n >= 1:
            return value
    raise ValueError(
        f"unknown telemetry mode {value!r}; expected 'off', 'on', "
        "or 'sample:N' (N >= 1)"
    )


class Span:
    """One traced interval on the cycle timeline.

    ``ts``/``end`` are cursor stamps (modeled cycles); ``parent`` is the
    enclosing span's ``sid`` or None for roots; ``args`` carries
    correlation ids and host wall time.
    """

    __slots__ = ("sid", "name", "cat", "ts", "end", "parent", "args")

    def __init__(self, sid: int, name: str, cat: str, ts: int,
                 parent=None, args=None):
        self.sid = sid
        self.name = name
        self.cat = cat
        self.ts = ts
        self.end = ts
        self.parent = parent
        self.args = args if args is not None else {}

    @property
    def dur(self) -> int:
        return self.end - self.ts

    def to_dict(self) -> dict:
        return {"sid": self.sid, "name": self.name, "cat": self.cat,
                "ts": self.ts, "dur": self.dur, "parent": self.parent,
                "args": dict(self.args)}

    def __repr__(self) -> str:
        return (f"<Span {self.name} [{self.cat}] "
                f"{self.ts}+{self.dur}cy>")


class Tracer:
    """Collects spans for one trace session (usually one process)."""

    #: Retained-span cap; beyond it spans are counted but dropped, so a
    #: long-running process cannot grow the trace without bound.
    MAX_SPANS = 100_000

    def __init__(self, mode: str = "on"):
        self.mode = resolve_mode(mode)
        self.sample_every = 1
        if self.mode.startswith("sample:"):
            self.sample_every = int(self.mode.split(":", 1)[1])
        self.cursor = 0
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []
        self._next_sid = 1
        self._sample_counters: dict = {}

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    # -- sampling -----------------------------------------------------------

    def sample(self, key: str = "compile") -> bool:
        """True when this lifecycle (the ``key``-th counter) is kept."""
        if not self.enabled:
            return False
        n = self._sample_counters.get(key, 0)
        self._sample_counters[key] = n + 1
        return n % self.sample_every == 0

    # -- the cycle cursor ---------------------------------------------------

    def advance(self, cycles) -> None:
        """Move the timeline forward by a modeled-cycle delta."""
        if cycles > 0:
            self.cursor += cycles

    # -- live spans ---------------------------------------------------------

    def current(self):
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def _append(self, span) -> bool:
        if len(self.spans) >= self.MAX_SPANS:
            self.dropped += 1
            _DROPPED_SPANS.inc()
            return False
        self.spans.append(span)
        return True

    def begin(self, name: str, cat: str = "event", **args) -> Span:
        """Open a span at the cursor; close it with :meth:`end`."""
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self._next_sid, name, cat, self.cursor, parent, args)
        span.args.setdefault("wall_ns", time.perf_counter_ns())
        self._next_sid += 1
        self._stack.append(span)
        return span

    def end(self, span: Span, advance=0, **args) -> Span:
        """Close ``span``: advance the cursor by the modeled cost of the
        work it covered, stamp its end, and record it."""
        self.advance(advance)
        span.end = self.cursor
        wall0 = span.args.pop("wall_ns", None)
        if wall0 is not None:
            span.args["wall_us"] = round(
                (time.perf_counter_ns() - wall0) / 1000, 1)
        span.args.update(args)
        # Tolerate mis-paired ends: pop through abandoned children.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._append(span)
        return span

    @contextmanager
    def span(self, name: str, cat: str = "event", **args):
        """``with tracer.span(...) as s:`` — begin/end around a block."""
        s = self.begin(name, cat, **args)
        try:
            yield s
        finally:
            self.end(s)

    def instant(self, name: str, cat: str = "event", **args) -> Span:
        """A zero-duration marker at the cursor, under the open span."""
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self._next_sid, name, cat, self.cursor, parent, args)
        self._next_sid += 1
        self._append(span)
        return span

    # -- retroactive spans --------------------------------------------------

    def add_complete(self, name: str, cat: str, ts: int, end: int,
                     parent: Span | None = None, **args) -> Span:
        """Record a span whose interval is already known (used to lay the
        cost model's phase totals onto the timeline after an
        instantiation finishes).  When ``parent`` is given the start is
        clamped to the parent's start so nesting stays valid (the parent
        is typically still open, so its end is not final yet)."""
        if parent is not None:
            ts = max(ts, parent.ts)
        pid = parent.sid if parent is not None else (
            self._stack[-1].sid if self._stack else None)
        span = Span(self._next_sid, name, cat, ts, pid, args)
        span.end = max(end, ts)
        self._next_sid += 1
        self._append(span)
        return span

    # -- bookkeeping --------------------------------------------------------

    def clear(self) -> None:
        self.cursor = 0
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._sample_counters = {}

    def __repr__(self) -> str:
        return (f"<Tracer mode={self.mode} spans={len(self.spans)} "
                f"cursor={self.cursor}>")


class _NullTracer:
    """The disabled tracer: every operation is a no-op.  Returned by
    :func:`active` when nothing is tracing, so call sites can skip the
    None checks."""

    mode = "off"
    enabled = False
    cursor = 0
    spans: list = []

    def sample(self, key: str = "compile") -> bool:
        return False

    def advance(self, cycles) -> None:
        pass

    def current(self):
        return None

    def begin(self, name, cat="event", **args):
        return None

    def end(self, span, advance=0, **args):
        return None

    @contextmanager
    def span(self, name, cat="event", **args):
        yield None

    def instant(self, name, cat="event", **args):
        return None

    def add_complete(self, name, cat, ts, end, parent=None, **args):
        return None


#: The shared no-op tracer.
NULL = _NullTracer()

#: The activation stack: lets deep call sites (the verifier runner, the
#: dispatch engine) reach the tracer of whichever process is currently
#: compiling without threading it through every signature.  Thread-local:
#: each serving session activates its own tracer on its own thread, so a
#: shared stack would interleave unrelated sessions' spans (and the
#: pop-on-exit would corrupt another thread's stack).
_TLS = threading.local()


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


@contextmanager
def activate(tracer):
    """Make ``tracer`` the ambient tracer for the dynamic extent (on the
    calling thread)."""
    stack = _stack()
    stack.append(tracer if tracer is not None else NULL)
    try:
        yield tracer
    finally:
        stack.pop()


def active():
    """The calling thread's ambient tracer (:data:`NULL` when nothing is
    tracing)."""
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else NULL
