"""The fault-isolated concurrent serving engine.

One :class:`Engine` owns everything that is immutable or thread-safe —
the statically compiled program, the shared Tier-2
:class:`~repro.serving.store.TemplateStore`, the engine-level chaos
schedule — and hands out :class:`Session` objects.  Each session owns
everything mutable: its own :class:`~repro.target.cpu.Machine` (code
segment, data memory, CPU), its own :class:`~repro.core.driver.Process`
(Tier-1 memo, spec-time interpreter state) and its own breaker board.
N sessions on N threads therefore compile and execute concurrently
without sharing any mutable state beyond the lock-striped template store
and the lock-guarded global metrics, which every request counts into as
it is served — the property the differential test in
``tests/test_serving.py`` pins down bit-for-bit.

Session creation itself is serialized under an engine lock:
``Process.__init__`` writes deterministic global addresses onto the
shared AST (idempotent, but not atomic), and static compilation is not
re-entrant.  Everything after ``open_session`` returns is lock-free on
the session's own thread.

Every request runs inside a robustness envelope (see
:mod:`repro.serving.envelope`): a modeled-cycle deadline, bounded
retries with backoff for transient faults, and the circuit-breaker
degradation ladder (:mod:`repro.serving.breaker`).  ``Session.run`` and
``Session.call`` are served by ``Session.request`` too, so each run and
each call takes a correlation id and a chaos-schedule slot, counts into
``serving.*``, is scored by the engine's SLO engine and leaves one row
in its flight recorder.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import time

from repro import report
from repro.core.driver import CompiledProgram, TccCompiler
from repro.errors import DeadlineExceeded, RuntimeTccError, TccError
from repro.obs import server as _obs_server
from repro.obs.flightrec import FlightRecorder
from repro.obs.slo import SloEngine, SloPolicy, default_policy
from repro.serving.breaker import LADDER, BreakerBoard
from repro.serving.chaos import ChaosPlan, from_env
from repro.serving.envelope import DeadlineClock, Envelope, RetryPolicy
from repro.serving.store import TemplateStore
from repro.telemetry.metrics import REGISTRY, exemplar_context
from repro.tiering import SharedHotness

_UNSET = object()

#: Chaos injections per action kind, across every session.
_CHAOS_INJECTED = REGISTRY.labeled("chaos.injected")


class RequestOutcome:
    """What one :meth:`Session.request` produced.

    ``value`` is the builder's return value (or the executed call's
    result when call args were given); ``error`` is the terminal
    :class:`~repro.errors.TccError` when the request failed — requests
    never leak exceptions, a failing client must not take the session
    (let alone the engine) down with it.  ``tier`` names the worst
    ladder rung the request was served at, ``path`` the compile path of
    the request's last compile() (``hit``/``patched``/``cold``/
    ``degrade``/...; None when it compiled nothing), ``cycles`` the
    modeled cycles charged against the deadline.
    """

    __slots__ = ("value", "entry", "error", "tier", "path", "retries",
                 "cycles", "exec_engine", "chaos")

    def __init__(self):
        self.value = None
        self.entry = None
        self.error = None
        self.tier = LADDER[0]
        self.path = None
        self.retries = 0
        self.cycles = 0
        self.exec_engine = None
        self.chaos = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"error={type(self.error).__name__}"
        return (f"<RequestOutcome {status} tier={self.tier} "
                f"path={self.path} cycles={self.cycles}>")


class Engine:
    """The shared half of the serving system; a session factory."""

    def __init__(self, source, *, share_templates: bool = True,
                 verify: str | None = None,
                 chaos: ChaosPlan | None | object = _UNSET,
                 codecache_dir: str | None = None,
                 slo: object = _UNSET, recorder: object = _UNSET,
                 blackbox_dir: str | None = None,
                 **session_defaults):
        """``source`` is `C source text or an already-compiled
        :class:`CompiledProgram`.  ``session_defaults`` are
        ``CompiledProgram.start`` options applied to every session
        (overridable per ``open_session``).  ``chaos`` installs an
        engine-wide injection schedule (defaults to ``$REPRO_CHAOS``).
        ``codecache_dir`` (default ``$REPRO_CODECACHE_DIR``) attaches the
        persistent template cache (:mod:`repro.persist`) to the shared
        store, so a *fresh engine* — e.g. a restarted serving worker, or
        one of N workers sharing the directory — warm-starts from every
        closure shape the fleet has ever compiled.

        The observability plane is always on by default: ``slo`` accepts
        an :class:`~repro.obs.slo.SloEngine`, an
        :class:`~repro.obs.slo.SloPolicy` (wrapped), or ``None`` to
        disable (default: the monitor-only
        :func:`~repro.obs.slo.default_policy`); ``recorder`` accepts a
        :class:`~repro.obs.flightrec.FlightRecorder` or ``None`` to
        disable; ``blackbox_dir`` (default ``$REPRO_BLACKBOX_DIR``)
        makes every trigger dump a diagnostic bundle to disk.  The new
        engine self-attaches to the ``python -m repro.report serve``
        endpoint (latest wins)."""
        import os

        if isinstance(source, CompiledProgram):
            self.program = source
        else:
            self.program = TccCompiler(verify=verify).compile(source)
        if codecache_dir is None:
            codecache_dir = os.environ.get("REPRO_CODECACHE_DIR") or None
        self.store = None
        self.session_defaults = dict(session_defaults)
        if share_templates:
            disk = None
            if codecache_dir:
                from repro.persist import DiskCodeCache, program_namespace

                disk = DiskCodeCache(
                    codecache_dir,
                    program_key=program_namespace(self.program.source))
            self.store = TemplateStore(disk=disk)
        elif codecache_dir:
            # No shared store to hang the disk tier on: each session's
            # private store owns a handle (same directory; safe under the
            # shard locks).
            self.session_defaults.setdefault("codecache_dir", codecache_dir)
        if verify is not None:
            self.session_defaults.setdefault("verify", verify)
        self.chaos = from_env() if chaos is _UNSET else chaos
        self.hotness = SharedHotness()
        self._lock = threading.Lock()
        self._session_seq = 0
        self.sessions_open = 0
        self.sessions_closed = 0
        if slo is _UNSET:
            slo = SloEngine(default_policy())
        elif isinstance(slo, SloPolicy):
            slo = SloEngine(slo)
        self.slo = slo
        if recorder is _UNSET:
            recorder = FlightRecorder(dump_dir=blackbox_dir)
        self.recorder = recorder
        if self.recorder is not None and self.slo is not None:
            self.recorder.slo_source = self.slo.status
        _obs_server.attach(self)

    def open_session(self, name: str | None = None, *,
                     deadline: int | None = None,
                     retry: RetryPolicy | None = None,
                     failure_threshold: int = 3, probe_after: int = 4,
                     chaos: ChaosPlan | None | object = _UNSET,
                     **overrides) -> "Session":
        """Create one isolated client session (its own machine/process)."""
        options = {**self.session_defaults, **overrides}
        if self.store is not None:
            options.setdefault("template_store", self.store)
        # New sessions start with the fleet's pooled hotness profile so
        # warmed entry points promote to traces on their first dispatch.
        options.setdefault("tiering_shared", self.hotness)
        with self._lock:
            self._session_seq += 1
            if name is None:
                name = f"session-{self._session_seq}"
            process = self.program.start(**options)
            self.sessions_open += 1
        return Session(
            self, process, name,
            deadline=deadline,
            retry=retry if retry is not None else RetryPolicy(),
            breakers=BreakerBoard(failure_threshold, probe_after),
            chaos=self.chaos if chaos is _UNSET else chaos,
        )

    @contextmanager
    def session(self, name: str | None = None, **kwargs):
        """``with engine.session() as s:`` — open and always close."""
        s = self.open_session(name, **kwargs)
        try:
            yield s
        finally:
            s.close()

    def _note_closed(self) -> None:
        with self._lock:
            self.sessions_open -= 1
            self.sessions_closed += 1

    def stats(self) -> dict:
        """Engine-level snapshot: sessions, shared store, global serving
        counters."""
        out = {
            "sessions_open": self.sessions_open,
            "sessions_closed": self.sessions_closed,
            "serving": report.serving_stats(),
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def dump_blackbox(self) -> dict:
        """Dump the flight-recorder bundle right now (the ``manual``
        trigger; also writes to disk when a dump dir is configured)."""
        if self.recorder is None:
            raise RuntimeTccError("engine has no flight recorder")
        return self.recorder.trigger("manual")


class Session:
    """One client's isolated execution context, with the robustness
    envelope around every request.  Created by :meth:`Engine.open_session`;
    close (or use as a context manager) to detach it from its machine."""

    def __init__(self, engine: Engine, process, name: str, *,
                 deadline: int | None, retry: RetryPolicy,
                 breakers: BreakerBoard, chaos: ChaosPlan | None):
        self.engine = engine
        self.process = process
        self.name = name
        self.deadline = deadline
        self.retry = retry
        self.breakers = breakers
        self.chaos = chaos
        self.requests_served = 0
        self.closed = False
        self._entry_keys: dict = {}        # entry -> breaker routing key
        self._reference_pinned = False     # trap-storm edge detection

    # -- the request API ---------------------------------------------------

    def request(self, builder: str | None, builder_args=(), call_args=None,
                fcall_args=(), returns: str = "i",
                deadline: int | None | object = _UNSET,
                name: str | None = None,
                entry: int | None = None) -> RequestOutcome:
        """Serve one request: run the spec-time ``builder`` (its
        ``compile()`` calls go through the envelope), then — when
        ``call_args`` is not None — execute the compiled function it
        returned, all under one deadline.  With ``builder=None`` nothing
        runs at spec time and the already-compiled ``entry`` is executed
        (a call, compile path None).  Either way the request is counted,
        scored and recorded.  Failures are captured in the outcome, never
        raised: one client's crash must not unwind another's serving
        loop.
        """
        if self.closed:
            raise RuntimeTccError(f"session {self.name!r} is closed")
        self.requests_served += 1
        correlation_id = f"{self.name}#{self.requests_served}"
        outcome = RequestOutcome()
        budget = self.deadline if deadline is _UNSET else deadline
        events = (self.chaos.events_for(self.requests_served)
                  if self.chaos else ())
        outcome.chaos = events
        budget, undos = self._apply_chaos(events, budget)
        slo = self.engine.slo
        envelope = Envelope(
            self.breakers, DeadlineClock(budget), self.retry,
            min_rung=slo.protective_rung() if slo is not None else 0)
        wall0 = time.perf_counter_ns()
        process = self.process
        process.envelope = envelope
        process._compile_path = None
        try:
            with exemplar_context(correlation_id):
                if builder is not None:
                    entry = process.run(builder, *builder_args)
                outcome.entry = entry
                for addr, key in envelope.compiled:
                    self._entry_keys[addr] = key
                # A call executes the entry it was given, so a bad one
                # traps as the machine reports it.
                if call_args is not None and (builder is None
                                              or isinstance(entry, int)):
                    outcome.value = envelope.execute(
                        process, entry, call_args, fcall_args, returns,
                        name=name or builder,
                        key=self._entry_keys.get(entry),
                    )
                else:
                    outcome.value = entry
        except TccError as exc:
            outcome.error = exc
            if isinstance(exc, DeadlineExceeded):
                report.record_deadline_miss()
        finally:
            process.envelope = None
            for undo in undos:
                undo()
        wall_us = (time.perf_counter_ns() - wall0) / 1000.0
        outcome.retries = envelope.retries
        outcome.cycles = envelope.clock.spent
        outcome.path = process._compile_path
        outcome.exec_engine = envelope.exec_engine
        outcome.tier = self._tier_of(envelope)
        report.record_request("completed" if outcome.ok else "failed")
        self._observe(outcome, correlation_id, builder, budget, envelope,
                      wall_us)
        return outcome

    def _observe(self, outcome, correlation_id, builder, budget, envelope,
                 wall_us) -> None:
        """Feed the engine's observability plane (SLO windows + flight
        recorder) with this request; detect the recorder's triggers."""
        engine = self.engine
        if engine.slo is not None:
            engine.slo.observe(outcome.path, outcome.cycles, outcome.ok,
                               host_us=wall_us)
        recorder = engine.recorder
        if recorder is None:
            return
        triggers = []
        # The request's own envelope, not a delta of the global counter:
        # that would fire on another session's concurrent breaker open.
        if envelope.breaker_opens:
            triggers.append("breaker_open")
        if outcome.exec_engine == "reference":
            if not self._reference_pinned:
                self._reference_pinned = True
                triggers.append("trap_storm")
        else:
            self._reference_pinned = False
        if any(kind in ("poison", "poison_trace", "corrupt_disk")
               for kind in outcome.chaos):
            triggers.append("chaos_poison")
        spans = ()
        tracer = getattr(self.process, "tracer", None)
        if tracer is not None and tracer.spans:
            spans = tuple((s.name, s.cat, s.dur)
                          for s in tracer.spans[-8:])
        recorder.record({
            "session": self.name,
            "builder": builder,
            "correlation_id": correlation_id,
            "ok": outcome.ok,
            "error": (type(outcome.error).__name__
                      if outcome.error is not None else None),
            "tier": outcome.tier,
            "path": outcome.path,
            "retries": outcome.retries,
            "cycles": outcome.cycles,
            "deadline": budget,
            "deadline_slack": envelope.clock.remaining(),
            "rungs": envelope.compile_rungs,
            "exec_engine": outcome.exec_engine,
            "chaos": outcome.chaos,
            "breaker_opens": envelope.breaker_opens,
            "wall_us": round(wall_us, 1),
            "spans": spans,
        }, triggers=triggers)

    def run(self, builder: str, *args, deadline: int | None | object = _UNSET):
        """Enveloped spec-time run that *raises* on failure (the
        ergonomic single-client API; serving loops want :meth:`request`)."""
        outcome = self.request(builder, args, deadline=deadline)
        if outcome.error is not None:
            raise outcome.error
        return outcome.value

    def call(self, entry: int, args=(), fargs=(), returns: str = "i",
             name: str | None = None,
             deadline: int | None | object = _UNSET):
        """Enveloped execution of an already-compiled entry, served as a
        request; raises on failure."""
        outcome = self.request(None, call_args=args, fcall_args=fargs,
                               returns=returns, deadline=deadline,
                               name=name, entry=entry)
        if outcome.error is not None:
            raise outcome.error
        return outcome.value

    @staticmethod
    def _tier_of(envelope: Envelope) -> str:
        rung = max(envelope.compile_rungs, default=0)
        if envelope.exec_engine == "reference":
            rung = len(LADDER) - 1
        return LADDER[rung]

    # -- chaos application -------------------------------------------------

    def _apply_chaos(self, events, budget):
        """Inject the scheduled faults; return (possibly squeezed budget,
        undo callables run when the request finishes)."""
        undos = []
        machine = self.process.machine
        for kind in events:
            _CHAOS_INJECTED.inc(kind)
            if kind == "emit_fault":
                machine.code.inject_emit_failure(1)
            elif kind == "alloc_fault":
                machine.memory.inject_alloc_failure(1)
            elif kind == "exhaust":
                undos.append(_clamp_capacity(machine.code))
            elif kind == "poison":
                self.process.codecache.tamper_first()
            elif kind == "corrupt_disk":
                # Tamper with one persisted cache entry; the sha256
                # digest must reject it on load (no-op without a
                # configured codecache_dir).
                self.process.codecache.corrupt_disk_first()
            elif kind == "poison_trace":
                if machine._engine is not None:
                    machine._engine.poison_trace()
            elif kind == "deadline":
                budget = 1
            elif kind == "trap":
                previous = machine.fuel
                machine.fuel = 1

                def restore(machine=machine, previous=previous):
                    machine.fuel = previous

                undos.append(restore)
        return budget, undos

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Publish the session's hotness profile, flush its persistent
        templates and detach its caches from its machine.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        engine = self.process.machine._engine
        if engine is not None:
            engine.publish_profile()
        # Drain write-behind persistence before detaching: templates this
        # session compiled must reach the shared cache directory even if
        # the process exits abruptly after close().
        self.process.codecache.flush()
        self.process.machine.code.remove_invalidation_listener(
            self.process.codecache.on_segment_event)
        self.engine._note_closed()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"<Session {self.name} {state} "
                f"requests={self.requests_served}>")


def _clamp_capacity(segment):
    """Chaos 'exhaust': clamp the code segment to its current size; the
    first rollback (a failed install being released) restores the old
    capacity — modeling an eviction freeing room — so the envelope's
    retry succeeds.  Returns the end-of-request undo."""
    previous = segment.limit_capacity(len(segment.instructions))

    def on_event(kind, length):
        segment.capacity = max(segment.capacity, previous)
        segment.remove_invalidation_listener(on_event)

    segment.add_invalidation_listener(on_event)

    def undo():
        segment.capacity = max(segment.capacity, previous)
        segment.remove_invalidation_listener(on_event)

    return undo
