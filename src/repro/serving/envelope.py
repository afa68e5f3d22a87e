"""The per-request robustness envelope: deadline + retries + ladder.

An :class:`Envelope` wraps *one* serving request.  While it is attached
to a :class:`~repro.core.driver.Process` (``process.envelope``), every
``compile()`` the spec-time program performs is routed through
:meth:`Envelope.compile_closure` instead of the classic single-attempt
path, and every call into generated code goes through
:meth:`Envelope.execute`.  Together they enforce:

Deadlines
    One :class:`DeadlineClock` spans the whole request — compile
    attempts, retry backoff, and execution all charge the same
    modeled-cycle budget.  This is deliberately *not* the machine's
    watchdog fuel: fuel is a hard per-call cap against runaway generated
    loops; the deadline is an end-to-end latency promise to the client.
    (Spec-time interpretation has no modeled cost; it stays bounded by
    the ``spec_fuel`` option.)

Retries
    Transient faults — an exhausted code segment, an injected emit
    fault, an allocator fault — are retried in place up to
    ``RetryPolicy.max_attempts`` times with exponential modeled-cycle
    backoff charged against the deadline.

The degradation ladder
    Persistent faults (codegen bugs, verifier rejections) and exhausted
    retries trip the rung's circuit breaker and demote the request to
    the next rung (see :mod:`repro.serving.breaker`).  A request served
    below rung 0 is recorded under the ``degrade`` compile path.
"""

from __future__ import annotations

from repro import report
from repro.errors import (
    CodegenError,
    CodeSegmentExhausted,
    CycleBudgetExceeded,
    DeadlineExceeded,
    MachineError,
    OutOfMemory,
    RequestFailed,
    VerifyError,
)
from repro.runtime.closures import signature_of
from repro.serving.breaker import LADDER

#: Faults worth retrying at the same rung: they describe resource
#: pressure (or injected chaos), not a reproducible bug in the closure.
TRANSIENT_ERRORS = (CodeSegmentExhausted, OutOfMemory)

#: Faults that will recur on every attempt at this rung.
PERSISTENT_ERRORS = (CodegenError, VerifyError)

#: The breaker slot guarding *trusted* (block-engine) execution of a
#: signature; distinct from the compile rungs 0..2.
EXEC_RUNG = 3


class RetryPolicy:
    """Bounded retry with exponential modeled-cycle backoff."""

    __slots__ = ("max_attempts", "backoff_cycles", "multiplier")

    def __init__(self, max_attempts: int = 3, backoff_cycles: int = 256,
                 multiplier: int = 2):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_cycles = backoff_cycles
        self.multiplier = multiplier

    def backoff(self, attempt: int) -> int:
        """Modeled cycles charged before retry number ``attempt`` (1-based)."""
        return self.backoff_cycles * (self.multiplier ** (attempt - 1))


class DeadlineClock:
    """The request's modeled-cycle budget.  ``budget=None`` never expires."""

    __slots__ = ("budget", "spent")

    def __init__(self, budget: int | None):
        if budget is not None and budget < 1:
            raise ValueError("deadline budget must be >= 1 cycles")
        self.budget = budget
        self.spent = 0

    def remaining(self) -> int | None:
        if self.budget is None:
            return None
        return max(self.budget - self.spent, 0)

    def charge(self, cycles: int) -> None:
        """Account ``cycles`` of work; raise once the budget is gone."""
        self.spent += max(int(cycles), 0)
        self.check()

    def check(self) -> None:
        if self.budget is not None and self.spent >= self.budget:
            raise DeadlineExceeded(
                f"request deadline of {self.budget} modeled cycles exceeded "
                f"(spent {self.spent})"
            )


class Envelope:
    """One request's robustness state; attach via ``process.envelope``."""

    def __init__(self, breakers, clock: DeadlineClock,
                 policy: RetryPolicy, registry=None, min_rung: int = 0):
        self.breakers = breakers
        self.clock = clock
        self.policy = policy
        self.registry = registry
        #: Ladder floor asked for by a protective SLO policy (see
        #: :meth:`repro.obs.slo.SloEngine.protective_rung`): degrade
        #: *before* the error budget is gone, not after traps storm.
        self.min_rung = min_rung
        # per-request observability, read back by Session.request()
        self.retries = 0
        self.compile_rungs: list = []   # final rung of each compile()
        self.compiled: list = []        # (entry, routing_key) per compile()
        self.exec_engine = None         # "tiered" / "block" / "reference"
        self._last_error = None

    # -- compilation -------------------------------------------------------

    def compile_closure(self, process, closure, ret_type) -> int:
        """Serve one ``compile()`` down the ladder, under the deadline."""
        self.clock.check()
        params = sorted(process.current_params, key=lambda v: v.index)
        key = self._routing_key(process, closure, params, ret_type)
        rung = max(self.breakers.start_rung(key), self.min_rung)
        last_error = None
        while rung < len(LADDER):
            entry = self._attempt_rung(process, closure, ret_type,
                                       params, key, rung)
            if entry is not None:
                return entry
            last_error = self._last_error
            rung = self._next_rung(key, rung)
        raise RequestFailed(
            f"compile() failed on every rung of the ladder "
            f"(last: {last_error})",
            tier=LADDER[-1], last_error=last_error,
        )

    def _attempt_rung(self, process, closure, ret_type, params, key, rung):
        """Try one rung, with transient retries.  Returns the entry on
        success (breaker credited, degrade recorded); None on a
        persistent failure / exhausted retries (breaker debited, the
        error kept in ``self._last_error``)."""
        breaker = self.breakers.breaker(key, rung)
        knobs = _rung_knobs(rung)
        error = None
        for attempt in range(1, self.policy.max_attempts + 1):
            if attempt > 1:
                self.retries += 1
                report.record_retry(self.registry)
                self.clock.charge(self.policy.backoff(attempt - 1))
            # _compile_closure consumes param() state in its finally
            # clause, so every attempt re-seeds it.
            process.current_params = list(params)
            try:
                entry = process._compile_closure(closure, ret_type, **knobs)
            except TRANSIENT_ERRORS as exc:
                error = exc
                continue
            except PERSISTENT_ERRORS as exc:
                error = exc
                break
            breaker.record_success()
            self.compile_rungs.append(rung)
            self.compiled.append((entry, key))
            # Compilation work counts against the request deadline (the
            # paper's point: codegen cost is part of serving latency).
            self.clock.charge(process.last_codegen_stats.total_cycles())
            if rung > 0:
                process._compile_path = "degrade"
                report.record_degraded(LADDER[rung], self.registry)
            return entry
        self._last_error = error
        if breaker.record_failure():
            report.record_breaker_open(self.registry)
        return None

    def _next_rung(self, key, rung: int) -> int:
        """The next rung below ``rung`` whose breaker admits the request."""
        for candidate in range(rung + 1, len(LADDER) - 1):
            if self.breakers.breaker(key, candidate).allow():
                return candidate
        return len(LADDER) - 1 if rung < len(LADDER) - 1 else len(LADDER)

    @staticmethod
    def _routing_key(process, closure, params, ret_type):
        """The breaker routing key: the closure signature under the
        session's *base* configuration, so every rung of one closure
        shares fate and distinct specializations never do."""
        try:
            return signature_of(closure, params,
                                process._cache_config_key(ret_type)).key
        except Exception:
            return id(closure.cgf)

    # -- execution ---------------------------------------------------------

    def execute(self, process, entry: int, args=(), fargs=(),
                returns: str = "i", name: str | None = None, key=None):
        """Call into generated code under the deadline.

        The exec-side breaker (slot :data:`EXEC_RUNG`) guards *trust in
        the dispatch engine* for this signature: repeated watchdog trips or
        traps open it, after which execution is pinned to the reference
        per-instruction stepper with the superblock cache dropped — the
        ladder's final rung.
        """
        self.clock.check()
        machine = process.machine
        breaker = self.breakers.breaker(key, EXEC_RUNG) if key is not None \
            else None
        trusted = breaker.allow() if breaker is not None else True
        engine = None
        if not trusted:
            machine.distrust_block_cache()
            engine = "reference"
            report.record_degraded("reference", self.registry)
        self.exec_engine = engine or machine.engine
        remaining = self.clock.remaining()
        fuel = machine.fuel
        if remaining is not None:
            fuel = remaining if fuel is None else min(fuel, remaining)
        before = machine.cpu.cycles
        try:
            value = machine.call(entry, args, fargs, returns,
                                 fuel=fuel, name=name, engine=engine)
        except MachineError as trap:
            spent = machine.cpu.cycles - before
            deadline_hit = (isinstance(trap, CycleBudgetExceeded)
                            and remaining is not None and spent >= remaining)
            if trusted and breaker is not None and not deadline_hit:
                if breaker.record_failure():
                    report.record_breaker_open(self.registry)
            if deadline_hit:
                self.clock.spent += spent
                raise DeadlineExceeded(
                    f"execution blew the request deadline "
                    f"({self.clock.budget} modeled cycles)"
                ) from trap
            self.clock.charge(spent)
            raise
        spent = machine.cpu.cycles - before
        self.clock.charge(spent)
        if trusted and breaker is not None:
            breaker.record_success()
        # Exec telemetry feeds the driver's adaptive VCODE->ICODE retier
        # (the Fig. 5 crossover, decided at run time from real cycles).
        process.note_exec_cycles(entry, spent)
        return value


def _rung_knobs(rung: int) -> dict:
    """Compile knobs for one ladder rung (see breaker.LADDER)."""
    from repro.core.driver import BackendKind

    if rung == 0:
        return {"use_templates": True, "allow_fallback": False}
    if rung == 1:
        return {"use_templates": False, "allow_fallback": False}
    # vcode and reference compile identically; they differ at execution
    return {"backend_kind": BackendKind.VCODE, "use_templates": False,
            "allow_fallback": False}
