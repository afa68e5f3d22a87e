"""The serving engine: sessions, envelopes, breakers, and the
differential serial-vs-threads guarantee."""

from __future__ import annotations

import threading

import pytest

from repro import (
    DeadlineExceeded,
    Engine,
    RequestFailed,
    RuntimeTccError,
    report,
)
from repro.icode.backend import IcodeBackend
from repro.errors import (
    CodegenError,
    CycleBudgetExceeded,
    IllegalInstruction,
    SegmentationFault,
)
from repro.obs.openmetrics import parse, render
from repro.serving import ChaosPlan, LADDER, RetryPolicy
from repro.serving.breaker import BreakerBoard, CircuitBreaker
from repro.serving.engine import Session
from repro.serving.envelope import DeadlineClock
from repro.telemetry.metrics import REGISTRY

ADDER = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}
"""

PROGRAM = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}

int make_sum(int n) {
    int vspec x = param(int, 0);
    void cspec c = `{
        int i, s;
        s = 0;
        for (i = 0; i < $n; i++)
            s = s + x;
        return s;
    };
    return (int)compile(c, int);
}

int make_div(int d) {
    int vspec x = param(int, 0);
    return (int)compile(`(x / $d), int);
}
"""


def _degraded(tier):
    return report.serving_stats()["degraded_by_tier"].get(tier, 0)


class TestEngineSessions:
    def test_request_compiles_and_executes(self):
        with Engine(ADDER, chaos=None).session() as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.tier == "patched" and out.path == "cold"
            assert out.cycles > 0

    def test_tier1_hit_within_a_session(self):
        with Engine(ADDER, chaos=None).session() as s:
            s.request("make_adder", (10,), call_args=(1,))
            out = s.request("make_adder", (10,), call_args=(2,))
            assert out.path == "hit" and out.value == 12

    def test_templates_are_shared_across_sessions(self):
        eng = Engine(ADDER, chaos=None)
        with eng.session() as a:
            assert a.request("make_adder", (10,), call_args=(1,)).path == "cold"
        with eng.session() as b:
            out = b.request("make_adder", (99,), call_args=(1,))
            assert out.path == "patched" and out.value == 100
        assert eng.stats()["store"]["templates"] == 1

    def test_tier1_memo_is_not_shared_across_sessions(self):
        # Same key as session a's memo entry; session b must not get a
        # "hit" (entry addresses are machine-specific).
        eng = Engine(ADDER, chaos=None)
        with eng.session() as a:
            a.request("make_adder", (10,), call_args=(1,))
        with eng.session() as b:
            out = b.request("make_adder", (10,), call_args=(1,))
            assert out.path in ("patched", "cold")
            assert out.value == 11

    def test_sessions_do_not_share_machine_state(self):
        eng = Engine(PROGRAM, chaos=None)
        with eng.session() as a, eng.session() as b:
            ea = a.request("make_adder", (1,)).entry
            eb = b.request("make_adder", (2,)).entry
            assert a.call(ea, (10,)) == 11
            assert b.call(eb, (10,)) == 12
            assert a.process.machine is not b.process.machine

    def test_run_raises_and_request_captures(self):
        with Engine(PROGRAM, chaos=None).session() as s:
            entry = s.run("make_div", 0)    # division folded at exec time
            out = s.request("make_div", (0,), call_args=(4,))
            assert isinstance(entry, int)
            assert not out.ok               # div-by-zero trap captured
            assert out.error is not None

    def test_closed_session_refuses_requests(self):
        eng = Engine(ADDER, chaos=None)
        s = eng.open_session()
        s.close()
        s.close()                           # idempotent
        with pytest.raises(RuntimeTccError, match="closed"):
            s.request("make_adder", (1,))
        assert eng.stats()["sessions_open"] == 0


class TestOneRequestPath:
    """Runs and calls are both served by ``Session.request``: counted,
    scored by the SLO engine and kept by the flight recorder."""

    NOOP = ADDER + "int noop(int n) { return n; }\n"

    #: A flight-recorder row: what ``Session._observe`` builds, plus the
    #: recorder's ``index``.
    ROW_KEYS = {
        "index", "session", "builder", "correlation_id", "ok", "error",
        "tier", "path", "retries", "cycles", "deadline", "deadline_slack",
        "rungs", "exec_engine", "chaos", "breaker_opens", "wall_us", "spans",
    }

    def test_calls_are_counted_scored_and_recorded(self):
        report.reset()
        eng = Engine(ADDER, chaos=None)
        with eng.session() as s:
            entry = s.run("make_adder", 10)
            assert s.call(entry, (5,)) == 15
            with pytest.raises(DeadlineExceeded):
                s.call(entry, (5,), deadline=1)
        stats = report.serving_stats()
        assert (stats["requests"], stats["completed"], stats["failed"],
                stats["deadline_misses"]) == (3, 2, 1, 1)
        assert eng.slo.status().observed == 3
        rows = eng.recorder.records()
        assert [r["correlation_id"] for r in rows] == [
            "session-1#1", "session-1#2", "session-1#3"]
        assert [r["path"] for r in rows] == ["cold", None, None]
        assert [r["builder"] for r in rows] == ["make_adder", None, None]
        assert rows[2]["error"] == "DeadlineExceeded"
        assert all(set(row) == self.ROW_KEYS
                   for row in eng.dump_blackbox()["records"])
        # a call compiles nothing: only availability objectives score it
        totals = {st.objective.name: st.total
                  for st in eng.slo.status().statuses}
        assert totals["availability"] == 3
        assert totals["cold-latency"] == 1

    def test_call_is_served_by_request(self, monkeypatch):
        served = []
        original = Session.request

        def spy(self, builder, *args, **kwargs):
            served.append((builder, kwargs.get("entry")))
            return original(self, builder, *args, **kwargs)

        monkeypatch.setattr(Session, "request", spy)
        with Engine(ADDER, chaos=None).session() as s:
            entry = s.run("make_adder", 1)
            assert s.call(entry, (2,)) == 3
        assert served == [("make_adder", None), (None, entry)]

    def test_a_call_takes_a_chaos_slot(self):
        plan = ChaosPlan(at={2: "deadline"})
        with Engine(ADDER, chaos=None).session(chaos=plan) as s:
            entry = s.run("make_adder", 1)
            with pytest.raises(DeadlineExceeded):
                s.call(entry, (2,))
            assert s.call(entry, (2,)) == 3

    def test_request_that_compiles_nothing_has_no_path(self):
        eng = Engine(self.NOOP, chaos=None)
        with eng.session() as s:
            assert s.request("make_adder", (1,)).path == "cold"
            out = s.request("noop", (3,))
            assert out.ok and out.value == 3
            assert out.path is None
        assert eng.recorder.records()[-1]["path"] is None
        totals = {st.objective.name: st.total
                  for st in eng.slo.status().statuses}
        assert (totals["cold-latency"], totals["availability"]) == (1, 2)

    @pytest.mark.parametrize("entry", [10**6, None])
    def test_bad_entry_raises_the_machine_fault(self, entry):
        report.reset()
        with Engine(ADDER, chaos=None).session() as s:
            with pytest.raises(SegmentationFault):
                s.call(entry)
        assert report.serving_stats()["failed"] == 1


class TestOptionNames:
    """``Engine`` and ``open_session`` reject unknown ``start()`` option
    names up front, through the same set ``start()`` checks."""

    @pytest.mark.parametrize("options", [{"deadlin": 1}, {"telemetry": "on"}])
    def test_engine_rejects_unknown_session_defaults(self, options):
        with pytest.raises(TypeError, match=next(iter(options))):
            Engine(ADDER, chaos=None, **options)

    @pytest.mark.parametrize("options", [{"deadlin": 1}, {"telemetry": "on"}])
    def test_open_session_rejects_unknown_overrides(self, options):
        eng = Engine(ADDER, chaos=None)
        with pytest.raises(TypeError, match=next(iter(options))):
            eng.open_session(**options)
        assert eng.stats()["sessions_open"] == 0
        with eng.session(deadline=1) as s:       # the real knob still works
            assert s.name == "session-1"         # rejected before numbering
            out = s.request("make_adder", (1,), call_args=(2,))
            assert isinstance(out.error, DeadlineExceeded)


class TestNonFiniteConversions:
    """Converting a NaN or infinite double to int fails the request at
    every layer (spec time, emission, execution) instead of leaking a
    Python exception out of ``request()``."""

    SRC = """
    int spec_cast(double d) { return (int)d; }
    int dollar_cast(double d) { return (int)compile(`((int)$d), int); }
    int vspec_cast(void) {
        double vspec x = param(double, 0);
        return (int)compile(`((int)x), int);
    }
    """

    def test_each_layer_fails_as_a_counted_request(self):
        nan, inf = float("nan"), float("inf")
        report.reset()
        with Engine(self.SRC, chaos=None).session() as s:
            spec = s.request("spec_cast", (inf,))
            emit = s.request("dollar_cast", (nan,))
            entry = s.run("vspec_cast")
            trap = s.request(None, call_args=(), fcall_args=(nan,),
                             entry=entry)
        assert isinstance(spec.error, RuntimeTccError)
        assert isinstance(emit.error, RuntimeTccError)
        assert not isinstance(emit.error, CodegenError)  # no VCODE retry
        assert isinstance(trap.error, IllegalInstruction)
        for out in (spec, emit, trap):
            assert "float-to-int" in str(out.error)
        stats = report.serving_stats()
        assert (stats["requests"], stats["failed"]) == (4, 3)


class TestDeadlines:
    def test_deadline_exceeded_is_captured(self):
        with Engine(ADDER, chaos=None).session(deadline=1) as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert isinstance(out.error, DeadlineExceeded)

    def test_generous_deadline_passes(self):
        with Engine(ADDER, chaos=None).session(deadline=10_000_000) as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15

    def test_deadline_covers_compile_plus_execute(self):
        # Budget big enough for the compile alone but not compile+exec.
        eng = Engine(PROGRAM, chaos=None)
        with eng.session() as probe:
            full = probe.request("make_sum", (500,), call_args=(1,))
            assert full.ok and full.value == 500
        with eng.session(deadline=full.cycles // 2) as s:
            before = report.serving_stats()["deadline_misses"]
            out = s.request("make_sum", (500,), call_args=(1,))
            assert isinstance(out.error, DeadlineExceeded)
            assert report.serving_stats()["deadline_misses"] == before + 1

    def test_deadline_is_distinct_from_watchdog_fuel(self):
        # Watchdog fires (tiny fuel) while the deadline is generous: the
        # trap must surface as CycleBudgetExceeded, not a deadline.
        eng = Engine(PROGRAM, chaos=None, fuel=50)
        with eng.session(deadline=10_000_000) as s:
            out = s.request("make_sum", (100,), call_args=(1,))
            assert isinstance(out.error, CycleBudgetExceeded)

    def test_clock_validation(self):
        with pytest.raises(ValueError):
            DeadlineClock(0)
        clock = DeadlineClock(None)
        clock.charge(10**9)                 # unlimited never expires
        assert clock.remaining() is None


class TestRetries:
    def test_injected_emit_fault_is_retried(self):
        with Engine(ADDER, chaos=None).session() as s:
            s.process.machine.code.inject_emit_failure(2)
            before = report.serving_stats()["retries"]
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.retries >= 1
            assert report.serving_stats()["retries"] >= before + 1

    def test_backoff_is_charged_against_the_deadline(self):
        policy = RetryPolicy(max_attempts=3, backoff_cycles=500)
        with Engine(ADDER, chaos=None).session(retry=policy) as s:
            s.process.machine.code.inject_emit_failure(2)
            out = s.request("make_adder", (10,), call_args=(5,))
            baseline = s.request("make_adder", (11,), call_args=(5,))
            assert out.retries == 1
            # one backoff of 500 cycles, plus the wasted attempt's probe
            assert out.cycles >= baseline.cycles + 500

    def test_retries_are_bounded(self):
        # A capacity clamp with no recovery defeats every rung: the
        # request must fail with RequestFailed, not loop forever.
        with Engine(ADDER, chaos=None).session() as s:
            code = s.process.machine.code
            code.limit_capacity(len(code.instructions))
            out = s.request("make_adder", (10,), call_args=(5,))
            assert isinstance(out.error, RequestFailed)
            assert out.retries >= 2


class TestDegradationLadder:
    def _icode_broken(self, monkeypatch):
        # Break only *dynamic* installs; the static compiler passes
        # name=/do_link= and must keep working so sessions can start.
        original = IcodeBackend.install

        def boom(self, *args, **kwargs):
            if kwargs.get("name"):
                return original(self, *args, **kwargs)
            raise CodegenError("icode wedged (test)")
        monkeypatch.setattr(IcodeBackend, "install", boom)

    def test_persistent_icode_failure_degrades_to_vcode(self, monkeypatch):
        self._icode_broken(monkeypatch)
        with Engine(ADDER, chaos=None).session() as s:
            before = _degraded("vcode")
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.tier == "vcode" and out.path == "degrade"
            assert _degraded("vcode") == before + 1

    def test_bundle_counts_degradation_per_tier(self, monkeypatch):
        self._icode_broken(monkeypatch)
        eng = Engine(ADDER, chaos=None)
        with eng.session() as s:
            assert s.request("make_adder", (10,), call_args=(5,)).ok
        serving = eng.dump_blackbox()["serving"]
        assert serving == eng.stats()["serving"]
        assert serving["degraded_by_tier"]["vcode"] >= 1

    def test_degraded_requests_are_scored_by_the_slo(self, monkeypatch):
        # Every rung below 0 serves on path "degrade"; the default
        # policy must score those requests, not a path serving never
        # takes.
        self._icode_broken(monkeypatch)
        eng = Engine(ADDER, chaos=None)
        with eng.session() as s:
            for n in range(10):
                out = s.request("make_adder", (n,), call_args=(1,))
                assert out.ok and out.value == n + 1
                assert out.path == "degrade"
        totals = {st.objective.name: st.total
                  for st in eng.slo.status().statuses}
        assert totals["degrade-latency"] == 10

    def test_breaker_opens_then_probes_half_open(self, monkeypatch):
        # Breakers key on the closure *signature*, so every request must
        # hammer the same specialization (same n) to share fate.
        self._icode_broken(monkeypatch)
        eng = Engine(ADDER, chaos=None)
        with eng.session(failure_threshold=2, probe_after=2) as s:
            # Two failing requests trip the patched and cold breakers.
            before = report.serving_stats()["breaker_opens"]
            s.request("make_adder", (7,), call_args=(0,))
            s.request("make_adder", (7,), call_args=(0,))
            assert report.serving_stats()["breaker_opens"] >= before + 2
            states = s.breakers.states()
            assert any(rung == "patched" and state == "open"
                       for (key, rung), state in states.items())
            # While open, requests go straight to vcode without paying
            # for doomed icode attempts.
            out = s.request("make_adder", (7,), call_args=(0,))
            assert out.ok and out.tier == "vcode" and out.retries == 0
            # Heal icode; after the cool-off the half-open probe succeeds
            # and the breaker closes again.
            monkeypatch.undo()
            for _ in range(6):
                out = s.request("make_adder", (7,), call_args=(0,))
                assert out.ok and out.value == 7
            assert out.tier == "patched"
            states = s.breakers.states()
            assert any(rung == "patched" and state == "closed"
                       for (key, rung), state in states.items())

    def test_full_ladder_exhaustion_reports_request_failed(self):
        with Engine(ADDER, chaos=None).session() as s:
            code = s.process.machine.code
            code.limit_capacity(len(code.instructions))
            out = s.request("make_adder", (10,), call_args=(5,))
            assert isinstance(out.error, RequestFailed)
            assert out.error.tier == LADDER[-1]

    def test_trap_storm_pins_execution_to_reference(self):
        plan = ChaosPlan(at={1: "trap", 2: "trap", 3: "trap"})
        eng = Engine(ADDER, chaos=None)
        with eng.session(chaos=plan, failure_threshold=3,
                         probe_after=3) as s:
            for _ in range(3):
                out = s.request("make_adder", (10,), call_args=(5,))
                assert isinstance(out.error, CycleBudgetExceeded)
            # Breaker open: the next (chaos-free) request executes on the
            # reference stepper with the block cache distrusted.
            before = _degraded("reference")
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.exec_engine == "reference"
            assert out.tier == "reference"
            assert _degraded("reference") >= before + 1


class TestBreakerUnit:
    def test_threshold_and_probe_cycle(self):
        b = CircuitBreaker(failure_threshold=2, probe_after=2)
        assert b.allow()
        assert not b.record_failure()
        assert b.record_failure()           # opens
        assert b.state == "open"
        assert not b.allow()                # cool-off 1
        assert not b.allow()                # cool-off 2 -> half-open
        assert b.state == "half-open"
        assert b.allow()                    # the probe
        assert b.record_failure()           # probe failed -> re-open
        assert b.state == "open"
        assert not b.allow() and not b.allow()
        assert b.allow()                    # next probe
        b.record_success()
        assert b.state == "closed" and b.failures == 0
        assert b.opened_count == 2

    def test_board_routes_per_key(self):
        board = BreakerBoard(failure_threshold=1, probe_after=2)
        for _ in range(1):
            board.breaker("k1", 0).record_failure()
        assert board.start_rung("k1") == 1   # k1's rung 0 is open
        assert board.start_rung("k2") == 0   # k2 unaffected
        assert board.open_count() == 1


class TestTelemetryRollup:
    def test_open_session_counts_are_live(self):
        # Every view of the serving counters sees a request as soon as it
        # is served, not when its session closes.
        report.reset()
        eng = Engine(ADDER, chaos=None)
        s = eng.open_session()
        s.request("make_adder", (10,), call_args=(5,))
        s.request("make_adder", (10,), call_args=(6,))
        scrape = parse(render())
        assert REGISTRY.counter("serving.requests").value == 2
        assert eng.stats()["serving"]["requests"] == 2
        assert eng.dump_blackbox()["serving"]["requests"] == 2
        assert eng.dump_blackbox()["serving"] == eng.stats()["serving"]
        assert scrape["serving_requests"]["samples"][0].value == 2
        s.close()
        assert REGISTRY.counter("serving.requests").value == 2

    def test_engine_stats_shape(self):
        eng = Engine(ADDER, chaos=None)
        with eng.session() as s:
            s.request("make_adder", (1,), call_args=(1,))
            stats = eng.stats()
            assert stats["sessions_open"] == 1
            assert set(report.serving_stats()) >= {
                "requests", "completed", "failed", "retries",
                "deadline_misses", "breaker_opens", "degraded",
            }


WORKLOAD = [
    ("make_adder", (10,), (5,)),
    ("make_adder", (10,), (6,)),     # tier-1 hit
    ("make_adder", (11,), (6,)),     # tier-2 patch
    ("make_sum", (50,), (2,)),
    ("make_div", (0,), (4,)),        # trap: div by zero at exec
    ("make_sum", (50,), (3,)),       # hit
    ("make_adder", (12,), (1,)),
    ("make_div", (2,), (9,)),
]


def _replay(session):
    """Run the canonical workload; return a comparable fingerprint."""
    results = []
    for builder, bargs, cargs in WORKLOAD:
        out = session.request(builder, bargs, call_args=cargs)
        results.append((
            out.value,
            type(out.error).__name__ if out.error else None,
            out.tier,
            out.path,
            out.retries,
            out.cycles,
        ))
    return results


class TestDifferential:
    N_THREADS = 8

    def test_threads_match_serial_bit_for_bit(self):
        """N sessions replaying the identical workload concurrently must
        produce results — values, modeled cycles, compile paths, traps —
        identical to a serial replay.  Template sharing is off so every
        session is a self-contained replica of the serial baseline."""
        serial = _replay(
            Engine(PROGRAM, share_templates=False).open_session())
        eng = Engine(PROGRAM, share_templates=False)
        results = [None] * self.N_THREADS
        errors = []

        def client(i):
            try:
                with eng.session() as s:
                    results[i] = _replay(s)
            except BaseException as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i, got in enumerate(results):
            assert got == serial, f"thread {i} diverged from serial replay"

    def test_threads_with_shared_store_agree_on_results(self):
        """With the shared template store on, compile *paths* may differ
        (whoever compiles first donates the template) but every value and
        trap must still match the serial baseline."""
        serial = _replay(Engine(PROGRAM, chaos=None).open_session())
        want = [(v, e) for v, e, *_ in serial]
        eng = Engine(PROGRAM, chaos=None)
        results = [None] * self.N_THREADS
        errors = []

        def client(i):
            try:
                with eng.session() as s:
                    results[i] = [(v, e) for v, e, *_ in _replay(s)]
            except BaseException as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got in results:
            assert got == want
