"""The chaos matrix: every fault class crossed with every serving path,
plus the no-cross-session-corruption guarantee.

Documented landing spots (see repro/serving/chaos.py):

================  =====================================================
fault class       expected outcome
================  =====================================================
``emit_fault``    transient — request succeeds (retry or in-attempt
                  recovery), value correct
``exhaust``       transient — rollback listener restores capacity,
                  request succeeds
``alloc_fault``   transient — request succeeds
``poison``        tampered template evicted by the integrity check,
                  request succeeds via a cold recompile
``deadline``      request fails with DeadlineExceeded, session survives
``trap``          request fails with CycleBudgetExceeded, session
                  survives
``poison_trace``  a formed trace is poisoned; its next dispatch deopts
                  back to superblocks with bit-identical results —
                  request succeeds (a no-op before any trace exists)
``corrupt_disk``  a persisted code-cache entry is tampered with; the
                  sha256 digest rejects it at load and the request is
                  served by a cold compile (a no-op when no
                  ``codecache_dir`` is configured, as here)
================  =====================================================
"""

from __future__ import annotations

import threading

import pytest

from repro import DeadlineExceeded, Engine, report
from repro.errors import CycleBudgetExceeded
from repro.serving import ChaosPlan, chaos_matrix
from repro.serving.chaos import KINDS, from_env
from repro.serving.store import TemplateStore
from repro.telemetry.metrics import REGISTRY

ADDER = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}
"""

#: kind -> (request succeeds?, error type when not)
EXPECT = {
    "emit_fault": (True, None),
    "exhaust": (True, None),
    "alloc_fault": (True, None),
    "poison": (True, None),
    "deadline": (False, DeadlineExceeded),
    "trap": (False, CycleBudgetExceeded),
    "poison_trace": (True, None),
    "corrupt_disk": (True, None),
}

MATRIX = dict(chaos_matrix())


def _check(kind, out, want_value):
    succeeds, error_type = EXPECT[kind]
    if succeeds:
        assert out.ok, f"{kind}: expected recovery, got {out.error!r}"
        assert out.value == want_value
    else:
        assert isinstance(out.error, error_type), \
            f"{kind}: expected {error_type.__name__}, got {out.error!r}"


class TestChaosMatrix:
    @pytest.mark.parametrize("kind", KINDS)
    def test_cold_path(self, kind):
        """Fault injected right before the session's first (cold) compile."""
        eng = Engine(ADDER, chaos=None)
        injected = REGISTRY.labeled("chaos.injected")
        before = injected.snapshot()
        with eng.session(chaos=MATRIX[kind]) as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            _check(kind, out, 15)
            after = injected.snapshot()
            assert {label: n - before.get(label, 0)
                    for label, n in after.items()
                    if n != before.get(label, 0)} == {kind: 1}
            # The session must survive the fault: the next, chaos-free
            # request is served normally.
            again = s.request("make_adder", (20,), call_args=(5,))
            assert again.ok and again.value == 25

    @pytest.mark.parametrize("kind", KINDS)
    def test_hit_path(self, kind):
        """Fault injected before a request served from the Tier-1 memo."""
        eng = Engine(ADDER, chaos=None)
        plan = ChaosPlan(at={2: kind})
        with eng.session(chaos=plan) as s:
            first = s.request("make_adder", (10,), call_args=(1,))
            assert first.ok and first.path == "cold"
            out = s.request("make_adder", (10,), call_args=(2,))
            _check(kind, out, 12)
            if kind == "emit_fault":
                # Arming an emit fault fires the segment's ("fault", ...)
                # invalidation listeners, which drop the Tier-1 memo: the
                # request recompiles cold (and survives the armed fault).
                assert out.path == "cold"
            elif out.ok and kind != "poison":
                # The remaining armed faults don't touch the memo fast
                # path (nothing is emitted or allocated), so the hit
                # stays a hit.  Poison evicts a Tier-2 template, which
                # the memo path never consults.
                assert out.path == "hit"

    @pytest.mark.parametrize("kind", KINDS)
    def test_patched_path(self, kind):
        """Fault injected before a request served by Tier-2 clone+patch."""
        eng = Engine(ADDER, chaos=None)
        with eng.session() as warm:
            assert warm.request("make_adder", (10,), call_args=(1,)).ok
        poisoned_before = REGISTRY.counter("cache.poisoned_evictions").value
        with eng.session(chaos=MATRIX[kind]) as s:
            out = s.request("make_adder", (99,), call_args=(1,))
            _check(kind, out, 100)
            if kind == "poison":
                # The tampered template was caught by the checksum and
                # evicted; the request fell back to a cold compile.
                assert out.path == "cold"
                poisoned = REGISTRY.counter("cache.poisoned_evictions").value
                assert poisoned == poisoned_before + 1
            elif out.ok:
                assert out.path in ("patched", "cold")

    def test_periodic_schedule_is_deterministic(self):
        plan = ChaosPlan(every={"trap": 3})
        eng = Engine(ADDER, chaos=None)
        with eng.session(chaos=plan) as s:
            statuses = []
            for i in range(1, 8):
                out = s.request("make_adder", (10,), call_args=(i,))
                statuses.append(out.ok)
            # Requests 3 and 6 trap; everything else is clean.
            assert statuses == [True, True, False, True, True, False, True]


SUMMER = """
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
"""


class TestTracePoisoning:
    def test_poisoned_trace_deopts_with_identical_results(self):
        """Poison a formed trace mid-flight: the next dispatch must deopt
        back to the superblock path with bit-identical results, and the
        loop must re-promote afterwards (the deopt re-arms the counter)."""
        # No shared template store: both sessions must compile cold so
        # their per-request cycle totals are comparable.
        eng = Engine(SUMMER, chaos=None, share_templates=False)
        plan = ChaosPlan(at={4: "poison_trace"})
        deopts_before = report.tiering_stats()["deopts"]
        clean_values = []
        with eng.session(tiering={"hot_threshold": 2}) as clean:
            for i in range(1, 8):
                out = clean.request("make_sum", (50,), call_args=(i,))
                assert out.ok
                clean_values.append((out.value, out.cycles))
        promos_mid = report.tiering_stats()["promotions"]
        assert promos_mid > 0, "loop workload never formed a trace"
        with eng.session(chaos=plan, tiering={"hot_threshold": 2}) as s:
            for i in range(1, 8):
                out = s.request("make_sum", (50,), call_args=(i,))
                assert out.ok, f"request {i} failed: {out.error!r}"
                assert (out.value, out.cycles) == clean_values[i - 1], \
                    f"request {i} diverged after the trace was poisoned"
        stats = report.tiering_stats()
        assert stats["deopts"] > deopts_before
        assert stats["promotions"] > promos_mid, \
            "engine never re-promoted after the deopt"

    def test_poison_trace_noop_without_tiered_engine(self):
        """Under engine="block" the chaos hook must be a harmless no-op."""
        eng = Engine(ADDER, chaos=None)
        plan = ChaosPlan(at={1: "poison_trace"})
        with eng.session(chaos=plan, engine="block") as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15


class TestSessionIsolation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_chaos_session_cannot_corrupt_a_clean_one(self, kind):
        """A clean session sharing the engine (and the Tier-2 store) with
        a chaos-ridden one must see correct values on every request."""
        eng = Engine(ADDER, chaos=None)
        noisy = eng.open_session(chaos=ChaosPlan(every={kind: 1}))
        clean = eng.open_session()
        try:
            for i in range(1, 6):
                noisy.request("make_adder", (i,), call_args=(100,))
                out = clean.request("make_adder", (i,), call_args=(100,))
                assert out.ok and out.value == 100 + i, \
                    f"{kind}: clean session corrupted on round {i}"
        finally:
            noisy.close()
            clean.close()

    def test_tamper_after_match_never_reaches_a_clone(self, monkeypatch):
        """Another session's ``poison`` can land between the store handing
        out a template and the clone copying it.  The clone must copy,
        and the publish-gate audit replay, only the body whose checksum
        was verified: here the tamper is caught, the template evicted,
        and the request served by a cold compile."""
        eng = Engine(ADDER, chaos=None)
        with eng.session() as a:
            out = a.request("make_adder", (1,), call_args=(0,))
            assert out.ok and out.path == "cold"
        match = TemplateStore.match

        def match_then_tamper(store, *args, **kwargs):
            template = match(store, *args, **kwargs)
            if template is not None:
                store.tamper_first()
            return template

        monkeypatch.setattr(TemplateStore, "match", match_then_tamper)
        poisoned = REGISTRY.counter("cache.poisoned_evictions")
        before = poisoned.value
        with eng.session() as b:
            out = b.request("make_adder", (2,), call_args=(0,))
        assert out.ok, out.error
        assert out.value == 2 and out.path == "cold"
        assert poisoned.value == before + 1

    def test_tampered_patch_hole_never_reaches_a_clone(self):
        """The checksum covers a template's patch records, not only its
        body: a hole addend tampered with in the shared store would make
        the clone compute 1007 here.  Instead the template is evicted
        and the request served by a cold compile."""
        eng = Engine(ADDER, chaos=None)
        with eng.session() as a:
            out = a.request("make_adder", (1,), call_args=(0,))
            assert out.ok and out.path == "cold"
        (_shape, template), = eng.store.items()
        rel, field, org, scl, add, is_float = template.holes[0]
        assert add == 0
        template.holes[0] = (rel, field, org, scl, 1000, is_float)
        poisoned = REGISTRY.counter("cache.poisoned_evictions")
        before = poisoned.value
        with eng.session() as b:
            out = b.request("make_adder", (2,), call_args=(5,))
        assert out.ok, out.error
        assert out.value == 7 and out.path == "cold"
        assert poisoned.value == before + 1

    def test_concurrent_chaos_and_clean_sessions(self):
        """Thread a chaos session against clean sessions; the clean ones
        must stay bit-correct throughout."""
        eng = Engine(ADDER, chaos=None)
        errors = []

        def noisy_client():
            plan = ChaosPlan(every={"emit_fault": 2, "poison": 3})
            try:
                with eng.session(chaos=plan) as s:
                    for i in range(1, 12):
                        s.request("make_adder", (i,), call_args=(0,))
            except BaseException as exc:      # pragma: no cover
                errors.append(exc)

        def clean_client():
            try:
                with eng.session() as s:
                    for i in range(1, 12):
                        out = s.request("make_adder", (i,), call_args=(0,))
                        assert out.ok and out.value == i
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=noisy_client)] + \
                  [threading.Thread(target=clean_client) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestChaosConfig:
    def test_from_env_parses_periods(self):
        plan = from_env("emit_fault:3, trap:5")
        assert plan.every == {"emit_fault": 3, "trap": 5}
        assert plan.events_for(15) == ("emit_fault", "trap")
        assert plan.events_for(4) == ()

    def test_from_env_off(self):
        assert from_env("") is None
        assert from_env("off") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosPlan(at={1: "bitflip"})

    def test_engine_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "trap:2")
        eng = Engine(ADDER)
        assert eng.chaos is not None and eng.chaos.every == {"trap": 2}
        with eng.session() as s:
            assert s.request("make_adder", (1,), call_args=(1,)).ok
            out = s.request("make_adder", (2,), call_args=(1,))
            assert isinstance(out.error, CycleBudgetExceeded)
