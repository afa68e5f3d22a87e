"""The unified telemetry subsystem: metrics registry, span tracer,
exporters, and the end-to-end lifecycle trace.

The load-bearing invariants (ISSUE acceptance criteria):

* a traced blur compile()+run produces a span tree that nests correctly,
  whose compile span's phase children tile it and sum to the cost
  model's phase totals *exactly*, and whose chrome export is a valid
  trace-event JSON document;
* the ``report`` accessors stay equivalent to the registry;
* fallback ``events`` are bounded while the count stays exact.
"""

import json
import threading

import pytest

from repro import Engine, report
from repro.apps import ALL_APPS
from repro.apps.harness import measure
from repro.telemetry import export, metrics, trace
from repro.telemetry.metrics import (
    DEFAULT_EVENT_CAPACITY,
    EventLog,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
)
from repro.telemetry.trace import NULL, Tracer, activate
from tests.conftest import compile_c


@pytest.fixture(autouse=True)
def _fresh_registry():
    report.reset()
    yield
    report.reset()


# -- metric types -------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        reg.reset()
        assert c.value == 0

    def test_registry_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.labeled("x")

    def test_labeled_counter_preset_survives_reset(self):
        lc = LabeledCounter("layers", preset=("a", "b"))
        lc.inc("a")
        lc.inc("c", 3)
        assert lc.snapshot() == {"a": 1, "b": 0, "c": 3}
        lc.reset()
        assert lc.snapshot() == {"a": 0, "b": 0}

    def test_histogram_buckets_and_mean(self):
        h = Histogram("h", (10, 100))
        for v in (5, 50, 500):
            h.record(v)
        assert h.buckets == [1, 1, 1]
        assert h.count == 3 and h.total == 555
        assert h.min == 5 and h.max == 500
        assert h.mean == pytest.approx(185.0)
        snap = h.snapshot()
        assert snap["bounds"] == [10, 100]
        with pytest.raises(ValueError):
            Histogram("bad", (100, 10))

    def test_histogram_percentile_edge_cases(self):
        h = Histogram("p", (10, 100))
        # Empty: no sample to report, not a crash and not a zero.
        assert h.percentile(0.5) is None
        h.record(42)
        # A single sample IS every percentile.
        assert h.percentile(0.0) == 42
        assert h.percentile(0.5) == 42
        assert h.percentile(1.0) == 42
        for v in (1, 7, 900):
            h.record(v)
        # p=0 and p=100 pin to the exact extremes, not bucket bounds.
        assert h.percentile(0.0) == 1
        assert h.percentile(1.0) == 900
        mid = h.percentile(0.5)
        assert 1 <= mid <= 900

    def test_histogram_percentile_rejects_bad_quantiles(self):
        h = Histogram("p", (10,))
        h.record(1)
        for bad in (-0.1, 1.5, 100):
            with pytest.raises(ValueError, match="quantile"):
                h.percentile(bad)

    def test_event_log_is_bounded_with_exact_total(self):
        log = EventLog("e", capacity=4)
        for i in range(10):
            log.append(("ev", i))
        assert log.total == 10
        assert len(log) == 4
        assert log.dropped == 6
        assert list(log) == [("ev", i) for i in (6, 7, 8, 9)]
        assert log[0] == ("ev", 6)
        log.reset()
        assert log.total == 0 and len(log) == 0

    def test_record_compile_feeds_three_histograms(self):
        metrics.record_compile("cold", 12_000, 40)
        snap = metrics.REGISTRY.snapshot()
        assert snap["compile.codegen_cycles"]["count"] == 1
        assert snap["compile.generated_instructions"]["sum"] == 40
        assert snap["compile.latency.cold"]["sum"] == 12_000

    def test_event_log_resize_keeps_newest(self):
        log = EventLog("e", capacity=8)
        for i in range(8):
            log.append(i)
        log.resize(4)
        assert log.capacity == 4
        assert list(log) == [4, 5, 6, 7]
        assert log.total == 8                  # exact total survives
        log.resize(16)
        log.append(99)
        assert list(log) == [4, 5, 6, 7, 99]
        with pytest.raises(ValueError):
            log.resize(0)

    def test_histogram_exemplars_capture_trace_ids(self):
        h = Histogram("lat", (10, 100))
        h.record(5)                            # no ambient context: none
        with metrics.exemplar_context("req#1"):
            h.record(50)
        snap = h.snapshot()
        assert snap["exemplars"] == {1: [50, "req#1"]}
        assert metrics.current_exemplar() is None
        h.reset()
        assert "exemplars" not in h.snapshot()


# -- report accessors over the registry ---------------------------------------


class TestReportAccessors:
    def test_fallback_events_are_capped(self):
        for i in range(DEFAULT_EVENT_CAPACITY + 10):
            report.record_fallback("icode", "vcode", f"reason {i}")
        assert report.fallback_count() == DEFAULT_EVENT_CAPACITY + 10
        stats = report.fallback_stats()
        assert stats["count"] == DEFAULT_EVENT_CAPACITY + 10
        events = stats["events"]
        assert len(events) == DEFAULT_EVENT_CAPACITY
        # oldest dropped, newest kept, tuple shape preserved
        assert events[-1] == ("icode", "vcode",
                              f"reason {DEFAULT_EVENT_CAPACITY + 9}")

    def test_accessors_track_registry(self):
        report.record_cache_hit(100)
        report.record_verify("ticklint", 0, 0.5)
        assert report.cache_stats()["hits"] == 1
        assert metrics.REGISTRY.get("cache.hits").value == 1
        assert report.verify_stats()["checks_run"] == 1
        assert report.verify_stats()["diagnostics"]["ticklint"] == 0
        report.reset()
        assert report.cache_stats()["cycles_saved"] == 0
        assert metrics.REGISTRY.get("cache.hits").value == 0


# -- the tracer ---------------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_advance(self):
        t = Tracer()
        outer = t.begin("outer", cat="spec")
        t.advance(10)
        with t.span("inner", cat="compile"):
            t.advance(5)
        t.end(outer)
        assert t.cursor == 15
        inner, outer = t.spans
        assert inner.parent == outer.sid
        assert (inner.ts, inner.dur) == (10, 5)
        assert (outer.ts, outer.end) == (0, 15)
        assert "wall_us" in outer.args

    def test_end_advances_by_modeled_cost(self):
        t = Tracer()
        s = t.begin("exec:f", cat="exec")
        t.end(s, advance=140, trap=None)
        assert s.dur == 140 and s.args["trap"] is None

    def test_instant_and_add_complete(self):
        t = Tracer()
        parent = t.begin("run", cat="spec")
        mark = t.instant("fallback", reason="x")
        assert mark.parent == parent.sid and mark.dur == 0
        t.advance(100)
        t.end(parent)
        child = t.add_complete("compile#1", "compile", ts=-5, end=60,
                               parent=parent)
        assert child.parent == parent.sid
        assert child.ts == parent.ts  # clamped into the parent
        assert child.end == 60

    def test_span_cap_drops_but_counts(self):
        t = Tracer()
        t.MAX_SPANS = 2
        for i in range(4):
            t.instant(f"e{i}")
        assert len(t.spans) == 2 and t.dropped == 2
        t.clear()
        assert t.spans == [] and t.dropped == 0 and t.cursor == 0

    def test_dropped_spans_feed_the_registry_counter(self):
        # Silent span loss was a bug: retention-capped drops must be
        # visible in scrapes, not only on the tracer instance.
        counter = metrics.REGISTRY.counter("telemetry.trace.dropped_spans")
        base = counter.value
        t = Tracer()
        t.MAX_SPANS = 1
        for i in range(4):
            t.instant(f"e{i}")
        assert counter.value - base == 3

    def test_dropped_spans_surface_in_export_summary(self):
        t = Tracer()
        t.MAX_SPANS = 2
        for i in range(5):
            t.instant(f"e{i}")
        text = export.summary(t)
        assert "3 spans dropped" in text
        t2 = Tracer()
        t2.instant("kept")
        assert "spans dropped" not in export.summary(t2)

    def test_null_tracer_is_inert(self):
        assert not NULL.enabled
        with NULL.span("x") as s:
            assert s is None
        assert trace.active() is NULL
        real = Tracer()
        with trace.activate(real):
            assert trace.active() is real
        assert trace.active() is NULL


# -- end-to-end lifecycle trace -----------------------------------------------


def _span_index(tracer):
    return {s.sid: s for s in tracer.spans}


def _traced_measure(name, **options):
    """``measure`` under a fresh tracer: (result, tracer)."""
    with activate(Tracer()) as tracer:
        return measure(ALL_APPS[name], **options), tracer


class TestLifecycleTrace:
    @pytest.fixture(scope="class")
    def blur(self):
        report.reset()
        return _traced_measure("blur", backend="icode")

    def test_measure_attaches_tracer_only_when_asked(self, blur):
        result, tracer = blur
        assert not hasattr(result, "tracer")
        assert any(s.name == "exec:blur" for s in tracer.spans)
        # Outside an activation nothing is recorded anywhere.
        measure(ALL_APPS["pow"], backend="icode")
        assert trace.active() is NULL and NULL.spans == ()

    def test_spans_nest_correctly(self, blur):
        _, tracer = blur
        by_sid = _span_index(tracer)
        for span in tracer.spans:
            if span.parent is None:
                continue
            parent = by_sid[span.parent]
            assert parent.ts <= span.ts <= span.end <= parent.end, \
                f"{span.name} escapes {parent.name}"

    def test_phase_children_tile_compile_span_exactly(self, blur):
        result, tracer = blur
        spans = tracer.spans
        compiles = [s for s in spans if s.cat == "compile"]
        assert len(compiles) == 1, "blur performs exactly one compile()"
        (c,) = compiles
        kids = sorted((s for s in spans
                       if s.cat == "phase" and s.parent == c.sid),
                      key=lambda s: s.ts)
        assert kids[0].ts == c.ts and kids[-1].end == c.end
        for a, b in zip(kids, kids[1:]):
            assert a.end == b.ts, "phase children must tile with no gaps"
        # ... and the tiling is the cost model's phase totals exactly.
        assert sum(k.dur for k in kids) == c.dur == result.codegen_cycles
        assert c.args["path"] == "cold"
        assert c.args["backend"] == "icode"
        entry, end = c.args["code_range"]
        assert c.args["entry"] == entry < end

    def test_exec_span_matches_measured_cycles(self, blur):
        result, tracer = blur
        # The static side's call is on the timeline too, as exec:blur_static.
        execs = [s for s in tracer.spans if s.name == "exec:blur"]
        assert execs, "the timed dynamic run must appear on the trace"
        assert execs[-1].dur == result.dynamic_cycles
        (static,) = [s for s in tracer.spans if s.name == "exec:blur_static"]
        assert static.dur == result.static_cycles

    def test_spec_run_span_encloses_the_compile(self, blur):
        _, tracer = blur
        spans = tracer.spans
        run = next(s for s in spans if s.cat == "spec")
        compile_span = next(s for s in spans if s.cat == "compile")
        assert compile_span.parent == run.sid

    def test_verify_layers_appear_as_instants(self, blur):
        _, tracer = blur
        names = {s.name for s in tracer.spans if s.cat == "verify"}
        assert "verify:codeaudit" in names

    def test_chrome_export_schema(self, blur):
        _, tracer = blur
        doc = export.chrome_trace(tracer, title="blur")
        # must round-trip as strict JSON (Perfetto requirement)
        doc = json.loads(json.dumps(doc))
        events = doc["traceEvents"]
        assert doc["otherData"]["clock"] == "modeled cycles"
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        for e in events:
            assert {"name", "ph", "pid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0
        assert len([e for e in events if e["ph"] != "M"]) == \
            len(tracer.spans)

    def test_jsonl_and_summary_render(self, blur):
        _, tracer = blur
        lines = export.to_jsonl(tracer).strip().splitlines()
        assert len(lines) == len(tracer.spans) + 1
        assert "metrics" in json.loads(lines[-1])
        text = export.summary(tracer)
        assert "compile" in text and "timeline" in text

    def test_tiered_promotions_are_events_not_compiles(self):
        """The trace tier's promotions are ``event`` spans, so blur on
        the tiered engine still shows one compile span, tiled by its
        phase children."""
        result, tracer = _traced_measure("blur", backend="icode",
                                         engine="tiered")
        spans = tracer.spans
        assert any(s.name == "promote" and s.cat == "event" for s in spans)
        (c,) = [s for s in spans if s.cat == "compile"]
        kids = [s for s in spans if s.cat == "phase" and s.parent == c.sid]
        assert sum(k.dur for k in kids) == c.dur == result.codegen_cycles


class TestKnobPlumbing:
    SRC = """
    int build(void) {
        int vspec a = param(int, 0);
        return (int)compile(`(a + 1), int);
    }
    """

    def test_telemetry_off_by_default(self):
        proc = compile_c(self.SRC)
        proc.run("build")
        assert not hasattr(proc, "tracer")
        assert not hasattr(proc.machine, "tracer")
        assert trace.active() is NULL and NULL.spans == ()

    def test_cache_paths_reach_compile_span_args(self):
        proc = compile_c(self.SRC, codecache=True)
        with activate(Tracer()) as tracer:
            proc.run("build")
            proc.run("build")
        paths = [s.args["path"] for s in tracer.spans
                 if s.cat == "compile"]
        assert paths == ["cold", "hit"]
        snap = metrics.REGISTRY.snapshot()
        assert snap["compile.latency.hit"]["count"] == 1

    def test_shared_tracer_spans_static_and_dynamic(self):
        from repro import TccCompiler

        with activate(Tracer()) as tracer:
            proc = TccCompiler().compile(self.SRC).start(codecache=False)
            proc.run("build")
        cats = {s.cat for s in tracer.spans}
        assert {"static", "spec", "compile", "phase"} <= cats

    def test_invalid_mode_rejected(self):
        """The tracer has no modes or knobs: ``activate`` is its only
        entry point, so a ``telemetry=`` option is an unknown name."""
        with pytest.raises(TypeError, match="telemetry"):
            compile_c(self.SRC, telemetry="loud")


class TestOneEntryPoint:
    """``activate`` is the tracer's only entry point, and a tracer
    records only the thread that activated it."""

    SRC = """
    int make_adder(int n) {
        int vspec p = param(int, 0);
        return (int)compile(`($n + p), int);
    }
    int make_scaler(int n) {
        int vspec p = param(int, 0);
        return (int)compile(`($n * p), int);
    }
    """

    @staticmethod
    def _assert_compiles_tiled(tracer):
        compiles = [s for s in tracer.spans if s.cat == "compile"]
        assert compiles
        for c in compiles:
            kids = sorted((s for s in tracer.spans
                           if s.cat == "phase" and s.parent == c.sid),
                          key=lambda s: s.ts)
            at = c.ts
            for kid in kids:
                assert kid.ts == at
                at = kid.end
            assert at == c.end

    def test_tracer_ignores_a_session_served_on_another_thread(self):
        eng = Engine(self.SRC, chaos=None)
        outs = []

        def serve():
            with eng.session() as s:
                outs.append(s.request("make_adder", (3,), call_args=(4,)))

        with activate(Tracer()) as tracer:
            worker = threading.Thread(target=serve)
            worker.start()
            worker.join()
        assert outs[0].value == 7
        assert tracer.spans == [] and tracer.cursor == 0
        assert eng.recorder.records()[-1]["spans"] == ()

    def test_threads_tracing_their_own_sessions_stay_disjoint(self):
        eng = Engine(self.SRC, chaos=None)
        barrier = threading.Barrier(2)
        tracers = {}

        def serve(builder):
            with activate(Tracer()) as tracer:
                with eng.session() as s:
                    barrier.wait()
                    for n in range(6):
                        assert s.request(builder, (n,), call_args=(2,)).ok
            tracers[builder] = tracer

        workers = [threading.Thread(target=serve, args=(b,))
                   for b in ("make_adder", "make_scaler")]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        for builder, other in (("make_adder", "make_scaler"),
                               ("make_scaler", "make_adder")):
            tracer = tracers[builder]
            runs = [s.name for s in tracer.spans if s.cat == "spec"]
            assert runs == [f"run:{builder}"] * 6
            assert not any(other in s.name for s in tracer.spans)
            assert len([s for s in tracer.spans if s.cat == "exec"]) == 6
            self._assert_compiles_tiled(tracer)

    def test_recorder_row_keeps_the_last_spans_only_when_traced(self):
        eng = Engine(self.SRC, chaos=None)
        with eng.session() as s:
            s.request("make_adder", (1,), call_args=(2,))
            with activate(Tracer()) as tracer:
                s.request("make_adder", (2,), call_args=(2,))
            s.request("make_adder", (3,), call_args=(2,))
        before, traced, after = eng.recorder.records()
        assert before["spans"] == () and after["spans"] == ()
        assert len(tracer.spans) > 8
        assert traced["spans"] == tuple((sp.name, sp.cat, sp.dur)
                                        for sp in tracer.spans[-8:])
        assert NULL.spans == ()
