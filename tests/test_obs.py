"""The observability plane: SLO burn rates, the flight recorder, the
OpenMetrics exporter/endpoint, and the CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request

import pytest

from repro import Engine, report
from repro.report import __main__ as report_cli
from repro.icode.backend import IcodeBackend
from repro.errors import CodegenError
from repro.obs import workload
from repro.obs.flightrec import (
    DEADLINE_BURST,
    MAX_DUMPS,
    FlightRecorder,
)
from repro.obs.openmetrics import CONTENT_TYPE, parse, render, validate
from repro.obs.server import ObsServer, attach, attached, slo_status
from repro.obs.slo import (
    EXHAUSTED_RUNG,
    PAGE_RUNG,
    SloEngine,
    SloObjective,
    SloPolicy,
)
from repro.serving import ChaosPlan
from repro.telemetry.metrics import REGISTRY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ADDER = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}
"""


@pytest.fixture(autouse=True)
def _clean_registry():
    report.reset()
    yield
    report.reset()
    attach(None)


def _fill(slo, good=0, bad=0, path="hit", cycles=1):
    for _ in range(good):
        slo.observe(path, cycles, True)
    for _ in range(bad):
        slo.observe(path, cycles, False)


# -- SLO objectives and burn-rate math ----------------------------------------

class TestSloObjective:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SloObjective("x", kind="throughput")
        with pytest.raises(ValueError, match="threshold"):
            SloObjective("x", kind="latency")
        with pytest.raises(ValueError, match="target"):
            SloObjective("x", threshold=10, target=1.5)
        with pytest.raises(ValueError, match="path"):
            SloObjective("x", threshold=10, path="nope")
        with pytest.raises(ValueError, match="windows"):
            SloObjective("x", threshold=10, fast_window=99, slow_window=3)
        with pytest.raises(ValueError, match="unit"):
            SloObjective("x", threshold=10, unit="seconds")

    def test_budget_is_one_minus_target(self):
        assert SloObjective("x", threshold=5, target=0.99).budget == \
            pytest.approx(0.01)

    def test_policy_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloPolicy([SloObjective("a", threshold=1),
                       SloObjective("a", threshold=2)])


class TestBurnRates:
    def _latency_engine(self, **kw):
        defaults = dict(threshold=100, target=0.9, fast_window=16,
                        slow_window=64, fast_burn=5.0, slow_burn=2.0,
                        min_samples=8)
        defaults.update(kw)
        return SloEngine(SloPolicy([SloObjective("lat", **defaults)]))

    def test_all_good_is_ok_with_full_budget(self):
        slo = self._latency_engine()
        _fill(slo, good=50)
        s = slo.status().statuses[0]
        assert s.alert == "ok" and s.ok
        assert s.budget_remaining == pytest.approx(1.0)

    def test_latency_objective_scores_threshold(self):
        slo = self._latency_engine()
        slo.observe("hit", 99, True)     # within
        slo.observe("hit", 101, True)    # violating
        s = slo.status().statuses[0]
        assert (s.total, s.violations) == (2, 1)

    def test_latency_scores_only_matching_path(self):
        slo = self._latency_engine(path="hit")
        slo.observe("cold", 10**9, True)     # other path: ignored
        slo.observe("hit", 1, True)
        assert slo.status().statuses[0].total == 1

    def test_failures_do_not_count_as_latency(self):
        slo = self._latency_engine()
        slo.observe("hit", 10**9, False)
        assert slo.status().statuses[0].total == 0

    def test_acute_storm_pages_on_fast_window(self):
        # 100 clean requests keep the cumulative budget healthy; then 8
        # violations in the 16-wide fast window burn at 0.5/0.1 = 5x.
        slo = self._latency_engine()
        _fill(slo, good=100)
        _fill(slo, good=0, bad=0)
        for _ in range(8):
            slo.observe("hit", 200, True)
        s = slo.status().statuses[0]
        assert s.burn_fast >= 5.0
        assert s.alert == "page" and not s.ok

    def test_sustained_leak_warns_on_slow_window(self):
        # ~25% violations: slow burn 2.5 >= 2.0 but fast burn < 5.
        slo = self._latency_engine(slow_window=32)
        _fill(slo, good=400)
        for i in range(32):
            slo.observe("hit", 200 if i % 4 == 0 else 50, True)
        s = slo.status().statuses[0]
        assert s.alert == "warn"
        assert s.ok          # warn is a trend signal, not a breach

    def test_exhausted_budget(self):
        slo = self._latency_engine()
        _fill(slo, good=8)
        for _ in range(8):
            slo.observe("hit", 200, True)    # 50% violations vs 10% budget
        s = slo.status().statuses[0]
        assert s.alert == "exhausted"
        assert s.budget_remaining <= 0.0
        assert not slo.status().ok
        assert slo.status().exhausted == ("lat",)
        assert slo.status().worst() == "exhausted"

    def test_min_samples_suppresses_early_alerts(self):
        slo = self._latency_engine(min_samples=16)
        for _ in range(8):
            slo.observe("hit", 200, True)
        assert slo.status().statuses[0].alert == "ok"

    def test_reset_zeroes_windows(self):
        slo = self._latency_engine()
        _fill(slo, good=5, bad=0)
        slo.reset()
        s = slo.status().statuses[0]
        assert (slo.observed, s.total, s.fast_n) == (0, 0, 0)


class TestProtectiveRung:
    def _availability(self, protective=True):
        return SloEngine(SloPolicy(
            [SloObjective("avail", kind="availability", target=0.9,
                          fast_window=16, fast_burn=5.0, min_samples=8)],
            protective=protective))

    def test_monitor_only_policy_never_protects(self):
        slo = self._availability(protective=False)
        _fill(slo, bad=20)
        assert slo.protective_rung() == 0

    def test_page_floors_at_rung_one(self):
        slo = self._availability()
        _fill(slo, good=100)
        _fill(slo, bad=8)            # fast window 50% bad: page, not yet
        assert slo.status().statuses[0].alert == "page"
        assert slo.protective_rung() == PAGE_RUNG

    def test_exhausted_floors_at_rung_two(self):
        slo = self._availability()
        _fill(slo, good=8, bad=8)
        assert slo.status().statuses[0].alert == "exhausted"
        assert slo.protective_rung() == EXHAUSTED_RUNG

    def test_latency_objectives_never_protect(self):
        slo = SloEngine(SloPolicy(
            [SloObjective("lat", threshold=10, target=0.9, min_samples=4)],
            protective=True))
        for _ in range(20):
            slo.observe("hit", 100, True)
        assert slo.status().statuses[0].alert == "exhausted"
        assert slo.protective_rung() == 0

    def test_engine_degrades_before_budget_is_gone(self):
        # An availability page floors the ladder at rung 1: the request
        # is served by the conservative cold build (path "degrade")
        # while error budget remains.
        slo = self._availability()
        _fill(slo, good=100)
        _fill(slo, bad=8)
        eng = Engine(ADDER, chaos=None, slo=slo, recorder=None)
        with eng.session() as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.path == "degrade" and out.tier == "cold"

    def test_engine_exhausted_floors_at_vcode(self):
        slo = self._availability()
        _fill(slo, good=8, bad=8)
        eng = Engine(ADDER, chaos=None, slo=slo, recorder=None)
        with eng.session() as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.tier == "vcode"


# -- the flight recorder ------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=4, name="t")
        base = REGISTRY.counter("obs.flightrec.dropped_records").value
        for i in range(10):
            rec.record(_record_kwargs(i))
        assert len(rec) == 4
        assert rec.records()[0]["index"] == 7  # oldest retained
        assert REGISTRY.counter(
            "obs.flightrec.dropped_records").value - base == 6

    def test_deadline_burst_trigger_fires_itself(self):
        rec = FlightRecorder(capacity=32, name="t")
        for i in range(DEADLINE_BURST):
            rec.record(_record_kwargs(i, error="DeadlineExceeded",
                                      ok=False))
        kinds = [e["kind"] for e in rec.events.snapshot()["recent"]]
        assert "deadline_burst" in kinds

    def test_unknown_trigger_kind_rejected(self):
        with pytest.raises(ValueError, match="trigger"):
            FlightRecorder(name="t").trigger("nonsense")

    def test_bundle_shape(self):
        rec = FlightRecorder(capacity=8, name="t")
        rec.record(_record_kwargs(1))
        bundle = rec.trigger("manual")
        assert bundle["recorder"] == "t"
        assert bundle["trigger"]["kind"] == "manual"
        assert bundle["records"][0]["correlation_id"] == "s#1"
        assert "serving" in bundle and "events" in bundle
        json.dumps(bundle)                      # self-contained JSON

    def test_dumps_rotate(self, tmp_path):
        rec = FlightRecorder(capacity=8, dump_dir=str(tmp_path), name="t")
        rec.record(_record_kwargs(1))
        for _ in range(MAX_DUMPS + 2):
            rec.trigger("manual")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert f"blackbox-{MAX_DUMPS - 1}.json" in names
        assert f"blackbox-{MAX_DUMPS}.json" not in names
        with open(tmp_path / "blackbox-0.trace.json") as fh:
            trace = json.load(fh)
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

    def test_env_var_configures_dump_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        assert FlightRecorder(name="t").dump_dir == str(tmp_path)

    def test_reset_clears_ring(self):
        rec = FlightRecorder(capacity=8, name="t")
        rec.record(_record_kwargs(1))
        rec.reset()
        assert len(rec) == 0 and rec.records() == []


def _record_kwargs(i, *, ok=True, error=None):
    return {
        "session": "s", "builder": "make_adder",
        "correlation_id": f"s#{i}", "ok": ok, "error": error,
        "tier": "patched", "path": "hit", "retries": 0, "cycles": 100,
        "deadline": None, "deadline_slack": None, "rungs": [0],
        "exec_engine": "block", "chaos": (), "breaker_opens": 0,
        "wall_us": 10.0, "spans": (),
    }


class TestBlackboxReconstruction:
    """Acceptance: a chaos-triggered breaker open produces a bundle
    sufficient to reconstruct the demotion after the fact."""

    N_CONTEXT = 4      # the bundle must retain at least this much tail

    def _icode_broken(self, monkeypatch):
        original = IcodeBackend.install

        def boom(self, *args, **kwargs):
            if kwargs.get("name"):
                return original(self, *args, **kwargs)
            raise CodegenError("icode wedged (test)")
        monkeypatch.setattr(IcodeBackend, "install", boom)

    def test_breaker_open_dumps_reconstructable_bundle(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        self._icode_broken(monkeypatch)
        eng = Engine(ADDER, chaos=None)
        with eng.session(failure_threshold=2, probe_after=4) as s:
            for i in range(6):
                out = s.request("make_adder", (7,), call_args=(i,))
                assert out.ok                   # degraded, not failed
        # The recorder fired on the breaker open and dumped to disk.
        dumps = sorted(p for p in tmp_path.iterdir()
                       if p.suffix == ".json" and "trace" not in p.name)
        assert dumps, "breaker open produced no blackbox dump"
        bundles = []
        for dump in dumps:
            with open(dump) as fh:
                bundles.append(json.load(fh))
        # the richest dump (a later re-open retains the longest tail)
        bundle = max(bundles, key=lambda b: len(b["records"]))
        # 1. the trigger event identifies what fired and on which request
        assert bundle["trigger"]["kind"] == "breaker_open"
        assert bundle["trigger"]["correlation_id"].startswith("session-")
        kinds = [e["kind"] for e in bundle["events"]["recent"]]
        assert "breaker_open" in kinds
        # 2. rung transitions are reconstructable from the records: the
        # pre-open requests show the 0->1 demotion per compile, and
        # every request names its served tier.
        records = bundle["records"]
        assert any(r["rungs"] and max(r["rungs"]) >= 1 for r in records)
        assert all(r["tier"] for r in records)
        opened_at = [r for r in records if r["breaker_opens"]]
        assert opened_at, "no record carries the breaker-open edge"
        # 3. every outcome up to the trigger is present, in order — at
        # least the last N once enough requests have been served.
        assert len(records) >= min(self.N_CONTEXT,
                                   bundle["trigger"]["index"])
        assert len(records) == bundle["trigger"]["index"]
        indexes = [r["index"] for r in records]
        assert indexes == sorted(indexes)
        # 4. the live bundle agrees with the dumped one and retains the
        # whole run's tail.
        live = eng.dump_blackbox()
        assert len(live["records"]) >= self.N_CONTEXT
        shared = len(records)
        assert [r["correlation_id"] for r in live["records"]][:shared] == \
            [r["correlation_id"] for r in records]
        assert "slo" in live                    # SLO status rides along

    def test_chaos_poison_triggers_bundle(self):
        plan = ChaosPlan(at={2: "poison"})
        eng = Engine(ADDER, chaos=None)
        with eng.session(chaos=plan) as s:
            s.request("make_adder", (7,), call_args=(1,))
            s.request("make_adder", (8,), call_args=(1,))
        snap = REGISTRY.labeled("obs.flightrec.triggers").snapshot()
        assert snap.get("chaos_poison", 0) >= 1

    def test_trap_storm_triggers_once_on_pin(self):
        plan = ChaosPlan(at={1: "trap", 2: "trap", 3: "trap"})
        eng = Engine(ADDER, chaos=None)
        with eng.session(chaos=plan, failure_threshold=3,
                         probe_after=16) as s:
            for _ in range(3):
                s.request("make_adder", (10,), call_args=(5,))
            for _ in range(3):      # pinned to reference: one trigger
                out = s.request("make_adder", (10,), call_args=(5,))
                assert out.exec_engine == "reference"
        snap = REGISTRY.labeled("obs.flightrec.triggers").snapshot()
        assert snap.get("trap_storm", 0) == 1


# -- OpenMetrics exposition ---------------------------------------------------

class TestOpenMetrics:
    def test_roundtrip_of_live_registry(self):
        eng = Engine(workload.PROGRAM)
        with eng.session() as s:
            workload.replay(s, workload.generate(40))
        text = render()
        families = parse(text)
        assert validate(families) == []
        # the per-path latency family is labeled, with exemplars
        buckets = [smp for smp in
                   families["compile_latency_cycles"]["samples"]
                   if smp.name.endswith("_bucket")]
        paths = {smp.labels["path"] for smp in buckets}
        assert {"hit", "patched", "cold"} <= paths
        exemplars = [smp.exemplar for smp in buckets if smp.exemplar]
        assert exemplars, "no exemplars on the latency histograms"
        assert all(ex[0]["trace_id"] for ex in exemplars)

    def test_counter_and_eventlog_families(self):
        REGISTRY.counter("serving.requests").inc(3)
        REGISTRY.events("obs.flightrec.events").append({"kind": "manual"})
        families = parse(render())
        req = families["serving_requests"]
        assert req["type"] == "counter"
        assert req["samples"][0].value == 3
        ev = families["obs_flightrec_events"]
        assert ev["samples"][0].value >= 1
        assert "obs_flightrec_events_dropped" in families

    def test_parse_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            parse("# TYPE a counter\na_total 1\n")

    def test_parse_rejects_sample_before_type(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse("orphan_total 1\n# EOF\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparsable"):
            parse("# TYPE a counter\n!!!\n# EOF\n")

    def test_validate_catches_non_monotone_buckets(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                'h_bucket{le="2"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 9\nh_count 5\n# EOF\n")
        problems = validate(parse(text))
        assert any("le=2.0" in p for p in problems)

    def test_validate_catches_inf_count_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 9\nh_count 7\n# EOF\n")
        problems = validate(parse(text))
        assert any("_count" in p for p in problems)

    def test_validate_catches_exemplar_out_of_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 1\n'
                'h_bucket{le="+Inf"} 1 # {trace_id="t"} 0.5\n'
                "h_sum 1\nh_count 1\n# EOF\n")
        problems = validate(parse(text))
        assert any("below its bucket range" in p for p in problems)


# -- the HTTP endpoint --------------------------------------------------------

def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode()


class TestObsServer:
    def test_endpoints(self):
        eng = Engine(workload.PROGRAM, chaos=None)
        with eng.session() as s:
            workload.replay(s, workload.generate(30))
        assert attached() is eng                  # engine self-attached
        with ObsServer(port=0) as server:
            code, ctype, body = _get(server.url + "/metrics")
            assert code == 200 and ctype == CONTENT_TYPE
            assert validate(parse(body)) == []
            code, _, body = _get(server.url + "/healthz")
            assert (code, body) == (200, "ok\n")
            code, _, body = _get(server.url + "/slo")
            slo = json.loads(body)
            assert slo["ok"] is True and slo["observed"] >= 30
            code, _, body = _get(server.url + "/blackbox")
            box = json.loads(body)
            assert len(box["records"]) == 30
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/nope")
            assert err.value.code == 404

    def test_slo_and_blackbox_are_404_without_engine(self):
        attach(None)
        with ObsServer(port=0) as server:
            for path in ("/slo", "/blackbox"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(server.url + path)
                assert err.value.code == 404


class TestCli:
    def test_scrape_roundtrips_through_parser(self):
        env = dict(os.environ,
                   PYTHONPATH="src", REPRO_CHAOS="off")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.report", "scrape", "--demo", "25"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        families = parse(proc.stdout)
        assert validate(families) == []
        assert "compile_latency_cycles" in families
        assert families["serving_requests"]["samples"][0].value == 25

    def test_serve_keeps_the_demo_engine_attached(self):
        # Attachment is weak: /slo answers only while serve holds the
        # demo engine.
        env = dict(os.environ, PYTHONPATH="src", REPRO_CHAOS="off")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.report", "serve", "--port", "0",
             "--demo", "5"],
            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            url = proc.stderr.readline().split()[2]
            code, _, body = _get(url + "/slo")
            assert code == 200 and json.loads(body)["observed"] == 5
        finally:
            proc.terminate()
            proc.wait(timeout=10)


# -- report integration and reset ---------------------------------------------

class TestSloStatus:
    """``slo_status`` is the one status behind ``/slo`` and ``report
    slo``: the attached engine's live view, or None."""

    def test_attached_engine_is_the_source(self):
        eng = Engine(workload.PROGRAM, chaos=None)
        with eng.session() as s:
            workload.replay(s, workload.generate(30))
        status = slo_status()
        assert status.to_dict() == eng.slo.status().to_dict()
        assert status.observed == 30

    def test_none_without_an_engine(self):
        attach(None)
        assert slo_status() is None
        eng = Engine(ADDER, chaos=None, slo=None)
        assert attached() is eng
        assert slo_status() is None


class TestReportSlo:
    def test_live_engine_view(self):
        eng = Engine(workload.PROGRAM, chaos=None)
        with eng.session() as s:
            workload.replay(s, workload.generate(30))
        text = report_cli.report_slo()
        assert "policy: default" in text
        assert "verdict: OK" in text
        assert "availability" in text

    def test_no_engine_view(self):
        attach(None)
        text = report_cli.report_slo()
        assert text == ("Serving SLOs: no serving engine with an SLO "
                        "policy is attached")

    def test_no_cli_subcommand(self, capsys):
        # A fresh process never has an engine attached; out of process
        # the SLO view is `serve --demo N`'s /slo.
        eng = Engine(ADDER, chaos=None)
        with eng.session() as s:
            s.request("make_adder", (1,), call_args=(1,))
        assert attached() is eng
        assert report_cli.main(["slo"]) == 1
        assert "python -m repro.report" in capsys.readouterr().out


class TestResetClearsThePlane:
    def test_reset_clears_slo_and_recorder(self):
        eng = Engine(workload.PROGRAM)
        with eng.session() as s:
            workload.replay(s, workload.generate(20))
        assert eng.slo.status().observed == 20
        assert len(eng.recorder) == 20
        report.reset()
        assert eng.slo.status().observed == 0
        assert len(eng.recorder) == 0
        assert eng.recorder.records() == []
        # the plane keeps working after a reset
        with eng.session() as s:
            workload.replay(s, workload.generate(5))
        assert eng.slo.status().observed == 5


# -- the workload generator ---------------------------------------------------

class TestWorkload:
    def test_deterministic_in_seed(self):
        a = workload.generate(200, seed=7)
        b = workload.generate(200, seed=7)
        assert [(r.builder, r.builder_args, r.call_args) for r in a] == \
            [(r.builder, r.builder_args, r.call_args) for r in b]
        c = workload.generate(200, seed=8)
        assert [(r.builder, r.builder_args) for r in a] != \
            [(r.builder, r.builder_args) for r in c]

    def test_class_mix_is_heavy_tailed(self):
        reqs = workload.generate(1000)
        mix = {k: sum(r.klass == k for r in reqs)
               for k in ("hot", "warm", "cold")}
        assert mix["hot"] > mix["warm"] > mix["cold"] > 0
        # the cold tail never repeats a shape
        cold = [r.builder_args for r in reqs if r.klass == "cold"]
        assert len(cold) == len(set(cold))

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            workload.generate(10, hot=0.9, warm=0.3)

    def test_replay_produces_expected_paths(self):
        eng = Engine(workload.PROGRAM, chaos=None)
        with eng.session() as s:
            outcomes = workload.replay(s, workload.generate(80))
        assert all(o.ok for o in outcomes)
        paths = {o.path for o in outcomes}
        assert {"hit", "patched", "cold"} <= paths
