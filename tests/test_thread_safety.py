"""Concurrency hammer tests for the shared-state primitives the serving
engine leans on: the metrics registry, the code segment's invalidation
listener list, and the Tier-2 template store."""

from __future__ import annotations

import threading

from repro import TccCompiler
from repro.serving.store import TemplateStore
from repro.target.program import CodeSegment
from repro.telemetry.metrics import MetricsRegistry

THREADS = 8
ROUNDS = 400


def _hammer(worker, n_threads=THREADS):
    errors = []

    def run(i):
        try:
            worker(i)
        except BaseException as exc:      # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestMetricsRegistry:
    def test_counter_increments_are_exact(self):
        reg = MetricsRegistry()

        def worker(_i):
            c = reg.counter("hammer.count")
            for _ in range(ROUNDS):
                c.inc()
        _hammer(worker)
        assert reg.counter("hammer.count").value == THREADS * ROUNDS

    def test_labeled_counter_is_exact_per_label(self):
        reg = MetricsRegistry()

        def worker(i):
            lc = reg.labeled("hammer.labeled")
            for r in range(ROUNDS):
                lc.inc(f"label-{r % 4}")
        _hammer(worker)
        snap = reg.labeled("hammer.labeled").snapshot()
        assert sum(snap.values()) == THREADS * ROUNDS
        assert all(v == THREADS * ROUNDS // 4 for v in snap.values())

    def test_histogram_count_and_sum_are_exact(self):
        reg = MetricsRegistry()
        bounds = (10, 100, 1000)

        def worker(i):
            h = reg.histogram("hammer.hist", bounds)
            for r in range(ROUNDS):
                h.record(r)
        _hammer(worker)
        snap = reg.histogram("hammer.hist", bounds).snapshot()
        assert snap["count"] == THREADS * ROUNDS
        assert snap["sum"] == THREADS * sum(range(ROUNDS))

    def test_concurrent_merge_into_one_registry(self):
        # Sessions roll their private registries up on close; closes can
        # race each other.
        target = MetricsRegistry()

        def worker(i):
            local = MetricsRegistry()
            local.counter("rollup.count").inc(ROUNDS)
            local.labeled("rollup.labeled").inc("x", i + 1)
            target.merge(local)
        _hammer(worker)
        assert target.counter("rollup.count").value == THREADS * ROUNDS
        labeled = target.labeled("rollup.labeled").snapshot()
        assert labeled["x"] == sum(range(1, THREADS + 1))


class TestInvalidationListeners:
    def test_add_remove_notify_race(self):
        """Threads adding/removing listeners while others fire events:
        no lost registrations, no exceptions from mutation-during-
        iteration (the listener tuple is copy-on-write)."""
        seg = CodeSegment()
        hits = [0] * THREADS
        lock = threading.Lock()

        def worker(i):
            def listener(kind, length, _i=i):
                with lock:
                    hits[_i] += 1
            for _ in range(ROUNDS // 4):
                seg.add_invalidation_listener(listener)
                seg.inject_emit_failure(10**9)   # notifies ("fault", None)
                seg.remove_invalidation_listener(listener)
        _hammer(worker)
        seg._fail_emit_in = None
        # Each thread observed at least its own notifications.
        assert all(h >= ROUNDS // 4 for h in hits)
        # And every listener was removed again.
        assert not seg._invalidation_listeners

    def test_remove_unknown_listener_is_a_noop(self):
        seg = CodeSegment()
        seg.remove_invalidation_listener(lambda kind, length: None)


class TestTemplateStore:
    def _templates(self, count):
        """Harvest real (shape_key, CodeTemplate) pairs by compiling
        distinct closures."""
        source = """
        int make_adder(int n) {
            int vspec p = param(int, 0);
            return (int)compile(`($n + p), int);
        }
        """
        process = TccCompiler().compile(source).start()
        for n in range(count):
            process.run("make_adder", n)
        return process.codecache.template_store.items()

    def test_concurrent_add_match_evict(self):
        pairs = self._templates(4)
        assert pairs
        # A cap large enough that the LRU pop never fires: every add is
        # then balanced by exactly one successful evict.
        store = TemplateStore(templates_per_shape=10**6)

        def worker(i):
            for _ in range(ROUNDS // 4):
                for shape, template in pairs:
                    store.add(shape, template)
                    store.evict(shape, template)
        _hammer(worker)
        assert store.stats()["templates"] == 0

    def test_slow_guard_evaluation_does_not_hold_the_stripe_lock(self):
        """A session blocked evaluating guards inside ``match`` (its data
        memory is slow) must not stall another session's ``add`` on the
        same shape key: candidates are snapshotted under the stripe lock
        and guards evaluated outside it."""

        class _Template:
            guards = ((0, "w", 1),)
            callees = ()
            instructions = []

            def matches(self, signature):
                return True

            def links_into(self, segment):
                return True

        class _Signature:
            shape_key = ("slow-shape",)
            persistable = False

        class _SlowMemory:
            """load_word blocks until released, then fails the guard."""

            def __init__(self):
                self.entered = threading.Event()
                self.release = threading.Event()

            def load_word(self, addr):
                self.entered.set()
                assert self.release.wait(timeout=10), "memory never released"
                return 0

        store = TemplateStore()
        store.add(_Signature.shape_key, _Template())
        memory = _SlowMemory()
        matcher = threading.Thread(
            target=store.match, args=(_Signature(), memory))
        matcher.start()
        try:
            assert memory.entered.wait(timeout=10)
            # The matcher is parked inside guard evaluation.  An add on
            # the same shape key (hence the same stripe) must complete.
            adder = threading.Thread(
                target=store.add, args=(_Signature.shape_key, _Template()))
            adder.start()
            adder.join(timeout=5)
            assert not adder.is_alive(), \
                "store.add blocked behind a slow guard evaluation"
        finally:
            memory.release.set()
            matcher.join(timeout=10)
        assert not matcher.is_alive()
        assert store.stats()["templates"] == 2

    def test_stripes_partition_shapes(self):
        store = TemplateStore(stripes=4)
        pairs = self._templates(3)
        for signature, template in pairs:
            store.add(signature, template)
        assert store.stats()["templates"] == len(pairs)
        store.clear()
        assert store.stats()["templates"] == 0


class TestObservabilityPlane:
    def test_scrape_while_serving_hammer(self):
        """8 threads — half serving real requests, half scraping the
        OpenMetrics exposition, SLO status, and flight-recorder bundles
        concurrently: every scrape must parse and validate cleanly and
        no serving request may fail."""
        from repro.obs import workload
        from repro.obs.openmetrics import parse, render, validate
        from repro.serving.engine import Engine

        engine = Engine(workload.PROGRAM, chaos=None)
        done = threading.Event()
        servers = THREADS // 2
        served = [0] * servers
        failures = []

        def serve(i):
            with engine.session(f"hammer-{i}") as session:
                for outcome in workload.replay(
                        session, workload.generate(25, seed=i)):
                    if not outcome.ok:
                        failures.append(outcome.error)
                    served[i] += 1

        def scrape(_i):
            while not done.is_set():
                problems = validate(parse(render()))
                assert problems == [], problems
                status = engine.slo.status()
                assert status.observed >= 0
                bundle = engine.recorder.bundle()
                assert bundle["recorded_total"] >= len(bundle["records"])

        finished = []

        def worker(i):
            if i < servers:
                try:
                    serve(i)
                finally:
                    finished.append(i)
                    if len(finished) == servers:
                        done.set()       # unparks scrapers even on error
            else:
                scrape(i)

        try:
            _hammer(worker)
        finally:
            done.set()
        assert not failures, failures
        assert engine.slo.status().observed == servers * 25
        assert engine.recorder.bundle()["recorded_total"] == servers * 25
