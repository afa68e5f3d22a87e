"""The four workloads and their end-to-end metrics.

Every workload is one process, one thread and one client in a closed
loop: the next op starts when the previous one returns, which is how a
caller of ``Process.run`` or ``Session.request`` uses tcc.  A run
measures whole rounds (fig4-*) or whole episodes (serve-*) until
``seconds`` have passed, so per-round rates and modeled totals never
cover a partial round.

Host time is read with ``time.perf_counter_ns`` around each op and
nothing else; the checks that follow an op are outside its timing.
Modeled cycles come from the program's own cost model and target CPU.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import resource
import statistics
import time
from collections import defaultdict

from repro import Engine, TccCompiler, TccError
from repro.apps import ALL_APPS, FIGURE4_APPS
from repro.obs import workload as traffic
from repro.target.isa import wrap32

#: How many times a fig4-* run repeats its set-up; ``setup_s`` is the
#: median.  serve-* runs set up once per episode instead.
SETUP_REPEATS = 3

#: App subset for ``--scale smoke`` (the test suite's fast mode).
SMOKE_APPS = ("hash", "pow", "dp")

#: serve-* shapes: (hot share, warm share, requests per episode, leading
#: episodes that define op_cycles).
SERVE_MIXES = {
    "serve-mix": (0.60, 0.25, 400, 4),
    "serve-churn": (0.10, 0.30, 200, 4),
}


class GcPauses:
    """A ``gc.callbacks`` hook that sums collector pauses.

    ``settle`` runs the collect-then-freeze discipline after a set-up,
    outside the count: later collections then skip the long-lived
    set-up heap, and only pauses that land in the measured loop count.
    """

    def __init__(self):
        self.pause_ns = 0
        self.collections = 0
        self._started = None
        self._settling = False

    def __call__(self, phase, info) -> None:
        if self._settling:
            return
        if phase == "start":
            self._started = time.perf_counter_ns()
        elif self._started is not None:
            self.pause_ns += time.perf_counter_ns() - self._started
            self.collections += 1
            self._started = None

    def settle(self) -> None:
        self._settling = True
        try:
            gc.collect()
            gc.freeze()
        finally:
            self._settling = False

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
        gc.unfreeze()


class Tally:
    """Everything one measured phase observed."""

    def __init__(self):
        self.samples = defaultdict(list)   # op class -> host ns per op
        self.rates = []                    # ops/s of each round or episode
        self.setup_ns = []
        self.modeled = []                  # modeled cycles that define op_cycles
        self.attempted = 0
        self.failed = 0
        self.op_ns = 0
        self.ops = 0
        self.gc = GcPauses()
        self.on_loop = None        # called once, when set-up is over

    def loop_started(self) -> None:
        if self.on_loop is not None:
            self.on_loop()
            self.on_loop = None

    def op(self, klass, ns: int) -> None:
        self.samples[klass].append(ns)
        self.op_ns += ns
        self.ops += 1

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def _matches(value, expected) -> bool:
    if isinstance(expected, float):
        return abs(value - expected) < 1e-6 * max(1.0, abs(expected))
    return value == expected


def _percentile(ordered, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _fig4_apps(name: str, scale: str):
    if scale == "smoke":
        return SMOKE_APPS
    return FIGURE4_APPS if name == "fig4-compile" else list(ALL_APPS)


def _run_instance(app, process, entry, expected) -> bool:
    """Execute one compiled instance on fresh canonical input; compare
    with the app's host-computed answer."""
    fn = process.function(entry, app.dyn_signature, app.dyn_returns,
                          name=app.name)
    memory = process.machine.memory
    memory.mark()
    try:
        return _matches(app.dyn_call(fn, app.setup(process)), expected)
    except TccError:
        return False
    finally:
        memory.release()


class _Fig4:
    """Shared driver of the fig4-* workloads: repeated set-up, then
    seeded rounds over every unit until the time is up."""

    def __init__(self, apps):
        self.apps = apps
        self.units = None

    def run(self, seed, seconds, tally, op_span) -> None:
        for _ in range(SETUP_REPEATS):
            self.units = None
            gc.collect()           # free the previous repeat's machines
            t0 = time.perf_counter_ns()
            self.units = self.setup(tally)
            tally.setup_ns.append(time.perf_counter_ns() - t0)
        tally.gc.settle()
        tally.loop_started()
        rng = random.Random(seed)
        order = list(self.units)
        deadline = time.perf_counter() + seconds
        while True:
            rng.shuffle(order)
            round_ns = sum(self.op(unit, tally, op_span) for unit in order)
            tally.rates.append(len(order) / (round_ns / 1e9))
            if time.perf_counter() >= deadline:
                break
        self.finish(tally)


# -- fig4-compile --------------------------------------------------------------


class _CompileUnit:
    """One (app, back end) process that compiles the app's builder."""

    __slots__ = ("app", "backend", "process", "args", "expected",
                 "reference", "marked", "last_entry")

    def __init__(self, app, backend, process, args, expected):
        self.app = app
        self.backend = backend
        self.process = process
        self.args = args
        self.expected = expected
        self.reference = None      # (codegen cycles, instructions) of op 1
        self.marked = False        # the newest instance's code is live
        self.last_entry = None


class Fig4Compile(_Fig4):
    """Cold ``Process.run(builder)`` per (app, back end), cache off."""

    backends = ("icode", "vcode")

    def setup(self, tally):
        units = []
        for name in self.apps:
            app = ALL_APPS[name]
            program = TccCompiler().compile(app.source, filename=f"<{name}>")
            for backend in self.backends:
                process = program.start(backend=backend, codecache=False)
                ctx = app.setup(process)
                units.append(_CompileUnit(app, backend, process,
                                          app.builder_args(ctx),
                                          app.expected(ctx)))
        return units

    @staticmethod
    def op(unit, tally, op_span) -> int:
        """One compile.  The previous instance's code is rolled back
        first, so the code segment stays the same size however many
        rounds run."""
        process = unit.process
        code = process.machine.code
        if unit.marked:
            code.release()
        code.mark()
        unit.marked = True
        stats = process.cost.lifetime
        cycles0, instrs0 = stats.total_cycles(), stats.generated_instructions
        try:
            with op_span():
                t0 = time.perf_counter_ns()
                entry = process.run(unit.app.builder, *unit.args)
                ns = time.perf_counter_ns() - t0
        except TccError:
            unit.last_entry = None
            tally.check(False)
            return 0
        unit.last_entry = entry
        tally.op((unit.app.name, unit.backend), ns)
        modeled = (stats.total_cycles() - cycles0,
                   stats.generated_instructions - instrs0)
        if unit.reference is None:
            unit.reference = modeled
            tally.check(_run_instance(unit.app, process, entry,
                                      unit.expected))
        else:
            tally.check(modeled == unit.reference)
        return ns

    def finish(self, tally) -> None:
        """Execute each unit's last instance, then drop its code."""
        for unit in self.units:
            if unit.last_entry is not None:
                tally.check(_run_instance(unit.app, unit.process,
                                          unit.last_entry, unit.expected))
            if unit.marked:
                unit.process.machine.code.release()
                unit.marked = False
        tally.modeled = [u.reference[0] for u in self.units if u.reference]


# -- fig4-execute --------------------------------------------------------------


class _Callee:
    """One app's already-instantiated ICODE function."""

    __slots__ = ("app", "process", "fn", "expected", "cycles")

    def __init__(self, app, process, fn, expected):
        self.app = app
        self.process = process
        self.fn = fn
        self.expected = expected
        self.cycles = None         # modeled cycles of the warm-up call


class Fig4Execute(_Fig4):
    """Steady-state calls of instantiated code on the default engine."""

    def setup(self, tally):
        callees = []
        for name in self.apps:
            app = ALL_APPS[name]
            program = TccCompiler().compile(app.source, filename=f"<{name}>")
            process = program.start()
            ctx = app.setup(process)
            entry = process.run(app.builder, *app.builder_args(ctx))
            fn = process.function(entry, app.dyn_signature, app.dyn_returns,
                                  name=name)
            callee = _Callee(app, process, fn, app.expected(ctx))
            # The first call pays block compilation and trace promotion
            # (about 10x a steady call); it belongs to set-up.
            self.op(callee, tally, contextlib.nullcontext, sample=False)
            callees.append(callee)
        return callees

    @staticmethod
    def op(callee, tally, op_span, sample=True) -> int:
        """One canonical run on fresh input built untimed inside
        ``Memory.mark()/release()``; result and modeled cycles checked."""
        app, process = callee.app, callee.process
        memory, cpu = process.machine.memory, process.machine.cpu
        memory.mark()
        try:
            ctx = app.setup(process)
            before = cpu.cycles
            with op_span():
                t0 = time.perf_counter_ns()
                value = app.dyn_call(callee.fn, ctx)
                ns = time.perf_counter_ns() - t0
            cycles = cpu.cycles - before
        except TccError:
            tally.check(False)
            return 0
        finally:
            memory.release()
        if callee.cycles is None:
            callee.cycles = cycles
        tally.check(_matches(value, callee.expected)
                    and cycles == callee.cycles)
        if sample:
            tally.op(app.name, ns)
        return ns

    def finish(self, tally) -> None:
        tally.modeled = [c.cycles for c in self.units if c.cycles]

    def speedup_geomean(self) -> float:
        """Figure 4: static-lcc cycles over dynamic cycles, geomean."""
        ratios = []
        for callee in self.units:
            app = callee.app
            process = callee.process.program.start(static_opt="lcc")
            ctx = app.setup(process)
            sfn = process.static_function(app.static_name)
            before = process.machine.cpu.cycles
            app.static_call(sfn, ctx)
            ratios.append((process.machine.cpu.cycles - before)
                          / callee.cycles)
        return geomean(ratios)


# -- serve-mix / serve-churn ---------------------------------------------------


def episode_requests(n: int, seed: int, hot: float, warm: float) -> list:
    """``n`` requests with exactly ``round(n*hot)`` hot and
    ``round(n*warm)`` warm ones, the rest cold.

    Each class comes from :func:`repro.obs.workload.generate` and the
    seed shuffles them together.  Fixing the class counts matters: drawn
    binomially, the cold count (and with it the sum of the growing cold
    loop bounds) moved episode throughput by about 20% from seed to seed.
    """
    n_hot = round(n * hot)
    n_warm = round(n * warm)
    requests = (traffic.generate(n_hot, seed=seed, hot=1.0, warm=0.0)
                + traffic.generate(n_warm, seed=seed, hot=0.0, warm=1.0)
                + traffic.generate(n - n_hot - n_warm, seed=seed,
                                   hot=0.0, warm=0.0))
    random.Random(seed).shuffle(requests)
    return requests


def reference_value(request) -> int:
    """The request's answer by host arithmetic, not by the compiler."""
    (n,) = request.builder_args
    (x,) = request.call_args
    if request.builder == "make_adder":
        return wrap32(n + x)
    return wrap32(n * x)


class Serve:
    """Fixed-length episodes, each on a fresh :class:`Engine` with
    default knobs: ``generate()``'s cold loop bounds keep growing, so
    cold latency depends on how many requests came before, and a fixed
    episode length keeps it comparable."""

    def __init__(self, name: str, scale: str):
        self.hot, self.warm, self.requests, self.modeled_episodes = \
            SERVE_MIXES[name]
        if scale == "smoke":
            self.requests //= 4
            self.modeled_episodes = 2

    def run(self, seed, seconds, tally, op_span) -> None:
        rng = random.Random(seed)
        deadline = time.perf_counter() + seconds
        episode = 0
        tally.loop_started()
        while (episode < self.modeled_episodes
               or time.perf_counter() < deadline):
            requests = episode_requests(self.requests, rng.randrange(1 << 30),
                                        self.hot, self.warm)
            t0 = time.perf_counter_ns()
            engine = Engine(traffic.PROGRAM)
            session = engine.open_session()
            tally.setup_ns.append(time.perf_counter_ns() - t0)
            tally.gc.settle()
            episode_ns = 0
            for request in requests:
                with op_span():
                    t0 = time.perf_counter_ns()
                    outcome = session.request(request.builder,
                                              request.builder_args,
                                              call_args=request.call_args)
                    ns = time.perf_counter_ns() - t0
                episode_ns += ns
                tally.op(request.klass, ns)
                tally.check(outcome.ok
                            and outcome.value == reference_value(request))
                # op_cycles averages a fixed set of leading episodes, so
                # it repeats exactly however long the run is.
                if episode < self.modeled_episodes:
                    tally.modeled.append(outcome.cycles)
            session.close()
            gc.unfreeze()
            tally.rates.append(len(requests) / (episode_ns / 1e9))
            episode += 1


def make(name: str, scale: str = "full"):
    if name == "fig4-compile":
        return Fig4Compile(_fig4_apps(name, scale))
    if name == "fig4-execute":
        return Fig4Execute(_fig4_apps(name, scale))
    return Serve(name, scale)


def measure(workload, seed: int, seconds: float, tracer=None) -> Tally:
    """One measured phase of ``workload``, with GC pauses recorded."""
    tally = Tally()
    op_span = contextlib.nullcontext
    if tracer is not None:
        op_span = tracer.op_span
        tally.on_loop = tracer.loop_started
    with tally.gc:
        workload.run(seed, seconds, tally, op_span)
    return tally


def end_to_end(name: str, tally: Tally) -> dict:
    """The end-to-end metrics of one untraced phase, name -> (value, unit).

    The tail is p90, over every op of the run (p99 moved 6-12% from run
    to run on a noisy host, too much for any bound to gate).  On fig4-*
    the ops come in equal numbers from fixed classes (app x back end, or
    app) whose latencies differ by up to 100x, so the pooled median
    would sit exactly on the boundary between two classes and flip
    between them; there ``op_ms_p50`` is the geomean of the class
    medians instead.
    """
    ordered = sorted(ns for v in tally.samples.values() for ns in v)
    if name.startswith("fig4"):
        p50 = geomean(statistics.median(v) for v in tally.samples.values())
        op_cycles = geomean(tally.modeled)
    else:
        p50 = _percentile(ordered, 0.5)
        op_cycles = statistics.fmean(tally.modeled)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(tally.setup_ns) / 1e9, "s"),
        "ops_per_s": (statistics.median(tally.rates), "1/s"),
        "op_ms_p50": (p50 / 1e6, "ms"),
        "op_ms_p90": (_percentile(ordered, 0.90) / 1e6, "ms"),
        "op_cycles": (op_cycles, "cycles"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
