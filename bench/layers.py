"""Per-layer spans recorded from outside the program, and one run.

A traced run wraps the public functions at each layer boundary (the
table :data:`BOUNDARIES`) with a span recorder and unwraps them after.
Nothing under ``src/`` changes.  Each span records its name, start,
end, parent and op id; spans stay in memory and are written at the end
to ``bench/out/trace-<workload>.json`` in Chrome trace-event format
(open it in ``chrome://tracing`` or Perfetto).  A span's self time is
its duration minus the time its child spans cover.

Layer host times are reported as shares of op time (``*.self_pct``):
a layer an op never reaches reads 0% rather than a time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

from repro import report
from repro.runtime.costmodel import CostModel, Phase

from bench import workloads

#: Spans kept for the trace file; later ones still count in the totals.
SPAN_LIMIT = 50_000

#: (module, attribute, span name, the workload whose run must call it).
#: A function bound by ``from x import f`` is wrapped where its caller
#: looks it up, so ``install_function`` appears once per back end.
BOUNDARIES = (
    ("repro.core.driver", "parse", "frontend.parse", "fig4-compile"),
    ("repro.core.driver", "analyze", "frontend.sema", "fig4-compile"),
    ("repro.core.driver", "Process.run", "interp", "fig4-compile"),
    ("repro.core.driver", "Process.compile_closure", "compile_closure",
     "fig4-compile"),
    ("repro.core.cgf", "CGF.emit_into", "cgf", "fig4-compile"),
    ("repro.core.codecache", "CodeCache.lookup", "codecache.lookup",
     "serve-mix"),
    ("repro.core.codecache", "CodeCache.match_template", "codecache.match",
     "serve-mix"),
    ("repro.core.codecache", "CodeCache.instantiate_template",
     "codecache.patch", "serve-mix"),
    ("repro.core.codecache", "CodeCache.store", "codecache.store",
     "serve-mix"),
    ("repro.icode.optim", "optimize", "icode.optimize", "fig4-compile"),
    ("repro.icode.backend", "build_flowgraph", "icode.flowgraph",
     "fig4-compile"),
    ("repro.icode.backend", "compute_liveness", "icode.liveness",
     "fig4-compile"),
    ("repro.icode.backend", "build_intervals", "icode.intervals",
     "fig4-compile"),
    ("repro.icode.backend", "linear_scan", "icode.regalloc", "fig4-compile"),
    ("repro.icode.backend", "IcodeBackend._translate", "icode.translate",
     "fig4-compile"),
    ("repro.icode.backend", "peephole", "icode.peephole", "fig4-compile"),
    ("repro.icode.backend", "IcodeBackend.install", "icode.install",
     "fig4-compile"),
    ("repro.vcode.machine", "VcodeBackend.install", "vcode.install",
     "fig4-compile"),
    ("repro.icode.backend", "install_function", "install", "fig4-compile"),
    ("repro.vcode.machine", "install_function", "install", "fig4-compile"),
    ("repro.verify", "run_checker", "verify", "fig4-compile"),
    ("repro.target.cpu", "Machine.call", "exec", "fig4-execute"),
    ("repro.serving.engine", "Session.request", "serving", "serve-mix"),
    ("repro.serving.envelope", "Envelope.compile_closure", "serving.compile",
     "serve-mix"),
    ("repro.serving.envelope", "Envelope.execute", "serving.execute",
     "serve-mix"),
    ("repro.obs.slo", "SloEngine.observe", "obs.slo", "serve-mix"),
    ("repro.obs.flightrec", "FlightRecorder.record", "obs.recorder",
     "serve-mix"),
)

#: Spans whose self time is reported as a share of op time.
SHARE_SPANS = (
    "interp", "compile_closure", "cgf", "codecache.lookup",
    "codecache.match", "codecache.patch", "codecache.store",
    "icode.optimize", "icode.flowgraph", "icode.liveness", "icode.intervals",
    "icode.regalloc", "icode.translate", "icode.peephole", "icode.install",
    "vcode.install", "install", "verify.regcheck", "verify.codeaudit",
    "exec", "serving", "serving.compile", "serving.execute", "obs.slo",
    "obs.recorder",
)

#: ICODE cost-model phases reported per generated instruction.
ICODE_PHASES = (Phase.IR, Phase.FLOWGRAPH, Phase.LIVENESS, Phase.INTERVALS,
                Phase.REGALLOC, Phase.TRANSLATE, Phase.LINK)

#: Cost-model phase -> the span that does that work under
#: ``icode.install``, for the modeled-vs-host rank correlation.
PHASE_SPANS = (
    (Phase.FLOWGRAPH, "icode.flowgraph"),
    (Phase.LIVENESS, "icode.liveness"),
    (Phase.INTERVALS, "icode.intervals"),
    (Phase.REGALLOC, "icode.regalloc"),
    (Phase.TRANSLATE, "icode.translate"),
    (Phase.LINK, "install"),
)


class SpanTracer:
    """In-memory span recorder with on-line self-time accounting."""

    def __init__(self):
        self.stack = []            # open spans: [name, start, child ns, index]
        # name -> [calls, total ns, self ns]; spans inside an op and spans
        # outside one (set-up, untimed checks) are kept apart.
        self.op_totals = defaultdict(lambda: [0, 0, 0])
        self.setup_totals = defaultdict(lambda: [0, 0, 0])
        self.pair_self = defaultdict(int)  # (parent, name) -> self ns in ops
        self.events = []
        self.dropped = 0
        self.op_id = 0
        self.wrapper_calls = defaultdict(int)
        self.codegen = []          # CodegenStats finished inside ops
        self.exec_cycles = 0       # modeled cycles of Machine.call in ops
        self.counters = None       # report counters when the loop started

    def in_op(self) -> bool:
        return bool(self.stack) and self.stack[0][0] == "op"

    def enter(self, name: str) -> None:
        index = -1
        if len(self.events) < SPAN_LIMIT:
            index = len(self.events)
            self.events.append(None)
        else:
            self.dropped += 1
        self.stack.append([name, time.perf_counter_ns(), 0, index])

    def exit(self) -> None:
        name, start, child, index = self.stack.pop()
        end = time.perf_counter_ns()
        duration = end - start
        inside = self.in_op() or name == "op"
        totals = (self.op_totals if inside else self.setup_totals)[name]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child
        parent_index = -1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_index = parent[3]
            if inside:
                self.pair_self[(parent[0], name)] += duration - child
        if index >= 0:
            self.events[index] = (name, start, end, parent_index,
                                  self.op_id if inside else 0)

    @contextlib.contextmanager
    def op_span(self):
        self.op_id += 1
        self.enter("op")
        try:
            yield
        finally:
            self.exit()

    def loop_started(self) -> None:
        self.counters = _counters()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span: str, key: str):
        enter, exit_, calls = self.enter, self.exit, self.wrapper_calls
        if span == "verify":
            def traced(layer, *args, **kwargs):
                calls[key] += 1
                enter(f"verify.{layer}")
                try:
                    return fn(layer, *args, **kwargs)
                finally:
                    exit_()
        elif span == "exec":
            def traced(machine, *args, **kwargs):
                calls[key] += 1
                before = machine.cpu.cycles
                enter(span)
                try:
                    return fn(machine, *args, **kwargs)
                finally:
                    exit_()
                    if self.in_op():
                        self.exec_cycles += machine.cpu.cycles - before
        else:
            def traced(*args, **kwargs):
                calls[key] += 1
                enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary (and the cost model's end of an
        instantiation) for the duration of the block."""
        undo = []
        for module, attr, span, _ in BOUNDARIES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, span,
                                            f"{module}:{attr}"))
        end_instantiation = CostModel.__dict__["end_instantiation"]
        undo.append((CostModel, "end_instantiation", end_instantiation))

        def finished(cost):
            stats = end_instantiation(cost)
            if self.in_op():
                self.codegen.append(stats)
            return stats

        CostModel.end_instantiation = finished
        try:
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Chrome trace-event JSON of the kept spans."""
        kept = [event for event in self.events if event is not None]
        base = min((event[1] for event in kept), default=0)
        trace_events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - base) / 1000.0, "dur": (end - start) / 1000.0,
            "pid": 1, "tid": 1, "args": {"op": op, "parent": parent},
        } for name, start, end, parent, op in kept]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped,
                          "wrapper_calls": dict(self.wrapper_calls)},
        }))


def _counters() -> dict:
    cache = report.cache_stats()
    dispatch = report.dispatch_stats()
    tiering = report.tiering_stats()
    serving = report.serving_stats()
    return {
        "cache.hits": cache["hits"],
        "cache.patched": cache["patched"],
        "dispatch.blocks_compiled": dispatch["blocks_compiled"],
        "dispatch.block_dispatches": dispatch["block_dispatches"],
        "dispatch.block_cache_hits": dispatch["block_cache_hits"],
        "tiering.promotions": tiering["promotions"],
        "tiering.deopts": tiering["deopts"],
        "serving.requests": serving["requests"],
        "serving.retries": serving["retries"],
        "serving.degraded": serving["degraded"],
        "serving.breaker_opens": serving["breaker_opens"],
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _ranks(values) -> list:
    """Ranks (1-based, ties averaged) for Spearman's correlation."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    rx, ry = _ranks(xs), _ranks(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5 if vx and vy else 0.0


def per_layer(tracer: SpanTracer, traced, plain, speedup: float) -> dict:
    """The per-layer metrics of one traced phase, name -> (value, unit).
    ``plain`` is the untraced phase of the same run (for the overhead)."""
    ops = traced.ops
    totals = tracer.op_totals
    op_ns = totals["op"][1]
    out = {}
    for span in SHARE_SPANS:
        out[f"{span}.self_pct"] = (100.0 * _ratio(totals[span][2], op_ns),
                                   "%")
    out["bench.self_pct"] = (100.0 * _ratio(totals["op"][2], op_ns), "%")
    out["runtime.gc_pause_pct"] = (100.0 * _ratio(traced.gc.pause_ns, op_ns),
                                   "%")
    for span in ("frontend.parse", "frontend.sema", "verify.ticklint"):
        calls, total_ns, _ = tracer.setup_totals[span]
        out[f"{span}_ms"] = (_ratio(total_ns, calls) / 1e6, "ms")

    before, after = tracer.counters, _counters()
    delta = {key: after[key] - before[key] for key in after}
    lookups = totals["codecache.lookup"][0]
    probes = totals["codecache.match"][0]
    out["compile_closure.calls_per_op"] = (
        _ratio(totals["compile_closure"][0], ops), "1/op")
    out["codecache.lookups_per_op"] = (_ratio(lookups, ops), "1/op")
    out["codecache.tier1_hit_ratio"] = (
        _ratio(delta["cache.hits"], lookups), "ratio")
    out["codecache.tier2_probes_per_op"] = (_ratio(probes, ops), "1/op")
    out["codecache.tier2_match_ratio"] = (
        _ratio(delta["cache.patched"], probes), "ratio")
    out["codecache.stores_per_op"] = (
        _ratio(totals["codecache.store"][0], ops), "1/op")

    icode = [s for s in tracer.codegen if Phase.IR in s.cycles]
    vcode = [s for s in tracer.codegen
             if Phase.EMIT in s.cycles and Phase.IR not in s.cycles]
    icode_instrs = sum(s.generated_instructions for s in icode)
    vcode_instrs = sum(s.generated_instructions for s in vcode)
    out["code.generated_instrs_per_op"] = (
        _ratio(sum(s.generated_instructions for s in tracer.codegen), ops),
        "instr/op")
    out["icode.cycles_per_instr"] = (
        _ratio(sum(s.total_cycles() for s in icode), icode_instrs),
        "cycles/instr")
    for phase in ICODE_PHASES:
        out[f"icode.{phase.value}.cycles_per_instr"] = (
            _ratio(sum(s.cycles[phase] for s in icode), icode_instrs),
            "cycles/instr")
    out["vcode.cycles_per_instr"] = (
        _ratio(sum(s.total_cycles() for s in vcode), vcode_instrs),
        "cycles/instr")
    out["vcode.emit.cycles_per_instr"] = (
        _ratio(sum(s.cycles[Phase.EMIT] for s in vcode), vcode_instrs),
        "cycles/instr")
    modeled = [sum(s.cycles[phase] for s in icode) for phase, _ in PHASE_SPANS]
    host = [tracer.pair_self[("icode.install", span)]
            for _, span in PHASE_SPANS]
    out["icode.host_model_rank_corr"] = (
        spearman(modeled, host) if icode else 0.0, "rho")

    exec_calls, exec_ns, _ = totals["exec"]
    out["exec.calls_per_op"] = (_ratio(exec_calls, ops), "1/op")
    out["exec.cycles_per_call"] = (_ratio(tracer.exec_cycles, exec_calls),
                                   "cycles")
    out["exec.mcycles_per_s"] = (
        _ratio(tracer.exec_cycles, exec_ns) * 1e3, "Mcycles/s")
    out["exec.speedup_geomean"] = (speedup, "ratio")
    out["dispatch.blocks_compiled"] = (delta["dispatch.blocks_compiled"],
                                       "count")
    out["dispatch.block_cache_hit_ratio"] = (
        _ratio(delta["dispatch.block_cache_hits"],
               delta["dispatch.block_dispatches"]), "ratio")
    out["tiering.promotions"] = (delta["tiering.promotions"], "count")
    out["tiering.deopts"] = (delta["tiering.deopts"], "count")
    out["serving.retries"] = (delta["serving.retries"], "count")
    out["serving.degraded_ratio"] = (
        _ratio(delta["serving.degraded"], delta["serving.requests"]), "ratio")
    out["serving.breaker_opens"] = (delta["serving.breaker_opens"], "count")
    out["runtime.gc_collections"] = (traced.gc.collections, "count")
    out["trace.overhead_pct"] = (
        100.0 * (_ratio(traced.op_ns, ops)
                 / _ratio(plain.op_ns, plain.ops) - 1.0), "%")
    out["trace.spans_per_op"] = (
        _ratio(sum(t[0] for t in totals.values()), ops), "1/op")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, scale: str,
        out_dir) -> dict:
    """One benchmark run; returns the JSON result object.

    Untraced, the whole ``seconds`` measure the end-to-end metrics.
    Traced, an untraced half runs first (the baseline for
    ``trace.overhead_pct``), then a traced half on a fresh set-up gives
    the per-layer metrics and the span file.
    """
    if not trace:
        tally = workloads.measure(workloads.make(name, scale), seed, seconds)
        phases, metrics = [tally], workloads.end_to_end(name, tally)
    else:
        plain = workloads.measure(workloads.make(name, scale), seed,
                                  seconds / 2)
        tracer = SpanTracer()
        workload = workloads.make(name, scale)
        with tracer.installed():
            traced = workloads.measure(workload, seed, seconds / 2, tracer)
        speedup = (workload.speedup_geomean() if name == "fig4-execute"
                   else 0.0)
        phases, metrics = [plain, traced], per_layer(tracer, traced, plain,
                                                     speedup)
        tracer.write(out_dir / f"trace-{name}.json")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
