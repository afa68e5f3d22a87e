"""Measurement harness shared by the benchmark suite and the examples.

``measure(app, ...)`` reproduces the paper's methodology (section 6.1):

* the dynamic version is specified and instantiated once; its compilation
  overhead (closures + code generation, in modeled cycles) and the run time
  of the generated code (in target-machine cycles) are recorded separately,
  so the cross-over point can be computed;
* the static version is compiled by the static back end at the requested
  quality level ("lcc" is the paper's stated baseline, "gcc" the
  optimizing yardstick) and timed over the identical workload;
* results of both versions are checked against the app's expected value.
"""

from __future__ import annotations

from repro.apps.base import App, MeasureResult
from repro.core.driver import TccCompiler
from repro.telemetry.trace import Tracer, activate

_PROGRAM_CACHE: dict = {}


def _program(app: App):
    prog = _PROGRAM_CACHE.get(app.name)
    if prog is None:
        prog = TccCompiler().compile(app.source, filename=f"<{app.name}>")
        _PROGRAM_CACHE[app.name] = prog
    return prog


def measure(app: App, backend: str = "icode", regalloc: str = "linear",
            static_opt: str = "lcc", engine: str = "block",
            **extra_options) -> MeasureResult:
    """Measure one app under one configuration; see module docstring.

    ``engine`` selects the target-machine execution engine ("tiered",
    "block" or "reference") for both the dynamic and the static machine:
    "tiered" and "block" are one dispatch engine with its trace tier on
    or off.  Modeled cycles are engine-independent; the knob only changes
    host wall time (benchmarks/test_dispatch.py and
    benchmarks/test_tiering.py measure that difference).  The dynamic
    side's hot-unit profile is captured in ``MeasureResult.hot_profile``
    (empty unless the trace tier profiled the run).

    Under an active tracer (:func:`repro.telemetry.trace.activate`) both
    sides land on its timeline; modeled-cycle results are
    tracing-independent.
    """
    result = MeasureResult(app.name, backend, regalloc, static_opt)
    prog = _program(app)

    # Dynamic side: fresh machine, build + instantiate, then time one run.
    # The specialization cache is disabled: the paper's figures measure
    # cold code-generation cost (benchmarks/test_codecache.py measures the
    # warm/patched paths).
    extra_options.setdefault("codecache", False)
    proc = prog.start(backend=backend, regalloc=regalloc, engine=engine,
                      **extra_options)
    ctx = app.setup(proc)
    entry = proc.run(app.builder, *app.builder_args(ctx))
    fn = proc.function(entry, app.dyn_signature, app.dyn_returns,
                       name=app.name)
    stats = proc.cost.lifetime
    result.codegen_cycles = stats.total_cycles()
    result.generated_instructions = stats.generated_instructions
    result.cycles_per_instruction = stats.cycles_per_instruction()
    result.phase_breakdown = stats.phase_breakdown()

    before = proc.machine.cpu.cycles
    result.dynamic_result = app.dyn_call(fn, ctx)
    result.dynamic_cycles = proc.machine.cpu.cycles - before
    if proc.machine._engine is not None:
        result.hot_profile = proc.machine._engine.hot_units()

    # Static side: a separate machine so measurements are isolated.
    proc_s = prog.start(static_opt=static_opt, engine=engine)
    ctx_s = app.setup(proc_s)
    sfn = proc_s.static_function(app.static_name)
    before = proc_s.machine.cpu.cycles
    result.static_result = app.static_call(sfn, ctx_s)
    result.static_cycles = proc_s.machine.cpu.cycles - before

    result.expected = app.expected(ctx)
    result.correct = _matches(result.dynamic_result, result.expected) and \
        _matches(result.static_result, app.expected(ctx_s))
    return result


def _matches(value, expected) -> bool:
    if isinstance(expected, float):
        return abs(value - expected) < 1e-6 * max(1.0, abs(expected))
    return value == expected


def run_traced(app: App, backend: str = "icode", regalloc: str = "linear",
               codecache: bool = False):
    """Compile and run ``app`` once under one tracer that covers its
    whole lifecycle: static compile, specification, instantiation and
    execution.  Returns the tracer; this is the trace behind
    ``python -m repro.report trace``."""
    with activate(Tracer()) as tracer:
        prog = TccCompiler().compile(app.source, filename=f"<{app.name}>")
        proc = prog.start(backend=backend, regalloc=regalloc,
                          codecache=codecache)
        ctx = app.setup(proc)
        entry = proc.run(app.builder, *app.builder_args(ctx))
        fn = proc.function(entry, app.dyn_signature, app.dyn_returns,
                           name=app.name)
        app.dyn_call(fn, ctx)
    return tracer
