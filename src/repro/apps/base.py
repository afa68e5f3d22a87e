"""Common benchmark-application protocol.

An :class:`App` bundles one `C source file containing both the dynamic-code
builder and the static baseline, plus the host-side glue: workload setup,
the canonical "one run", and the expected answer.  The harness
(:mod:`repro.apps.harness`) uses this interface to produce every number in
Figures 4-7 and Table 1.
"""

from __future__ import annotations


class App:
    """One benchmark application.

    Parameters
    ----------
    name:
        the paper's benchmark name (``hash``, ``ms``, ...).
    source:
        the `C translation unit (dynamic builder + static baseline).
    builder:
        name of the spec-time function that specifies+compiles the dynamic
        code and returns its entry address.
    static_name:
        name of the static baseline function.
    setup:
        ``setup(process) -> ctx`` allocates the workload in target memory.
    builder_args:
        ``builder_args(ctx) -> tuple`` — arguments for the builder.
    dyn_call / static_call:
        ``(fn, ctx) -> result`` — perform the canonical single run.
    expected:
        ``expected(ctx) -> value`` — the correct result of one run.
    dyn_signature / dyn_returns:
        calling convention of the generated function.
    description:
        one line quoted from / paraphrasing the paper.
    """

    def __init__(self, name, source, builder, static_name, setup,
                 builder_args, dyn_call, static_call, expected,
                 dyn_signature="", dyn_returns="i", description=""):
        self.name = name
        self.source = source
        self.builder = builder
        self.static_name = static_name
        self.setup = setup
        self.builder_args = builder_args
        self.dyn_call = dyn_call
        self.static_call = static_call
        self.expected = expected
        self.dyn_signature = dyn_signature
        self.dyn_returns = dyn_returns
        self.description = description

    def __repr__(self) -> str:
        return f"<App {self.name}>"


class MeasureResult:
    """Everything measured for one (app, configuration) pair."""

    def __init__(self, app_name, backend, regalloc, static_opt):
        self.app_name = app_name
        self.backend = backend
        self.regalloc = regalloc
        self.static_opt = static_opt
        self.dynamic_cycles = 0        # cycles for one run of dynamic code
        self.static_cycles = 0         # cycles for one run of static code
        self.codegen_cycles = 0        # modeled dynamic compilation cycles
        self.generated_instructions = 0
        self.cycles_per_instruction = 0.0
        self.phase_breakdown = {}
        self.dynamic_result = None
        self.static_result = None
        self.expected = None
        self.correct = False
        self.hot_profile = None        # hot_units() rows under tiered engine

    @property
    def speedup(self) -> float:
        """Figure 4's ratio: static run time / dynamic run time."""
        if self.dynamic_cycles == 0:
            return float("inf")
        return self.static_cycles / self.dynamic_cycles

    @property
    def crossover(self):
        """Figure 5's cross-over point: runs needed to amortize codegen.
        None when dynamic code never pays off."""
        gain = self.static_cycles - self.dynamic_cycles
        if gain <= 0:
            return None
        import math

        return math.ceil(self.codegen_cycles / gain)

    def __repr__(self) -> str:
        return (
            f"<{self.app_name}/{self.backend}: speedup {self.speedup:.2f}, "
            f"codegen {self.cycles_per_instruction:.0f} cyc/instr>"
        )
