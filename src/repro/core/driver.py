"""The tcc driver: the library's public entry point.

Typical use::

    from repro import TccCompiler, BackendKind

    tcc = TccCompiler()
    program = tcc.compile(source)                 # static compile time
    process = program.start(backend=BackendKind.ICODE)
    result = process.run("main")                  # specification +
                                                  # instantiation happen here
    print(process.machine.drain_output())

:class:`TccCompiler` performs static compilation (parse, semantic analysis,
CGF construction).  :class:`CompiledProgram` is the immutable result.
:class:`Process` is one execution of the program on a fresh simulated
machine: globals placed in target memory, compilable C functions compiled by
the static back end, spec-time code interpreted, and ``compile()`` served by
the selected dynamic back end.
"""

from __future__ import annotations

import enum
import os
import re

from repro import report
from repro.core.cgf import CGF
from repro.core.codecache import BYTES_PER_HOLE, CodeCache, PatchRecorder
from repro.core.interp import Interp, MemCell, PyCell
from repro.core.lowering import CodeGen, EmitCtx, cls_of
from repro.core import static_backend
from repro.errors import (
    CodegenError,
    CodeSegmentExhausted,
    RuntimeTccError,
    TccError,
    VerifyError,
)
from repro.analysis import resolve_analysis
from repro.frontend import cast, parse, analyze
from repro.frontend.sema import BUILTINS
from repro.icode.backend import IcodeBackend
from repro.runtime.arena import Arena
from repro.runtime.closures import signature_of
from repro.runtime.costmodel import CLOSURE_CACHE_PROBE, CostModel
from repro.target.cpu import Function, Machine
from repro.target.isa import wrap32
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.vcode.machine import VcodeBackend
from repro.verify import codeaudit, factcheck, resolve_mode, ticklint


class BackendKind(enum.Enum):
    """Which dynamic back end serves ``compile()``."""

    VCODE = "vcode"
    ICODE = "icode"


#: Library routines available to every program (tcc links a small run-time
#: library; these are the pieces the benchmarks need).
PRELUDE_SOURCE = """
void memcpy(char *dst, char *src, int n) {
    int i;
    if (((((int)dst | (int)src) | n) & 3) == 0) {
        int *d, *s, words;
        d = (int *)dst; s = (int *)src; words = n >> 2;
        for (i = 0; i < words; i++) d[i] = s[i];
        return;
    }
    for (i = 0; i < n; i++) dst[i] = src[i];
}

void memset(char *dst, int value, int n) {
    int i;
    for (i = 0; i < n; i++) dst[i] = (char)value;
}
"""


class TccCompiler:
    """Static compiler for `C translation units.

    ``verify`` selects the static-analysis mode (``"off"``/``"dev"``/
    ``"paranoid"``; None defers to ``$REPRO_VERIFY``, default ``"dev"``).
    Any mode other than ``"off"`` runs the tick-expression lint
    (:mod:`repro.verify.ticklint`) after semantic analysis, so dynamic-code
    bugs like use-before-specialization surface at *static* compile time.

    Under an active tracer (:func:`repro.telemetry.trace.activate`) the
    stages appear as ``static`` spans on its timeline.
    """

    def __init__(self, include_prelude: bool = True, verify: str = None):
        self.include_prelude = include_prelude
        self.verify = verify

    def compile(self, source: str, filename: str = "<source>") -> "CompiledProgram":
        """Parse, type-check, lint, and statically lower ``source``."""
        if self.include_prelude:
            source = self._merge_prelude(source)
        # Static compilation has no modeled cost, so its stages appear as
        # zero-cycle spans carrying host wall time; the lint emits its own
        # verify:ticklint instant.
        tracer = _trace.active()
        span = tracer.begin(f"static_compile:{filename}", cat="static")
        with tracer.span("parse", cat="static"):
            tu = parse(source, filename)
        with tracer.span("sema", cat="static"):
            tu = analyze(tu)
        if resolve_mode(self.verify) != "off":
            ticklint.run(tu)
        with tracer.span("cgf", cat="static"):
            self._build_cgfs(tu)
        tracer.end(span, functions=len(tu.functions))
        return CompiledProgram(tu, source)

    @staticmethod
    def _build_cgfs(tu) -> None:
        for fn in tu.functions.values():
            for tick in fn.ticks:
                tick.cgf = CGF(tick, fn.name)

    def _merge_prelude(self, source: str) -> str:
        """Prepend prelude functions the source does not define itself."""
        chunks = []
        for name, text in _split_prelude():
            defines = re.search(
                r"\b" + name + r"\s*\([^;{)]*\)\s*\{", source
            )
            if not defines:
                chunks.append(text)
        return "\n".join(chunks) + "\n" + source


def _split_prelude():
    return [("memcpy", PRELUDE_SOURCE.split("void memset")[0]),
            ("memset", "void memset" + PRELUDE_SOURCE.split("void memset")[1])]


#: The options :meth:`CompiledProgram.start` hands to a fresh
#: :class:`~repro.target.cpu.Machine`.
MACHINE_OPTIONS = ("fuel", "icache", "code_capacity", "engine", "tiering",
                   "tiering_shared")

#: Every option name :meth:`CompiledProgram.start` reads (documented in
#: its docstring); :func:`check_start_options` rejects any other.
START_OPTIONS = frozenset((
    "backend", "regalloc", "static_opt", "allow_spills",
    "reorder_cspec_operands", "strength_reduction", "dynamic_unrolling",
    "compile_static", "fallback", "codecache", "code_templates",
    "codecache_dir", "template_store", "retier", "retier_cost_ratio",
    "spec_fuel", "verify", "analysis",
) + MACHINE_OPTIONS)


def check_start_options(options, machine=None) -> None:
    """Raise TypeError for an option name :meth:`CompiledProgram.start`
    does not read, or for a machine option given with an explicit
    ``machine`` (which would drop it): a misspelt knob must not silently
    fall back to its default."""
    unknown = sorted(set(options) - START_OPTIONS)
    if machine is not None:
        unknown += [f"{key} (with an explicit machine)"
                    for key in MACHINE_OPTIONS if key in options]
    if unknown:
        raise TypeError(f"start() cannot use option(s): {', '.join(unknown)}")


class CompiledProgram:
    """The output of static compilation: an analyzed translation unit with
    code-generating functions attached to every tick expression."""

    def __init__(self, tu: cast.TranslationUnit, source: str):
        self.tu = tu
        self.source = source

    def start(self, machine: Machine | None = None, **options) -> "Process":
        """Instantiate the program on a machine.  Options:

        ``backend``       BackendKind or "vcode"/"icode" (default ICODE)
        ``regalloc``      "linear" or "color" (ICODE only; default linear)
        ``static_opt``    "lcc" or "gcc" (default "lcc")
        ``allow_spills``  VCODE getreg spilling (default True)
        ``reorder_cspec_operands``  tcc's 5.1 heuristic (default True)
        ``strength_reduction``  rewrite multiply/divide/modulo by a
                          run-time constant into shifts and adds
                          (default True)
        ``dynamic_unrolling``  unroll a tick's loops whose bounds are
                          run-time constants (default True)
        ``compile_static``  compile pure-C functions at start (default True)
        ``fallback``      retry failed ICODE installs on VCODE (default True)
        ``codecache``     reuse dynamic code across compile() calls
                          (default True; see repro.core.codecache)
        ``code_templates``  the cache's Tier-2 copy-and-patch fast path
                          (default True; ignored when ``codecache`` is off)
        ``codecache_dir``  directory for the persistent template cache
                          (default ``$REPRO_CODECACHE_DIR``, else off):
                          templates are persisted write-behind and a
                          fresh process warm-starts from shapes any
                          earlier process compiled (see repro.persist).
                          Ignored when ``template_store`` is supplied —
                          the shared store owns persistence then.
        ``template_store``  a shared :class:`repro.serving.TemplateStore`
                          to use as the cache's Tier 2 instead of a
                          private one (serving.Engine passes its own)
        ``retier``        adaptive VCODE->ICODE re-instantiation when a
                          closure's cumulative exec cycles cross the
                          Fig. 5 recompile crossover (default True; needs
                          ``codecache`` and exec telemetry — the serving
                          envelope feeds it via ``note_exec_cycles``)
        ``retier_cost_ratio``  exec-cycles / compile-cycles multiple that
                          trips the retier (default 8.0)
        ``spec_fuel``     spec-time interpreter step budget per ``run()``
                          (None = unlimited)
        ``verify``        static-analysis mode: "off", "dev" (allocation
                          check + install audit), or "paranoid" (adds the
                          inter-pass IR verifier).  Defaults to
                          ``$REPRO_VERIFY``, else "dev".
        ``analysis``      abstract-interpretation guard elision in the
                          ICODE and static back ends: proven-safe memory
                          ops skip their bounds check (default
                          ``$REPRO_ANALYSIS``, else off)

        When no ``machine`` is supplied, these options configure the fresh
        one (passing them with a ``machine`` raises TypeError):

        ``fuel``          watchdog cycle budget per call (None = unlimited)
        ``icache``        an :class:`~repro.target.cpu.ICache` model
        ``code_capacity`` code-segment capacity, in instructions
        ``engine``        "tiered" (the default) or "block": one dispatch
                          engine over predecoded superblocks, with its
                          profile-guided trace tier on or off; or
                          "reference" (the per-instruction oracle stepper)
        ``tiering``       a :class:`repro.tiering.TieringPolicy` (or a
                          dict of its knobs) for the trace tier; unused
                          unless ``engine`` is "tiered"
        ``tiering_shared``  a :class:`repro.tiering.SharedHotness` to
                          seed/publish the cross-session dispatch profile

        Any other option name raises TypeError (:data:`START_OPTIONS`).
        To trace the process, run it under
        :func:`repro.telemetry.trace.activate`.
        """
        check_start_options(options, machine)
        if machine is None:
            machine = Machine(**{key: options[key] for key in MACHINE_OPTIONS
                                 if key in options})
        return Process(self, machine, options)

    @property
    def functions(self):
        return self.tu.functions

    def cgfs(self):
        """All code-generating functions in the program."""
        out = []
        for fn in self.tu.functions.values():
            out.extend(tick.cgf for tick in fn.ticks)
        return out


class Process:
    """One execution context: machine + interpreter + dynamic compiler."""

    def __init__(self, program: CompiledProgram, machine: Machine, options):
        backend = options.get("backend", BackendKind.ICODE)
        if isinstance(backend, str):
            backend = BackendKind(backend)
        self.program = program
        self.machine = machine
        self.options = options
        self.backend_kind = backend
        self.regalloc = options.get("regalloc", "linear")
        self.static_opt = options.get("static_opt", "lcc")
        self.verify = resolve_mode(options.get("verify"))
        self.analysis = resolve_analysis(options.get("analysis"))
        self.cost = CostModel()          # dynamic-compilation accounting
        self.static_cost = CostModel()   # static compilation (not reported)
        self.closure_arena = Arena(name="closures")
        self.global_cells: dict = {}
        self.current_params: list = []
        self.pending_args: list = []  # push()/apply() construction state
        self.last_codegen_stats = None
        self.compile_count = 0
        self._compile_path = None        # a COMPILE_PATHS value, see metrics
        self._compile_signature = None
        # The serving layer (repro.serving) sets ``envelope`` per request:
        # when present it drives compile() through the degradation ladder
        # (deadline + retries + circuit breakers) instead of the plain
        # single-attempt path below.
        self.envelope = None
        # Adaptive retier (the paper's Fig. 5 crossover made dynamic):
        # per-entry cumulative exec cycles, fed by the serving envelope
        # via note_exec_cycles(); when a VCODE-compiled closure's
        # execution time crosses retier_cost_ratio x its compile cost,
        # its signature is re-instantiated as ICODE on the next request.
        self._exec_cycles: dict = {}       # entry -> cumulative exec cycles
        self._entry_code_info: dict = {}   # entry -> (sig key, cold, backend)
        self._retier_to_icode: set = set()  # signature keys due for ICODE
        self._last_cold_cycles = None      # stashed by the cache paths
        shared_store = options.get("template_store")
        self.codecache = CodeCache(
            enabled=options.get("codecache", True),
            templates_enabled=options.get("code_templates", True),
            template_store=shared_store,
        )
        codecache_dir = options.get("codecache_dir")
        if codecache_dir is None:
            codecache_dir = os.environ.get("REPRO_CODECACHE_DIR") or None
        if (codecache_dir and shared_store is None
                and self.codecache.enabled
                and self.codecache.templates_enabled):
            # The private store is the disk tier's one owner; a shared
            # store brings its own (see serving.Engine).
            from repro.persist import DiskCodeCache, program_namespace

            self.codecache.template_store.disk = DiskCodeCache(
                codecache_dir, program_key=program_namespace(program.source))
        machine.code.add_invalidation_listener(self.codecache.on_segment_event)
        self._strings: dict = {}
        self._static_entries: dict = {}
        self._register_malloc()
        self._place_globals()
        self.interp = Interp(self)
        if options.get("compile_static", True):
            self._compile_static_functions()

    # -- setup -----------------------------------------------------------------

    def _register_malloc(self) -> None:
        machine = self.machine
        if "malloc" in machine._host_index:
            return

        def malloc(cpu):
            size = max(cpu.regs[4], 1)  # a0
            cpu.regs[2] = machine.memory.alloc(size, 8)  # rv

        machine.register_host_function("malloc", malloc)

    def _place_globals(self) -> None:
        mem = self.machine.memory
        for decl in self.program.tu.globals.values():
            ty = decl.ty
            if ty.is_cspec() or ty.is_vspec():
                self.global_cells[id(decl)] = PyCell(None)
                continue
            if ty.is_array() and (ty.base.is_cspec() or ty.base.is_vspec()):
                from repro.core.interp import ListCell

                self.global_cells[id(decl)] = ListCell(ty.length)
                continue
            if ty.is_array():
                addr = mem.alloc(ty.size, max(ty.base.align, 4))
                if isinstance(decl.init, list):
                    for i, item in enumerate(decl.init):
                        value = self._fold_global_init(item)
                        self._store_global(addr + i * ty.base.size, ty.base,
                                           value)
            else:
                addr = mem.alloc(max(ty.size, 4), max(ty.align, 4))
                if decl.init is not None:
                    value = self._fold_global_init(decl.init)
                    self._store_global(addr, ty, value)
            decl.address = addr
            self.global_cells[id(decl)] = MemCell(addr, ty)

    def _fold_global_init(self, expr):
        if isinstance(expr, cast.IntLit):
            return wrap32(expr.value)
        if isinstance(expr, cast.FloatLit):
            return float(expr.value)
        if isinstance(expr, cast.StrLit):
            return self.intern_string(expr.value)
        if isinstance(expr, cast.Unary) and expr.op == "-":
            return -self._fold_global_init(expr.operand)
        raise RuntimeTccError("unsupported global initializer")

    def _store_global(self, addr: int, ty, value) -> None:
        mem = self.machine.memory
        if ty.is_float():
            mem.store_double(addr, float(value))
        elif ty.size == 1:
            mem.store_byte(addr, int(value))
        else:
            mem.store_word(addr, wrap32(int(value)))

    def _compile_static_functions(self) -> None:
        compilable = self.compilable_functions()
        global_env = static_backend.build_global_env(self.global_cells)
        static_start = self.machine.code.here
        tracer = _trace.active()
        for name in compilable:
            fn = self.program.tu.functions[name]
            before = self.static_cost.current.total_cycles()
            entry = static_backend.compile_static_function(
                self.machine, self.static_cost, fn, global_env,
                self.intern_string, opt=self.static_opt, do_link=False,
                options=self.options, verify=self.verify,
                analysis=self.analysis,
            )
            self._static_entries[name] = entry
            if tracer.enabled:
                spent = self.static_cost.current.total_cycles() - before
                tracer.advance(spent)
                tracer.add_complete(f"static:{name}", cat="static",
                                    ts=tracer.cursor - spent,
                                    end=tracer.cursor, entry=entry)
        self.machine.code.link()
        if self.verify != "off":
            # The per-function installs deferred linking, so audit the
            # whole statically compiled region after the batched link.
            codeaudit.run_range(self.machine, static_start,
                                self.machine.code.here, where="static")
            # Elision facts of deferred-link installs are queued for the
            # same reason (dup windows need resolved branch targets).
            factcheck.run_deferred(self.machine)

    def compilable_functions(self) -> list:
        """Names of functions the static back end can compile: defined,
        free of dynamic constructs, and calling only compilable functions
        or host-backed builtins (computed to a fixpoint)."""
        tu = self.program.tu
        candidates = {}
        for name, fn in tu.functions.items():
            if fn.body is None:
                continue
            if self._has_dynamic_constructs(fn):
                continue
            candidates[name] = self._called_functions(fn)
        changed = True
        while changed:
            changed = False
            for name in list(candidates):
                for callee in candidates[name]:
                    if callee not in candidates and callee in tu.functions:
                        del candidates[name]
                        changed = True
                        break
        return list(candidates)

    @staticmethod
    def _has_dynamic_constructs(fn: cast.FuncDef) -> bool:
        if any(_is_spec_type(p.ty) for p in fn.params):
            return True
        if _is_spec_type(fn.ty.ret):
            return True
        for node in cast.walk(fn.body):
            if isinstance(node, (cast.Tick, cast.CompileForm, cast.LocalForm,
                                 cast.ParamForm, cast.Dollar)):
                return True
            if isinstance(node, cast.VarDecl) and _is_spec_type(node.ty):
                return True
            if isinstance(node, cast.Call) and node.builtin is not None:
                builtin = BUILTINS[node.builtin]
                if builtin.spec_time_only:
                    return True
        return False

    @staticmethod
    def _called_functions(fn: cast.FuncDef) -> set:
        out = set()
        for node in cast.walk(fn.body):
            if isinstance(node, cast.Ident) and isinstance(node.decl,
                                                           cast.FuncDef):
                out.add(node.decl.name)
        return out

    # -- services used by the interpreter ------------------------------------------

    def intern_string(self, text: str) -> int:
        addr = self._strings.get(text)
        if addr is None:
            addr = self.machine.memory.alloc_cstring(text)
            self._strings[text] = addr
        return addr

    def static_entry(self, name: str):
        return self._static_entries.get(name)

    def register_param(self, vspec) -> None:
        self.current_params.append(vspec)

    def make_backend(self, kind: BackendKind | None = None):
        if (kind or self.backend_kind) is BackendKind.VCODE:
            return VcodeBackend(
                self.machine, self.cost,
                allow_spills=self.options.get("allow_spills", True),
                verify=self.verify,
            )
        return IcodeBackend(
            self.machine, self.cost, regalloc=self.regalloc,
            optimize_ir=True, verify=self.verify, analysis=self.analysis,
        )

    def compile_closure(self, closure, ret_type) -> int:
        """The ``compile`` special form (tcc 4.4): run the CGF against a
        fresh back end, link the result, reset dynamic parameter state, and
        return the entry address (the function pointer).

        Dynamic-code reuse: when the specialization cache is enabled
        (``codecache`` option, default on) the instantiation is
        content-addressed first — a Tier-1 memo hit returns the previously
        installed entry without touching the back end, and a Tier-2
        template match clones + patches an earlier install (see
        :mod:`repro.core.codecache`).  Only on a cold miss does the back
        end run, with a :class:`PatchRecorder` riding along to capture a
        template for future reuse.

        Graceful degradation: if ICODE instantiation dies mid-emit with a
        :class:`CodegenError` or an exhausted code segment, the
        half-emitted function is rolled back (code segment, heap, interned
        strings, cost charges) and the closure is retried once on the
        one-pass VCODE back end.  Successful fallbacks are recorded in
        :mod:`repro.report` stats; their output is never cached (the
        signature describes the primary back end's configuration).

        Telemetry: every compile() records its path/cycles/instructions in
        the metrics registry; under an active tracer the finished
        instantiation is laid onto the cycle timeline as a ``compile#N``
        span whose phase children tile it exactly (see
        :meth:`_trace_compile`).
        """
        self._compile_path = None
        self._compile_signature = None
        entry = self._compile_dispatch(closure, ret_type)
        stats = self.last_codegen_stats
        path = self._compile_path = self._compile_path or "cold"
        _metrics.record_compile(path, stats.total_cycles(),
                                stats.generated_instructions)
        tracer = _trace.active()
        if tracer.enabled:
            self._trace_compile(tracer, closure, entry, stats, path)
        return entry

    def _compile_dispatch(self, closure, ret_type) -> int:
        """Route one compile() through the serving envelope when a session
        attached one, else straight down the classic path."""
        if self.envelope is None:
            return self._compile_closure(closure, ret_type)
        return self.envelope.compile_closure(self, closure, ret_type)

    def _compile_closure(self, closure, ret_type, backend_kind=None,
                         use_templates=True, allow_fallback=True) -> int:
        """One instantiation attempt.  ``backend_kind``/``use_templates``/
        ``allow_fallback`` are the degradation-ladder knobs: the serving
        envelope retries this method with a forced back end, templates
        bypassed, and the implicit ICODE->VCODE fallback disabled (the
        ladder owns backend demotion there).  Defaults reproduce the
        classic single-attempt behavior exactly."""
        effective = backend_kind or self.backend_kind
        retiered = False
        try:
            # Bind dynamic parameters created via param().
            params = sorted(self.current_params, key=lambda v: v.index)
            indices = [v.index for v in params]
            if indices != list(range(len(params))):
                raise CodegenError(
                    "dynamic parameters must use dense indices 0..n-1, got "
                    f"{indices}"
                )
            signature = None
            self._last_cold_cycles = None
            if self.codecache.enabled:
                signature = signature_of(
                    closure, params,
                    self._cache_config_key(ret_type, effective))
                if (backend_kind is None
                        and effective is BackendKind.VCODE
                        and signature.key in self._retier_to_icode):
                    # The Fig. 5 crossover fired for this closure: its
                    # cumulative exec time has outgrown the cheap VCODE
                    # build, so re-instantiate with the optimizing back
                    # end (and the matching cache signature) instead.
                    effective = BackendKind.ICODE
                    retiered = True
                    signature = signature_of(
                        closure, params,
                        self._cache_config_key(ret_type, effective))
                self._compile_signature = signature
                entry = self._try_cached(signature,
                                         use_templates=use_templates)
                if entry is not None:
                    self._note_code_info(entry, signature, effective)
                    return self._note_compiled(entry, closure)
                report.record_cache_miss()
            recorder = (PatchRecorder(signature)
                        if signature is not None else None)
            try:
                entry = self._instantiate(self.make_backend(effective),
                                          closure, ret_type, params, recorder)
            except (CodegenError, CodeSegmentExhausted) as primary:
                if (effective is not BackendKind.ICODE
                        or not allow_fallback
                        or not self.options.get("fallback", True)):
                    raise
                recorder = None
                fallback = VcodeBackend(
                    self.machine, self.cost,
                    allow_spills=self.options.get("allow_spills", True),
                    verify=self.verify,
                )
                entry = self._instantiate(fallback, closure, ret_type,
                                          params, None)
                report.record_fallback("icode", "vcode", str(primary))
                self._compile_path = "fallback"
                _trace.active().instant(
                    "fallback", cat="event", from_backend="icode",
                    to_backend="vcode", reason=str(primary)[:120])
            self.last_codegen_stats = self.cost.end_instantiation()
            if signature is not None and recorder is not None:
                self.codecache.store(
                    signature, recorder, entry, self.machine.code.here,
                    self.last_codegen_stats.total_cycles(),
                )
            self._last_cold_cycles = self.last_codegen_stats.total_cycles()
            self._note_code_info(entry, signature, effective)
            if retiered and self._compile_path is None:
                self._compile_path = "retier"
                report.record_retier()
            return self._note_compiled(entry, closure)
        finally:
            # Always reset param() state, even when instantiation raised:
            # a failed compile() must not leak vspecs into the next one.
            self.current_params = []

    def _cache_config_key(self, ret_type, backend_kind=None):
        """Every knob that changes what code an instantiation produces."""
        opts = self.options
        return (
            (backend_kind or self.backend_kind).value,
            self.regalloc,
            bool(opts.get("allow_spills", True)),
            bool(opts.get("strength_reduction", True)),
            bool(opts.get("dynamic_unrolling", True)),
            bool(opts.get("reorder_cspec_operands", True)),
            bool(self.analysis),
            str(ret_type),
        )

    def _trace_compile(self, tracer, closure, entry, stats, path) -> None:
        """Lay a finished instantiation onto the cycle timeline.

        Phase charges interleave in real time (a CGF call charges CLOSURE
        between EMIT charges), so live spans cannot represent them.
        Instead the cursor advances by the instantiation's total modeled
        cost, then the ``compile#N`` span and its phase children are
        synthesized retroactively: the children tile the parent in
        canonical phase order and sum to the cost model's phase totals by
        construction.
        """
        total = stats.total_cycles()
        tracer.advance(total)
        end = tracer.cursor
        args = {
            "closure": closure.cgf.label,
            "backend": self.backend_kind.value,
            "path": path,
            "entry": entry,
            "code_range": [entry, self.machine.code.here],
            "instructions": stats.generated_instructions,
        }
        if self._compile_signature is not None:
            args["sig"] = format(
                hash(self._compile_signature.key) & 0xFFFFFFFF, "08x")
        span = tracer.add_complete(
            f"compile#{self.compile_count}", cat="compile",
            ts=end - total, end=end, parent=tracer.current(), **args)
        at = span.ts
        for phase, cycles in stats.phase_cycles().items():
            tracer.add_complete(f"phase:{phase.value}", cat="phase",
                                ts=at, end=at + cycles, parent=span)
            at += cycles

    def _note_compiled(self, entry, closure) -> int:
        """Shared epilogue of every compile() path (hit, patched, cold)."""
        self.compile_count += 1
        self.machine.code.note_function(
            entry, f"{closure.cgf.label}#{self.compile_count}"
        )
        return entry

    def _note_code_info(self, entry, signature, effective) -> None:
        """Remember which signature/back end/compile cost produced the
        code at ``entry``, so exec-cycle telemetry can be attributed for
        the adaptive retier decision."""
        if signature is None:
            return
        cold = self._last_cold_cycles
        if cold is None:
            return
        self._entry_code_info[entry] = (
            signature.key, max(int(cold), 1), effective.value)

    def note_exec_cycles(self, entry, cycles) -> None:
        """Feed one execution's modeled cycles into the adaptive-retier
        accounting (the serving envelope calls this after every
        successful request).

        The paper's Fig. 5 frames VCODE-vs-ICODE as a crossover: the
        optimizing back end costs more to compile but its output runs
        faster, so it pays off only past enough executions.  Here the
        decision is made adaptively at run time: once a VCODE-compiled
        entry's *cumulative* exec cycles exceed ``retier_cost_ratio``
        (default 8.0) times its compile cost, its closure signature is
        marked and the next ``compile()`` of that closure re-instantiates
        it with ICODE (recorded as the "retier" compile path).
        """
        if not self.options.get("retier", True) or not self.codecache.enabled:
            return
        info = self._entry_code_info.get(entry)
        if info is None or info[2] != BackendKind.VCODE.value:
            return
        total = self._exec_cycles.get(entry, 0) + max(int(cycles), 0)
        self._exec_cycles[entry] = total
        if info[0] in self._retier_to_icode:
            return
        ratio = float(self.options.get("retier_cost_ratio", 8.0))
        if total >= info[1] * ratio:
            self._retier_to_icode.add(info[0])

    def _try_cached(self, signature, use_templates=True):
        """Probe both cache tiers; return an entry address or None.

        Tier 1 returns the previously installed function outright.  Tier 2
        clones a matching template through the normal emission path
        (capacity checks and fault injection still apply) and patches its
        holes.  Clone installation is transactional — audit *then*
        publish: the clone is audited against the template while still
        inside the mark()/commit() scope, so any failure (exhaustion,
        injected fault, mis-patch, even an unexpected crash) rolls the
        half-emitted body back before anything can observe it.
        """
        cache = self.codecache
        memory = self.machine.memory
        self.cost.charge(CLOSURE_CACHE_PROBE)
        hit = cache.lookup(signature, memory)
        if hit is not None:
            self.last_codegen_stats = self.cost.end_instantiation()
            report.record_cache_hit(
                hit.cold_cycles - self.last_codegen_stats.total_cycles()
            )
            self._compile_path = "hit"
            self._last_cold_cycles = hit.cold_cycles
            return hit.entry
        if not use_templates:
            return None
        found = cache.match_template(signature, memory, self.machine.code)
        if found is None:
            return None
        template, records = found
        machine = self.machine
        machine.code.mark()
        try:
            entry = cache.instantiate_template(records, signature, machine,
                                               self.cost)
            machine.code.link()
            # The template audit always runs: it is the publish gate that
            # keeps a partially emitted / mis-patched clone from becoming
            # callable, independent of the verify mode.
            codeaudit.run_template(machine, records, signature, entry,
                                   where=f"template@{entry}")
            if self.verify != "off":
                codeaudit.run_range(machine, entry, machine.code.here,
                                    where=f"template@{entry}")
                if cache.last_clone_facts:
                    factcheck.run_function(machine, entry,
                                           machine.code.here,
                                           cache.last_clone_facts,
                                           where=f"template@{entry}")
        except CodeSegmentExhausted:
            machine.code.release()
            self.cost.begin_instantiation()  # discard partial charges
            return None
        except VerifyError:
            # A mis-patched clone is a genuine bug: unpublish it, then
            # surface the diagnostics rather than silently falling back.
            machine.code.release()
            raise
        except BaseException:
            # Anything else mid-clone must not leave the partial body
            # published either.
            machine.code.release()
            self.cost.begin_instantiation()
            raise
        machine.code.commit()
        cache.store_patched(signature, template, records, entry,
                            machine.code.here)
        self.last_codegen_stats = self.cost.end_instantiation()
        report.record_cache_patch(
            len(records.holes) * BYTES_PER_HOLE,
            template.cold_cycles - self.last_codegen_stats.total_cycles(),
        )
        self._compile_path = "patched"
        self._last_cold_cycles = template.cold_cycles
        return entry

    def _instantiate(self, backend, closure, ret_type, params,
                     recorder=None) -> int:
        """Run the CGF against ``backend`` inside a rollback scope: on any
        failure the code segment, the heap, and the interned-string table
        are restored, so a retry (or the caller) sees no half-emitted
        state."""
        machine = self.machine
        machine.code.mark()
        machine.memory.mark()
        strings = dict(self._strings)
        try:
            ctx = EmitCtx(machine, self.cost, backend, ret_type,
                          self.intern_string, self.options)
            ctx.in_tick = True
            ctx.recorder = recorder
            backend.recorder = recorder
            n_int = n_float = 0
            for vspec in params:
                storage = backend.vspec_storage(vspec)
                if vspec.cls == "f":
                    backend.bind_param(storage, n_float, "f")
                    n_float += 1
                else:
                    backend.bind_param(storage, n_int, "i")
                    n_int += 1
            value = closure.cgf.emit_into(ctx, closure)
            if value is not None and not ret_type.is_void():
                gen = CodeGen(ctx)
                rv = gen.materialize(gen.convert(value, cls_of(ret_type)))
                backend.ret(rv.handle, cls_of(ret_type))
                gen.release(rv)
            entry = backend.install()
        except Exception:
            machine.code.release()
            machine.memory.release()
            self._strings = strings
            self.cost.begin_instantiation()  # discard partial charges
            raise
        machine.code.commit()
        machine.memory.commit()
        self.last_backend = backend
        return entry

    # -- running --------------------------------------------------------------------

    def run(self, fn_name: str, *args):
        """Interpret a (spec-time) function by name."""
        fn = self.program.tu.functions.get(fn_name)
        if fn is None:
            raise TccError(f"no function named {fn_name!r}")
        self.interp.reset_budget()
        tracer = _trace.active()
        span = tracer.begin(f"run:{fn_name}", cat="spec") \
            if tracer.enabled else None
        try:
            return self.interp.call_function(fn, list(args))
        finally:
            tracer.end(span)

    def function(self, entry: int, signature: str = "",
                 returns: str = "i", name: str = "<dynamic>") -> Function:
        """Wrap a code address (e.g. a compile() result) as a callable."""
        return Function(self.machine, entry, signature, returns, name)

    def static_function(self, name: str, signature: str | None = None,
                        returns: str | None = None) -> Function:
        """A callable for a statically compiled C function."""
        entry = self._static_entries.get(name)
        if entry is None:
            raise CodegenError(
                f"{name!r} was not statically compiled (dynamic constructs?)"
            )
        fn = self.program.tu.functions[name]
        if signature is None:
            signature = "".join(cls_of(p.ty) for p in fn.params)
        if returns is None:
            ret = fn.ty.ret
            returns = "v" if ret.is_void() else cls_of(ret)
        return Function(self.machine, entry, signature, returns, name)

    def run_cycles(self, fn: Function, *args):
        """Call ``fn`` and return (result, cycles consumed)."""
        before = self.machine.cpu.cycles
        result = fn(*args)
        return result, self.machine.cpu.cycles - before


def _is_spec_type(ty) -> bool:
    if ty.is_array():
        return _is_spec_type(ty.base)
    return ty.is_cspec() or ty.is_vspec()
