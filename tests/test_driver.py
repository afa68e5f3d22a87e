"""Driver/Process-level tests: options, lifecycle, services, reports."""

import pytest

from repro import BackendKind, CodegenError, TccCompiler, TccError
from repro.core.driver import MACHINE_OPTIONS, START_OPTIONS
from repro.icode.backend import IcodeBackend
from repro.target.cpu import Machine
from repro.vcode.machine import VcodeBackend
from tests.conftest import compile_c


class TestCompilerDriver:
    def test_compile_returns_program_with_cgfs(self):
        prog = TccCompiler().compile(
            "void f(void) { int cspec a = `1; int cspec b = `2; }"
        )
        assert len(prog.cgfs()) == 2
        assert all(cgf.label.startswith("cgf_f_") for cgf in prog.cgfs())

    def test_prelude_injected_once(self):
        prog = TccCompiler().compile("int f(void) { return 0; }")
        assert "memcpy" in prog.tu.functions
        assert "memset" in prog.tu.functions

    def test_user_memcpy_wins_over_prelude(self):
        src = """
        int memcpy_called;
        void memcpy(char *d, char *s, int n) { memcpy_called = 1; }
        void f(void) { memcpy((char *)0, (char *)0, 0); }
        """
        proc = compile_c(src)
        proc.run("f")
        decl = proc.program.tu.globals["memcpy_called"]
        assert proc.machine.memory.load_word(decl.address) == 1

    def test_prelude_optional(self):
        tcc = TccCompiler(include_prelude=False)
        prog = tcc.compile("int f(void) { return 0; }")
        assert "memcpy" not in prog.tu.functions

    def test_program_reusable_across_processes(self):
        prog = TccCompiler().compile("int f(int x) { return x + 1; }")
        a = prog.start()
        b = prog.start()
        assert a.run("f", 1) == 2
        assert b.run("f", 5) == 6
        assert a.machine is not b.machine


class TestProcessOptions:
    def test_backend_selection_by_string(self):
        proc = compile_c("int f(void) { return 0; }", backend="vcode")
        assert isinstance(proc.make_backend(), VcodeBackend)

    def test_backend_selection_by_enum(self):
        proc = compile_c("int f(void) { return 0; }",
                         backend=BackendKind.ICODE)
        assert isinstance(proc.make_backend(), IcodeBackend)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            compile_c("int f(void) { return 0; }", backend="jit9000")

    def test_regalloc_option_threaded_through(self):
        proc = compile_c("int f(void) { return 0; }", regalloc="color")
        assert proc.make_backend().regalloc == "color"

    def test_compile_static_false_skips_compilation(self):
        proc = compile_c("int f(void) { return 0; }", compile_static=False)
        assert proc.static_entry("f") is None
        with pytest.raises(CodegenError, match="not statically compiled"):
            proc.static_function("f")

    def test_unknown_function_run(self):
        proc = compile_c("int f(void) { return 0; }")
        with pytest.raises(TccError, match="no function"):
            proc.run("missing")


class TestStartOptionNames:
    """A misspelt or retired ``start()`` option fails loudly instead of
    silently running with the default."""

    SRC = "int f(void) { return 7; }"

    @pytest.mark.parametrize("options, named", [
        ({"backnd": "vcode", "codecach": False}, "backnd, codecach"),
        ({"telemetry": "on"}, "telemetry"),
        ({"tracer": None}, "tracer"),
    ])
    def test_unknown_names_raise(self, options, named):
        with pytest.raises(TypeError, match=named):
            compile_c(self.SRC, **options)

    def test_every_documented_name_is_accepted(self):
        doc = TccCompiler().compile(self.SRC).start.__doc__
        documented = {name for name in START_OPTIONS
                      if f"``{name}``" in doc}
        assert documented == START_OPTIONS

    @pytest.mark.parametrize("name", MACHINE_OPTIONS)
    def test_machine_option_with_explicit_machine_raises(self, name):
        program = TccCompiler().compile(self.SRC)
        with pytest.raises(TypeError, match=name):
            program.start(machine=Machine(), **{name: None})
        assert program.start(machine=Machine()).run("f") == 7


class TestProcessServices:
    def test_intern_string_dedupes(self):
        proc = compile_c("int f(void) { return 0; }")
        a = proc.intern_string("hello")
        b = proc.intern_string("hello")
        c = proc.intern_string("world")
        assert a == b != c
        assert proc.machine.memory.read_cstring(a) == "hello"

    def test_static_function_signature_inferred(self):
        proc = compile_c("double mix(int a, double b) { return a + b; }")
        fn = proc.static_function("mix")
        assert fn.signature == "if"
        assert fn.returns == "f"
        assert fn(1, 2.5) == 3.5

    def test_compile_count_and_stats(self):
        src = """
        int build(void) {
            int a, b;
            a = (int)compile(`1, int);
            b = (int)compile(`2, int);
            return b;
        }
        """
        proc = compile_c(src)
        proc.run("build")
        assert proc.compile_count == 2
        assert proc.cost.lifetime.generated_instructions > 0

    def test_run_cycles_isolated_per_call(self):
        proc = compile_c("int f(int n) { int s; s = 0; "
                         "while (n--) s += n; return s; }")
        fn = proc.static_function("f")
        _, c1 = proc.run_cycles(fn, 10)
        _, c2 = proc.run_cycles(fn, 10)
        assert c1 == c2  # deterministic machine

    def test_global_cells_materialized(self):
        src = "int g = 42; double d = 1.5; char msg[4] = {104, 105, 0, 0};"
        proc = compile_c(src + " int f(void) { return g; }")
        g = proc.program.tu.globals["g"]
        assert proc.machine.memory.load_word(g.address) == 42
        d = proc.program.tu.globals["d"]
        assert proc.machine.memory.load_double(d.address) == 1.5

    def test_string_global_initializer(self):
        proc = compile_c('char *greeting = "yo"; '
                         "int f(void) { return greeting[0]; }")
        assert proc.run("f") == ord("y")

    def test_last_backend_exposed(self):
        proc = compile_c(
            "int build(void) { return (int)compile(`1, int); }",
            backend="vcode",
        )
        proc.run("build")
        assert isinstance(proc.last_backend, VcodeBackend)


class TestErrorQuality:
    def test_parse_error_has_location(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError) as exc:
            TccCompiler().compile("int f(void) {\n  1 +;\n}")
        assert exc.value.loc is not None
        assert exc.value.loc.line >= 2

    def test_type_error_message_names_identifier(self):
        from repro.errors import TypeError_

        with pytest.raises(TypeError_, match="mystery"):
            TccCompiler().compile("int f(void) { return mystery; }")

    def test_codegen_error_for_sparse_param_indices(self):
        src = """
        int build(void) {
            int vspec p = param(int, 9);
            return (int)compile(`(p), int);
        }
        """
        proc = compile_c(src)
        with pytest.raises(CodegenError, match="dense"):
            proc.run("build")

    def test_codegen_error_for_too_many_params(self):
        decls = "".join(
            f"int vspec p{i} = param(int, {i});" for i in range(7)
        )
        src = f"""
        int build(void) {{
            {decls}
            return (int)compile(`(p0 + p6), int);
        }}
        """
        proc = compile_c(src)
        with pytest.raises(CodegenError, match="parameters"):
            proc.run("build")
