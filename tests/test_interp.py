"""Spec-time interpreter tests (the non-dynamic parts of `C programs)."""

import pytest

from repro.errors import RuntimeTccError
from tests.conftest import compile_c


def run(source, fn="main", *args, **options):
    return compile_c(source, **options).run(fn, *args)


class TestExpressions:
    def test_arithmetic(self):
        assert run("int main(void) { return 2 + 3 * 4 - 1; }") == 13

    def test_division_truncates(self):
        assert run("int main(void) { return -7 / 2; }") == -3

    def test_wraparound(self):
        src = "int main(void) { return 2147483647 + 1; }"
        assert run(src) == -(1 << 31)

    def test_float_math(self):
        assert run("double main(void) { return 1.5 * 4.0; }") == 6.0

    def test_int_to_float_promotion(self):
        assert run("double main(void) { return 3 / 2 + 0.25; }") == 1.25

    def test_logical_short_circuit(self):
        src = """
        int g;
        int touch(void) { g = 1; return 1; }
        int main(void) { int r; g = 0; r = 0 && touch(); return r + g; }
        """
        assert run(src) == 0

    def test_ternary_and_comma(self):
        assert run("int main(void) { return (1, 2, 3) ? 7 : 8; }") == 7

    def test_char_semantics(self):
        assert run("int main(void) { char c; c = 300; return c; }") == 44

    def test_unsigned_compare(self):
        src = "int main(void) { unsigned a; a = -1; return a > 100u; }"
        assert run(src) == 1

    def test_incdec(self):
        src = """
        int main(void) {
            int x, a, b;
            x = 5;
            a = x++;
            b = ++x;
            return a * 100 + b * 10 + x;
        }
        """
        assert run(src) == 5 * 100 + 7 * 10 + 7

    def test_sizeof(self):
        src = "int main(void) { return sizeof(int) + sizeof(double) + sizeof(char *); }"
        assert run(src) == 4 + 8 + 4


class TestPointersAndArrays:
    def test_local_array(self):
        src = """
        int main(void) {
            int a[5];
            int i, s;
            for (i = 0; i < 5; i++) a[i] = i * i;
            s = 0;
            for (i = 0; i < 5; i++) s = s + a[i];
            return s;
        }
        """
        assert run(src) == 30

    def test_pointer_into_array(self):
        src = """
        int main(void) {
            int a[3] = {10, 20, 30};
            int *p;
            p = a + 1;
            return *p + p[1];
        }
        """
        assert run(src) == 50

    def test_address_of_local(self):
        src = """
        int main(void) {
            int x;
            int *p;
            x = 1;
            p = &x;
            *p = 42;
            return x;
        }
        """
        assert run(src) == 42

    def test_global_state(self):
        src = """
        int counter;
        void bump(void) { counter = counter + 1; }
        int main(void) { bump(); bump(); bump(); return counter; }
        """
        assert run(src) == 3

    def test_string_access(self):
        src = 'int main(void) { char *s; s = "AB"; return s[0] * 1000 + s[1]; }'
        assert run(src) == 65 * 1000 + 66

    def test_malloc_builtin(self):
        src = """
        int main(void) {
            int *p;
            p = (int *)malloc(8);
            p[0] = 40;
            p[1] = 2;
            return p[0] + p[1];
        }
        """
        assert run(src) == 42


class TestFunctions:
    def test_recursion(self):
        src = "int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }"
        assert run(src, "fact", 6) == 720

    def test_interpreted_calls_compiled(self):
        # spec-time code calling a statically compiled function by name
        src = """
        int square(int x) { return x * x; }
        int main(void) {
            int (*fp)(int);
            fp = square;
            return fp(6);
        }
        """
        assert run(src) == 36

    def test_call_undefined_extern(self):
        src = "int g(int); int main(void) { return g(1); }"
        with pytest.raises(RuntimeTccError, match="undefined"):
            run(src, compile_static=False)

    def test_float_args_and_return(self):
        src = """
        double mix(double a, int b) { return a + b; }
        double main(void) { return mix(0.5, 2); }
        """
        assert run(src) == 2.5


class TestOutput:
    def test_printf_basics(self):
        src = r"""
        void main(void) { printf("x=%d, s=%s, c=%c\n", 42, "hi", 33); }
        """
        proc = compile_c(src)
        proc.run("main")
        assert proc.machine.drain_output() == "x=42, s=hi, c=!\n"

    def test_printf_percent_escape(self):
        src = r'void main(void) { printf("100%%"); }'
        proc = compile_c(src)
        proc.run("main")
        assert proc.machine.drain_output() == "100%"

    def test_printf_float(self):
        src = r'void main(void) { printf("%g", 2.5); }'
        proc = compile_c(src)
        proc.run("main")
        assert proc.machine.drain_output() == "2.5"

    def test_printf_missing_args(self):
        src = r'void main(void) { printf("%d %d", 1); }'
        proc = compile_c(src)
        with pytest.raises(RuntimeTccError, match="arguments"):
            proc.run("main")

    def test_print_int_builtin(self):
        src = "void main(void) { print_int(7); }"
        proc = compile_c(src)
        proc.run("main")
        assert proc.machine.drain_output() == "7"

    def test_hello_world(self):
        # the paper's first example
        src = r"""
        void main(void) {
            void cspec hello = `{ print_str("hello world\n"); };
            ((void (*)(void))compile(hello, void))();
        }
        """
        proc = compile_c(src)
        proc.run("main")
        assert proc.machine.drain_output() == "hello world\n"


class TestSpecRuntime:
    def test_param_reset_between_compiles(self):
        src = """
        int build_two(void) {
            int vspec a = param(int, 0);
            int f1;
            f1 = (int)compile(`(a + 1), int);
            return f1;
        }
        int build_zero(void) {
            return (int)compile(`99, int);
        }
        """
        proc = compile_c(src)
        f1 = proc.run("build_two")
        f2 = proc.run("build_zero")
        assert proc.function(f1, "i", "i")(1) == 2
        assert proc.function(f2, "", "i")() == 99

    def test_vspec_value_passing(self):
        src = """
        int vspec make(void) { return local(int); }
        int build(void) {
            int vspec v = make();
            return (int)compile(`{ v = 13; return v * 2; }, int);
        }
        """
        proc = compile_c(src)
        fn = proc.function(proc.run("build"), "", "i")
        assert fn() == 26

    def test_cspec_in_global(self):
        src = """
        int cspec saved;
        void make(int x) { saved = `($x * 2); }
        int build(void) {
            make(21);
            return (int)compile(saved, int);
        }
        """
        proc = compile_c(src)
        fn = proc.function(proc.run("build"), "", "i")
        assert fn() == 42

    def test_spec_value_cannot_enter_target_code(self):
        # a cspec smuggled through a varargs-typed compiled function pointer
        # is caught at the host/target boundary
        src = """
        int build(void) {
            int vspec p = param(int, 0);
            return (int)compile(`(p + 1), int);
        }
        int main(void) {
            int (*fp)();
            int cspec c = `1;
            fp = (int (*)())build();
            return fp(c);
        }
        """
        with pytest.raises(RuntimeTccError, match="specification"):
            run(src)

    def test_cast_of_cspec_to_int_rejected_statically(self):
        from repro.errors import TypeError_

        src = "int main(void) { int cspec c = `1; return (int)c + 0; }"
        with pytest.raises(TypeError_, match="cast"):
            run(src)


class TestNonFiniteToInt:
    """Every spec-time conversion of a NaN or infinite double to an
    integer is a RuntimeTccError, never a bare ValueError or
    OverflowError."""

    SRC = """
    int f(int x) { return x; }
    int cast(double d) { return (int)d; }
    int assign(double d) { int x; x = d; return x; }
    int static_arg(double d) { return f(d); }
    int print_it(double d) { print_int(d); return 0; }
    int put(double d) { putchar(d); return 0; }
    int alloc(double d) { char *m; m = malloc(d); return 0; }
    int fmt(double d) { printf("%d", d); return 0; }
    int emit_assign(double d) {
        return (int)compile(`{ int x; x = $d; return x; }, int);
    }
    """

    @pytest.mark.parametrize("fn", ["cast", "assign", "static_arg",
                                    "print_it", "put", "alloc", "fmt",
                                    "emit_assign"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_raises_a_tcc_error(self, fn, value):
        with pytest.raises(RuntimeTccError, match="float-to-int"):
            run(self.SRC, fn, value)

    def test_finite_values_still_truncate(self):
        assert run(self.SRC, "cast", -2.75) == -2
        assert run(self.SRC, "static_arg", 7.9) == 7
