"""End-to-end tests of the static back end (C -> target code), at both
optimization levels."""

import pytest

from tests.conftest import compile_c

OPTS = ("lcc", "gcc")


def run(source, fn, *args, opt="lcc", **kw):
    proc = compile_c(source, static_opt=opt)
    return proc.static_function(fn)(*args)


@pytest.mark.parametrize("opt", OPTS)
class TestArithmetic:
    def test_constant_return(self, opt):
        assert run("int f(void) { return 42; }", "f", opt=opt) == 42

    def test_parameters(self, opt):
        assert run("int f(int a, int b) { return a * 10 + b; }",
                   "f", 4, 2, opt=opt) == 42

    def test_division_semantics(self, opt):
        src = "int f(int a, int b) { return a / b + a % b; }"
        assert run(src, "f", -7, 2, opt=opt) == -3 + -1

    def test_constant_expressions_fold_as_c_divides(self, opt):
        # Array bounds and case labels fold at parse time; they must
        # agree with the same expressions evaluated at run time.
        src = """
        int a[-7/2+10];
        int b[-7%3+10];
        int f(int x) {
            switch (x) { case -7/2: return 1; default: return 0; }
        }
        int g(int x) { return x / 2 + 10; }
        int h(int x) { return x % 3 + 10; }
        int sizes(void) { return sizeof(a) / 4 * 100 + sizeof(b) / 4; }
        """
        proc = compile_c(src, static_opt=opt)
        fn = proc.static_function
        assert fn("sizes")() == fn("g")(-7) * 100 + fn("h")(-7) == 709
        assert (fn("f")(-3), fn("f")(-4)) == (1, 0)

    def test_unsigned_arithmetic(self, opt):
        src = "unsigned f(unsigned a) { return a / 2u; }"
        assert run(src, "f", -2, opt=opt) == 0x7FFFFFFF

    def test_bitwise_ops(self, opt):
        src = "int f(int a, int b) { return (a & b) | (a ^ b); }"
        assert run(src, "f", 0b1100, 0b1010, opt=opt) == 0b1110

    def test_shifts(self, opt):
        src = "int f(int a) { return (a << 4) >> 2; }"
        assert run(src, "f", 3, opt=opt) == 12

    def test_comparison_chain(self, opt):
        src = "int f(int a, int b) { return (a < b) + (a <= b) + (a == b); }"
        assert run(src, "f", 3, 3, opt=opt) == 2

    def test_logical_short_circuit(self, opt):
        src = """
        int g;
        int bump(void) { g = g + 1; return 1; }
        int f(int x) { return x && bump(); }
        int get(void) { return g; }
        """
        proc = compile_c(src, static_opt=opt)
        assert proc.static_function("f")(0) == 0
        assert proc.static_function("get")() == 0  # bump never ran
        assert proc.static_function("f")(5) == 1
        assert proc.static_function("get")() == 1

    def test_conditional_expression(self, opt):
        src = "int f(int x) { return x > 0 ? x : -x; }"
        assert run(src, "f", -9, opt=opt) == 9

    def test_negation_and_not(self, opt):
        src = "int f(int x) { return -x + !x + ~x; }"
        assert run(src, "f", 0, opt=opt) == 0 + 1 + -1

    def test_char_truncation(self, opt):
        src = "int f(int x) { return (char)x; }"
        assert run(src, "f", 0x1FF, opt=opt) == -1

    def test_unsigned_char_cast(self, opt):
        src = "int f(int x) { return (unsigned char)x; }"
        assert run(src, "f", -1, opt=opt) == 255


@pytest.mark.parametrize("opt", OPTS)
class TestControlFlow:
    def test_while_loop(self, opt):
        src = """
        int f(int n) {
            int s;
            s = 0;
            while (n > 0) { s = s + n; n = n - 1; }
            return s;
        }
        """
        assert run(src, "f", 100, opt=opt) == 5050

    def test_for_loop_with_break_continue(self, opt):
        src = """
        int f(int n) {
            int i, s;
            s = 0;
            for (i = 0; i < n; i++) {
                if (i == 7) continue;
                if (i == 12) break;
                s = s + i;
            }
            return s;
        }
        """
        assert run(src, "f", 100, opt=opt) == sum(
            i for i in range(12) if i != 7
        )

    def test_do_while(self, opt):
        src = """
        int f(int n) {
            int c;
            c = 0;
            do { c = c + 1; n = n / 2; } while (n);
            return c;
        }
        """
        assert run(src, "f", 0, opt=opt) == 1
        assert run(src, "f", 16, opt=opt) == 5

    def test_nested_loops(self, opt):
        src = """
        int f(int n) {
            int i, j, s;
            s = 0;
            for (i = 0; i < n; i++)
                for (j = 0; j < i; j++)
                    s = s + 1;
            return s;
        }
        """
        assert run(src, "f", 10, opt=opt) == 45

    def test_early_return(self, opt):
        src = """
        int f(int x) {
            if (x < 0) return -1;
            if (x == 0) return 0;
            return 1;
        }
        """
        assert run(src, "f", -5, opt=opt) == -1
        assert run(src, "f", 0, opt=opt) == 0
        assert run(src, "f", 5, opt=opt) == 1


@pytest.mark.parametrize("opt", OPTS)
class TestMemoryAndPointers:
    def test_local_array(self, opt):
        src = """
        int f(int n) {
            int a[10];
            int i, s;
            for (i = 0; i < 10; i++) a[i] = i * i;
            s = 0;
            for (i = 0; i < 10; i++) s = s + a[i];
            return s;
        }
        """
        assert run(src, "f", 0, opt=opt) == sum(i * i for i in range(10))

    def test_pointer_walk(self, opt):
        src = """
        int f(int *p, int n) {
            int s;
            s = 0;
            while (n--) s = s + *p++;
            return s;
        }
        """
        proc = compile_c(src, static_opt=opt)
        addr = proc.machine.memory.alloc_words([1, 2, 3, 4, 5])
        assert proc.static_function("f")(addr, 5) == 15

    def test_address_of_local(self, opt):
        src = """
        void set(int *p, int v) { *p = v; }
        int f(void) {
            int x;
            set(&x, 99);
            return x;
        }
        """
        assert run(src, "f", opt=opt) == 99

    def test_global_variables(self, opt):
        src = """
        int counter = 10;
        int bump(int by) { counter = counter + by; return counter; }
        """
        proc = compile_c(src, static_opt=opt)
        bump = proc.static_function("bump")
        assert bump(5) == 15
        assert bump(1) == 16

    def test_global_array_initializer(self, opt):
        src = """
        int table[4] = {10, 20, 30, 40};
        int f(int i) { return table[i]; }
        """
        assert run(src, "f", 2, opt=opt) == 30

    def test_local_array_initializer(self, opt):
        src = """
        int f(int i) {
            int a[3] = {5, 6, 7};
            return a[i];
        }
        """
        assert run(src, "f", 1, opt=opt) == 6

    def test_char_array_string_ops(self, opt):
        src = """
        int f(char *s) {
            int n;
            n = 0;
            while (s[n]) n++;
            return n;
        }
        """
        proc = compile_c(src, static_opt=opt)
        addr = proc.machine.memory.alloc_cstring("hello!")
        assert proc.static_function("f")(addr) == 6

    def test_memcpy_prelude(self, opt):
        src = """
        int f(int *dst, int *src, int n) {
            memcpy((char *)dst, (char *)src, n * 4);
            return dst[n - 1];
        }
        """
        proc = compile_c(src, static_opt=opt)
        mem = proc.machine.memory
        src_a = mem.alloc_words([7, 8, 9])
        dst_a = mem.alloc_words([0, 0, 0])
        assert proc.static_function("f")(dst_a, src_a, 3) == 9
        assert mem.read_words(dst_a, 3) == [7, 8, 9]

    def test_memset_prelude(self, opt):
        src = """
        int f(char *p, int n) {
            memset(p, 7, n);
            return p[n - 1];
        }
        """
        proc = compile_c(src, static_opt=opt)
        addr = proc.machine.memory.alloc(16)
        assert proc.static_function("f")(addr, 16) == 7


@pytest.mark.parametrize("opt", OPTS)
class TestCallsAndFloats:
    def test_recursive_function(self, opt):
        src = "int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }"
        assert run(src, "fib", 12, opt=opt) == 144

    def test_mutual_recursion(self, opt):
        src = """
        int is_odd(int n);
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        """
        assert run(src, "is_even", 10, opt=opt) == 1
        assert run(src, "is_odd", 10, opt=opt) == 0

    def test_function_pointer_call(self, opt):
        src = """
        int dbl(int x) { return 2 * x; }
        int trc(int x) { return 3 * x; }
        int pick(int which, int x) {
            int (*fp)(int);
            fp = which ? dbl : trc;
            return fp(x);
        }
        """
        assert run(src, "pick", 1, 10, opt=opt) == 20
        assert run(src, "pick", 0, 10, opt=opt) == 30

    def test_float_arithmetic(self, opt):
        src = "double f(double a, double b) { return a * b - a / b; }"
        assert run(src, "f", 3.0, 2.0, opt=opt) == 6.0 - 1.5

    def test_int_float_conversion(self, opt):
        src = "double f(int n) { return n / 2 + 0.5; }"
        assert run(src, "f", 7, opt=opt) == 3.5

    def test_float_to_int_truncates(self, opt):
        src = "int f(double x) { return (int)x; }"
        assert run(src, "f", -2.7, opt=opt) == -2

    def test_float_comparisons(self, opt):
        src = "int f(double a, double b) { return (a < b) + 2 * (a == b); }"
        assert run(src, "f", 1.0, 1.0, opt=opt) == 2

    def test_mixed_int_float_params(self, opt):
        src = "double f(int a, double x, int b) { return (a - b) * x; }"
        assert run(src, "f", 10, 0.5, 4, opt=opt) == 3.0

    def test_float_locals_across_calls(self, opt):
        src = """
        double noisy(double x) { return x + 1.0; }
        double f(double a) {
            double keep;
            keep = a * 2.0;
            noisy(a);
            return keep;
        }
        """
        assert run(src, "f", 5.0, opt=opt) == 10.0


class TestOptLevels:
    SRC = """
    int f(int n) {
        int i, s, t;
        s = 0;
        for (i = 0; i < n; i++) {
            t = i * 2;
            s = s + t;
        }
        return s;
    }
    """

    def test_both_levels_agree(self):
        assert run(self.SRC, "f", 50, opt="lcc") == \
            run(self.SRC, "f", 50, opt="gcc")

    def test_gcc_level_not_slower(self):
        results = {}
        for opt in OPTS:
            proc = compile_c(self.SRC, static_opt=opt)
            fn = proc.static_function("f")
            _, cycles = proc.run_cycles(fn, 50)
            results[opt] = cycles
        assert results["gcc"] <= results["lcc"]

    def test_uncompilable_function_reported(self):
        src = "int f(void) { int cspec c = `1; return 0; }"
        proc = compile_c(src)
        with pytest.raises(Exception, match="not statically compiled"):
            proc.static_function("f")

    def test_compilable_set_excludes_dynamic_callers(self):
        src = """
        int dyn(void) { int cspec c = `1; return (int)compile(c, int); }
        int uses_dyn(void) { return dyn(); }
        int pure(int x) { return x + 1; }
        """
        proc = compile_c(src)
        names = proc.compilable_functions()
        assert "pure" in names
        assert "dyn" not in names and "uses_dyn" not in names
