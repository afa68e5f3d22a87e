"""Parser unit tests: declarators, expressions, statements, `C forms."""

import pytest

from repro.errors import ParseError
from repro.frontend import cast
from repro.frontend import typesys as T
from repro.frontend.parser import parse


def first_func(source):
    tu = parse(source)
    for d in tu.decls:
        if isinstance(d, cast.FuncDef):
            return d
    raise AssertionError("no function found")


def expr_of(source_expr):
    fn = first_func("void f(void) { " + source_expr + "; }")
    stmt = fn.body.stmts[0]
    assert isinstance(stmt, cast.ExprStmt)
    return stmt.expr


class TestDeclarators:
    def test_simple_int(self):
        tu = parse("int x;")
        assert tu.decls[0].ty == T.INT

    def test_pointer(self):
        tu = parse("int *p;")
        assert tu.decls[0].ty == T.PointerType(T.INT)

    def test_pointer_to_pointer(self):
        tu = parse("char **pp;")
        assert tu.decls[0].ty == T.PointerType(T.PointerType(T.CHAR))

    def test_array(self):
        tu = parse("int a[10];")
        assert tu.decls[0].ty == T.ArrayType(T.INT, 10)

    def test_array_of_pointers(self):
        tu = parse("int *a[3];")
        assert tu.decls[0].ty == T.ArrayType(T.PointerType(T.INT), 3)

    def test_pointer_to_array(self):
        tu = parse("int (*a)[3];")
        assert tu.decls[0].ty == T.PointerType(T.ArrayType(T.INT, 3))

    def test_function_pointer(self):
        tu = parse("int (*fp)(int, double);")
        ty = tu.decls[0].ty
        assert ty.is_pointer() and ty.base.is_func()
        assert ty.base.params == (T.INT, T.DOUBLE)

    def test_cspec_type(self):
        tu = parse("int cspec c;")
        assert tu.decls[0].ty == T.CspecType(T.INT)

    def test_void_cspec(self):
        tu = parse("void cspec c;")
        assert tu.decls[0].ty == T.CspecType(T.VOID)

    def test_pointer_cspec(self):
        tu = parse("int * cspec c;")
        assert tu.decls[0].ty == T.CspecType(T.PointerType(T.INT))

    def test_vspec_type(self):
        tu = parse("double vspec v;")
        assert tu.decls[0].ty == T.VspecType(T.DOUBLE)

    def test_unsigned(self):
        tu = parse("unsigned u; unsigned char b;")
        assert tu.decls[0].ty == T.UINT
        assert tu.decls[1].ty == T.UCHAR

    def test_float_becomes_double(self):
        tu = parse("float f;")
        assert tu.decls[0].ty == T.DOUBLE

    def test_const_accepted_and_ignored(self):
        tu = parse("const int x;")
        assert tu.decls[0].ty == T.INT

    def test_multiple_declarators(self):
        tu = parse("int a, *b, c[2];")
        assert [d.ty for d in tu.decls] == [
            T.INT, T.PointerType(T.INT), T.ArrayType(T.INT, 2)
        ]

    def test_constant_array_bound_expression(self):
        tu = parse("int a[4 * 2 + 1];")
        assert tu.decls[0].ty.length == 9

    def test_negative_array_size_rejected(self):
        with pytest.raises(ParseError):
            parse("int a[-1];")

    @pytest.mark.parametrize("bound, length", [
        ("-7/2+10", 7),      # C truncates: -7/2 == -3 (floor gives -4)
        ("-7%3+10", 9),      # the remainder takes the dividend's sign
        ("7/-2+10", 7),
        ("7%-3+10", 11),
    ])
    def test_array_bound_folds_with_c_division(self, bound, length):
        assert parse(f"int a[{bound}];").decls[0].ty.length == length

    @pytest.mark.parametrize("bound", ["4/0", "4%0"])
    def test_array_bound_division_by_zero_rejected(self, bound):
        with pytest.raises(ParseError, match="integer constant"):
            parse(f"int a[{bound}];")

    def test_function_definition_params(self):
        fn = first_func("int add(int a, int b) { return a + b; }")
        assert [p.name for p in fn.params] == ["a", "b"]
        assert fn.ty.ret == T.INT

    def test_void_param_list(self):
        fn = first_func("int f(void) { return 0; }")
        assert fn.params == []

    def test_varargs(self):
        fn = first_func("int f(int a, ...) { return a; }")
        assert fn.ty.varargs

    def test_unnamed_function_param_rejected_in_definition(self):
        with pytest.raises(ParseError):
            parse("int f(int) { return 0; }")

    def test_extern_declaration(self):
        tu = parse("int f(int x);")
        assert tu.decls[0].is_extern

    def test_array_param_decays(self):
        fn = first_func("int f(int a[10]) { return a[0]; }")
        assert fn.params[0].ty == T.PointerType(T.INT)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = expr_of("1 + 2 * 3")
        assert isinstance(e, cast.Binary) and e.op == "+"
        assert isinstance(e.right, cast.Binary) and e.right.op == "*"

    def test_precedence_shift_vs_relational(self):
        e = expr_of("1 << 2 < 3")
        assert e.op == "<"
        assert e.left.op == "<<"

    def test_logical_precedence(self):
        e = expr_of("1 || 2 && 3")
        assert e.op == "||"
        assert e.right.op == "&&"

    def test_assignment_right_associative(self):
        fn = first_func("void f(void) { int a, b; a = b = 1; }")
        e = fn.body.stmts[1].expr
        assert isinstance(e, cast.Assign)
        assert isinstance(e.value, cast.Assign)

    def test_compound_assignment(self):
        e = expr_of("x += 2")  # parses even though x is undeclared
        assert isinstance(e, cast.Assign) and e.op == "+"

    def test_conditional_expression(self):
        e = expr_of("1 ? 2 : 3")
        assert isinstance(e, cast.Cond)

    def test_comma_expression(self):
        e = expr_of("(1, 2)")
        assert isinstance(e, cast.Comma)

    def test_cast_expression(self):
        e = expr_of("(int *)0")
        assert isinstance(e, cast.Cast)
        assert e.target_type == T.PointerType(T.INT)

    def test_sizeof_type(self):
        e = expr_of("sizeof(int)")
        assert isinstance(e, cast.SizeofType)

    def test_sizeof_expression(self):
        e = expr_of("sizeof 4")
        assert isinstance(e, cast.SizeofExpr)

    def test_unary_operators(self):
        for text, op in [("-1", "-"), ("!1", "!"), ("~1", "~")]:
            e = expr_of(text)
            assert isinstance(e, cast.Unary) and e.op == op

    def test_prefix_and_postfix_incdec(self):
        assert expr_of("++x").op == "++"
        assert expr_of("x++").op == "post++"

    def test_index_and_call_postfix(self):
        e = expr_of("f(1)[2]")
        assert isinstance(e, cast.Index)
        assert isinstance(e.base, cast.Call)

    def test_address_and_deref(self):
        e = expr_of("*&x")
        assert e.op == "*"
        assert e.operand.op == "&"

    def test_string_literal(self):
        e = expr_of('"hi"')
        assert isinstance(e, cast.StrLit) and e.value == "hi"


class TestTickAndDollar:
    def test_tick_expression(self):
        e = expr_of("`4")
        assert isinstance(e, cast.Tick)
        assert isinstance(e.body, cast.IntLit)

    def test_tick_compound(self):
        e = expr_of("`{ return 1; }")
        assert isinstance(e.body, cast.Block)

    def test_tick_binds_tightly(self):
        e = expr_of("`4 == 0")
        # the tick applies to 4, not to the comparison
        assert isinstance(e, cast.Binary)
        assert isinstance(e.left, cast.Tick)

    def test_dollar_with_postfix(self):
        e = expr_of("$row[k]")
        # $ grabs the full postfix expression row[k]
        assert isinstance(e, cast.Dollar)
        assert isinstance(e.expr, cast.Index)

    def test_parenthesized_dollar_base(self):
        e = expr_of("($row)[k]")
        assert isinstance(e, cast.Index)
        assert isinstance(e.base, cast.Dollar)

    def test_compile_form(self):
        e = expr_of("compile(c, int)")
        assert isinstance(e, cast.CompileForm)
        assert e.ret_type == T.INT

    def test_compile_form_pointer_type(self):
        e = expr_of("compile(c, char *)")
        assert e.ret_type == T.PointerType(T.CHAR)

    def test_local_form(self):
        e = expr_of("local(double)")
        assert isinstance(e, cast.LocalForm)
        assert e.var_type == T.DOUBLE

    def test_param_form(self):
        e = expr_of("param(int, 2)")
        assert isinstance(e, cast.ParamForm)

    def test_push_apply_forms(self):
        assert isinstance(expr_of("push_init()"), cast.PushInit)
        assert isinstance(expr_of("push(c)"), cast.Push)
        assert isinstance(expr_of("apply(f)"), cast.Apply)

    def test_local_requires_type(self):
        # local(x) with non-type argument is an ordinary call
        e = expr_of("local(x)")
        assert isinstance(e, cast.Call)


class TestStatements:
    def test_if_else(self):
        fn = first_func("void f(int x) { if (x) x = 1; else x = 2; }")
        stmt = fn.body.stmts[0]
        assert isinstance(stmt, cast.If)
        assert stmt.other is not None

    def test_dangling_else(self):
        fn = first_func(
            "void f(int x) { if (x) if (x > 1) x = 1; else x = 2; }"
        )
        outer = fn.body.stmts[0]
        assert outer.other is None
        assert outer.then.other is not None

    def test_while(self):
        fn = first_func("void f(int x) { while (x) x = x - 1; }")
        assert isinstance(fn.body.stmts[0], cast.While)

    def test_do_while(self):
        fn = first_func("void f(int x) { do x = x - 1; while (x); }")
        assert isinstance(fn.body.stmts[0], cast.DoWhile)

    def test_for_with_empty_parts(self):
        fn = first_func("void f(void) { for (;;) break; }")
        loop = fn.body.stmts[0]
        assert loop.init is None and loop.cond is None and loop.update is None

    def test_break_continue(self):
        fn = first_func(
            "void f(int x) { while (x) { if (x) break; continue; } }"
        )
        body = fn.body.stmts[0].body
        assert isinstance(body.stmts[0].then, cast.Break)
        assert isinstance(body.stmts[1], cast.Continue)

    def test_declaration_with_init(self):
        fn = first_func("void f(void) { int x = 5, y; }")
        decls = fn.body.stmts[0].decls
        assert decls[0].init.value == 5
        assert decls[1].init is None

    def test_array_brace_initializer(self):
        fn = first_func("void f(void) { int a[3] = {1, 2, 3}; }")
        init = fn.body.stmts[0].decls[0].init
        assert isinstance(init, list) and len(init) == 3

    def test_empty_statement(self):
        fn = first_func("void f(void) { ; }")
        assert isinstance(fn.body.stmts[0], cast.Empty)

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("void f(void) { int x;")


class TestErrorsAndUnsupported:
    def test_struct_definition_parses(self):
        tu = parse("struct point { int x; int y; };")
        assert tu.decls == []  # a bare definition declares no objects

    def test_union_rejected(self):
        with pytest.raises(ParseError):
            parse("union u { int x; };")

    def test_case_outside_switch_rejected(self):
        with pytest.raises(ParseError):
            parse("void f(int x) { case 1: x = 1; }")

    def test_switch_statement_parses(self):
        fn = first_func(
            "int f(int x) { switch (x) { case 1: return 1; "
            "case 2: case 3: return 2; default: return 0; } }"
        )
        sw = fn.body.stmts[0]
        assert isinstance(sw, cast.Switch)
        assert [v for v, _ in sw.cases] == [1, 2, 3, None]

    def test_case_label_folds_with_c_division(self):
        fn = first_func(
            "int f(int x) { switch (x) { case -7/2: return 1; "
            "case -7%3: return 2; default: return 0; } }"
        )
        assert [v for v, _ in fn.body.stmts[0].cases] == [-3, -1, None]

    def test_switch_duplicate_case_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("void f(int x) { switch (x) { case 1: case 1: break; } }")

    def test_switch_duplicate_default_rejected(self):
        with pytest.raises(ParseError, match="default"):
            parse(
                "void f(int x) { switch (x) { default: break; "
                "default: break; } }"
            )

    def test_goto_rejected(self):
        with pytest.raises(ParseError, match="goto"):
            parse("void f(void) { goto out; }")

    def test_typedef_rejected(self):
        with pytest.raises(ParseError, match="typedef"):
            parse("typedef int myint;")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_garbage_expression(self):
        with pytest.raises(ParseError):
            parse("void f(void) { 1 +; }")
