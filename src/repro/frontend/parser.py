"""Recursive-descent parser for `C.

Produces the AST of :mod:`repro.frontend.cast`.  The grammar is the ANSI C
subset described in DESIGN.md plus the `C extensions:

* the backquote operator: ``` `expr ``` and ``` `{ statements } ```,
* the ``$`` run-time-constant operator,
* ``cspec`` / ``vspec`` type constructors in declarations,
* the special forms ``compile(cspec, type)``, ``local(type)``, and
  ``param(type, index)`` (tcc implements such operations as special forms
  translated to run-time library calls; see section 3).

Supported beyond the core subset: ``struct`` (definitions, members via
``.``/``->``, nested structs, self-referential pointers, whole-struct
assignment; struct parameters/returns must go through pointers) and
``switch``.  Not supported (rejected with a clear error): ``union``,
``typedef``, ``goto`` (dynamic code gets the make_label()/jump() special
forms instead).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import cast
from repro.frontend import typesys as T
from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.target.isa import sdiv, smod

_TYPE_KEYWORDS = frozenset(
    {"void", "char", "int", "double", "float", "unsigned", "signed", "const",
     "struct"}
)

_UNSUPPORTED = frozenset({"typedef", "goto"})

_ASSIGN_OPS = {
    "=": "",
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
    "&=": "&",
    "|=": "|",
    "^=": "^",
    "<<=": "<<",
    ">>=": ">>",
}

# Binary operator precedence (higher binds tighter).
_BINOP_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


class _Declarator:
    """Intermediate declarator structure, resolved inside-out (see parser)."""

    KIND_NAME = "name"
    KIND_PTR = "ptr"
    KIND_CSPEC = "cspec"
    KIND_VSPEC = "vspec"
    KIND_ARRAY = "array"
    KIND_FUNC = "func"

    def __init__(self, kind, inner=None, name=None, length=None, params=None,
                 varargs=False):
        self.kind = kind
        self.inner = inner
        self.name = name
        self.length = length
        self.params = params
        self.varargs = varargs

    def resolve(self, base):
        """Apply this declarator to ``base``; return (name, type, params)."""
        if self.kind == self.KIND_NAME:
            return self.name, base, None
        if self.kind == self.KIND_PTR:
            return self.inner.resolve(T.PointerType(base))
        if self.kind == self.KIND_CSPEC:
            return self.inner.resolve(T.CspecType(base))
        if self.kind == self.KIND_VSPEC:
            return self.inner.resolve(T.VspecType(base))
        if self.kind == self.KIND_ARRAY:
            return self.inner.resolve(T.ArrayType(base, self.length))
        if self.kind == self.KIND_FUNC:
            ptypes = tuple(p.ty for p in self.params)
            fn_ty = T.FunctionType(base, ptypes, self.varargs)
            name, ty, _ = self.inner.resolve(fn_ty)
            return name, ty, self.params
        raise AssertionError(self.kind)


class Parser:
    def __init__(self, tokens: list, filename: str = "<source>"):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.structs: dict = {}  # tag -> StructType

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        return self.peek().is_punct(text)

    def at_keyword(self, text: str) -> bool:
        return self.peek().is_keyword(text)

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    def accept_keyword(self, text: str) -> bool:
        if self.at_keyword(text):
            self.next()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {tok.value!r}", tok.loc)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.value!r}", tok.loc)
        return self.next()

    def at_type_start(self) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.KEYWORD and tok.value in _TYPE_KEYWORDS

    def _reject_unsupported(self) -> None:
        tok = self.peek()
        if tok.kind is TokenKind.KEYWORD and tok.value in _UNSUPPORTED:
            raise ParseError(f"{tok.value!r} is not supported by this subset", tok.loc)

    # -- types and declarators ----------------------------------------------

    def parse_base_type(self) -> T.CType:
        """Parse declaration specifiers into a base type."""
        self._reject_unsupported()
        loc = self.peek().loc
        signedness = None
        kind = None
        while True:
            tok = self.peek()
            if tok.kind is not TokenKind.KEYWORD:
                break
            if tok.value == "struct":
                if kind is not None or signedness is not None:
                    raise ParseError("invalid type specifier mix", tok.loc)
                self.next()
                return self.parse_struct_specifier()
            if tok.value in ("const", "static", "extern", "register"):
                self.next()  # accepted and ignored
                continue
            if tok.value == "unsigned":
                signedness = False
                self.next()
                continue
            if tok.value == "signed":
                signedness = True
                self.next()
                continue
            if tok.value in ("void", "char", "int", "double", "float"):
                if kind is not None:
                    raise ParseError("multiple type specifiers", tok.loc)
                kind = tok.value
                self.next()
                continue
            break
        if kind is None:
            if signedness is None:
                raise ParseError("expected type specifier", loc)
            kind = "int"
        if kind == "void":
            return T.VOID
        if kind in ("double", "float"):
            return T.DOUBLE
        if kind == "char":
            return T.UCHAR if signedness is False else T.CHAR
        return T.UINT if signedness is False else T.INT

    def parse_struct_specifier(self) -> T.StructType:
        """After the ``struct`` keyword: ``struct tag`` (reference) or
        ``struct tag { field-declarations }`` (definition)."""
        tag_tok = self.expect_ident()
        struct = self.structs.get(tag_tok.value)
        if struct is None:
            struct = T.StructType(tag_tok.value)
            self.structs[tag_tok.value] = struct
        if not self.at_punct("{"):
            return struct
        if struct.complete:
            raise ParseError(
                f"redefinition of struct {tag_tok.value!r}", tag_tok.loc
            )
        self.next()  # '{'
        fields = []
        seen = set()
        while not self.accept_punct("}"):
            base = self.parse_base_type()
            while True:
                floc = self.peek().loc
                decl = self.parse_declarator()
                name, ty, _ = decl.resolve(base)
                if name in seen:
                    raise ParseError(f"duplicate member {name!r}", floc)
                if ty.is_struct() and not ty.complete:
                    raise ParseError(
                        f"member {name!r} has incomplete type {ty} "
                        "(use a pointer)", floc,
                    )
                if ty.is_cspec() or ty.is_vspec() or ty.is_func() or \
                        ty.is_void():
                    raise ParseError(f"invalid member type {ty}", floc)
                if ty.is_array() and ty.length is None:
                    raise ParseError(f"member {name!r} has no size", floc)
                seen.add(name)
                fields.append((name, ty))
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
        if not fields:
            raise ParseError(
                f"struct {tag_tok.value!r} has no members", tag_tok.loc
            )
        struct.define(fields)
        return struct

    def parse_declarator(self, abstract: bool = False) -> _Declarator:
        """Parse a (possibly abstract) declarator."""
        mods = []
        while True:
            if self.accept_punct("*"):
                self.accept_keyword("const")
                mods.append(_Declarator.KIND_PTR)
            elif self.at_keyword("cspec"):
                self.next()
                mods.append(_Declarator.KIND_CSPEC)
            elif self.at_keyword("vspec"):
                self.next()
                mods.append(_Declarator.KIND_VSPEC)
            else:
                break
        decl = self.parse_direct_declarator(abstract)
        # Prefix modifiers wrap the direct declarator, innermost first:
        # `int *a[3]` is an array of pointers.
        for kind in reversed(mods):
            decl = _Declarator(kind, inner=decl)
        return decl

    def _is_grouped_declarator(self) -> bool:
        """At '(': grouped declarator rather than a parameter list?"""
        nxt = self.peek(1)
        if nxt.is_punct("*") or nxt.kind is TokenKind.IDENT:
            return True
        return nxt.is_keyword("cspec") or nxt.is_keyword("vspec")

    def parse_direct_declarator(self, abstract: bool) -> _Declarator:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            self.next()
            decl = _Declarator(_Declarator.KIND_NAME, name=tok.value)
        elif tok.is_punct("(") and self._is_grouped_declarator():
            self.next()
            decl = self.parse_declarator(abstract)
            self.expect_punct(")")
        else:
            if not abstract:
                raise ParseError(
                    f"expected declarator, found {tok.value!r}", tok.loc
                )
            decl = _Declarator(_Declarator.KIND_NAME, name=None)
        # Postfix: arrays and parameter lists, applied closest to the name.
        while True:
            if self.accept_punct("["):
                if self.at_punct("]"):
                    length = None
                else:
                    length_tok = self.peek()
                    length = self.parse_constant_int()
                    if length < 0:
                        raise ParseError("negative array size", length_tok.loc)
                self.expect_punct("]")
                decl = _Declarator(_Declarator.KIND_ARRAY, inner=decl, length=length)
            elif self.at_punct("("):
                self.next()
                params, varargs = self.parse_parameter_list()
                decl = _Declarator(
                    _Declarator.KIND_FUNC, inner=decl, params=params, varargs=varargs
                )
            else:
                return decl

    def parse_parameter_list(self):
        """Parse until ')'.  Handles (), (void), and trailing '...'."""
        params: list[cast.ParamDecl] = []
        varargs = False
        if self.accept_punct(")"):
            # K&R-style empty parens: unspecified parameters.
            return params, True
        if self.at_keyword("void") and self.peek(1).is_punct(")"):
            self.next()
            self.next()
            return params, varargs
        while True:
            if self.accept_punct("..."):
                varargs = True
                self.expect_punct(")")
                return params, varargs
            loc = self.peek().loc
            base = self.parse_base_type()
            decl = self.parse_declarator(abstract=True)
            name, ty, _ = decl.resolve(base)
            ty = T.decay(ty)
            params.append(cast.ParamDecl(name, ty, loc))
            if self.accept_punct(","):
                continue
            self.expect_punct(")")
            return params, varargs

    def parse_type_name(self) -> T.CType:
        """An abstract type, as in casts and ``compile``'s second argument."""
        base = self.parse_base_type()
        decl = self.parse_declarator(abstract=True)
        name, ty, _ = decl.resolve(base)
        if name is not None:
            raise ParseError("type name must not declare an identifier", self.peek().loc)
        return ty

    def parse_constant_int(self) -> int:
        """A very small constant-expression evaluator for array bounds."""
        expr = self.parse_conditional()
        value = _fold_int(expr)
        if value is None:
            raise ParseError("expected integer constant expression", expr.loc)
        return value

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> cast.Expr:
        expr = self.parse_assignment()
        while self.at_punct(","):
            loc = self.next().loc
            right = self.parse_assignment()
            expr = cast.Comma(expr, right, loc)
        return expr

    def parse_assignment(self) -> cast.Expr:
        left = self.parse_conditional()
        tok = self.peek()
        if tok.kind is TokenKind.PUNCT and tok.value in _ASSIGN_OPS:
            self.next()
            right = self.parse_assignment()
            return cast.Assign(_ASSIGN_OPS[tok.value], left, right, tok.loc)
        return left

    def parse_conditional(self) -> cast.Expr:
        cond = self.parse_binary(1)
        if self.at_punct("?"):
            loc = self.next().loc
            then = self.parse_expression()
            self.expect_punct(":")
            other = self.parse_conditional()
            return cast.Cond(cond, then, other, loc)
        return cond

    def parse_binary(self, min_prec: int) -> cast.Expr:
        left = self.parse_cast_expr()
        while True:
            tok = self.peek()
            if tok.kind is not TokenKind.PUNCT:
                return left
            prec = _BINOP_PREC.get(tok.value)
            if prec is None or prec < min_prec:
                return left
            self.next()
            right = self.parse_binary(prec + 1)
            left = cast.Binary(tok.value, left, right, tok.loc)

    def parse_cast_expr(self) -> cast.Expr:
        if self.at_punct("(") and self.peek(1).kind is TokenKind.KEYWORD and \
                self.peek(1).value in _TYPE_KEYWORDS:
            loc = self.next().loc  # '('
            ty = self.parse_type_name()
            self.expect_punct(")")
            expr = self.parse_cast_expr()
            return cast.Cast(ty, expr, loc)
        return self.parse_unary()

    def parse_unary(self) -> cast.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.TICK:
            self.next()
            if self.at_punct("{"):
                body = self.parse_block()
            else:
                body = self.parse_cast_expr()
            return cast.Tick(body, tok.loc)
        if tok.kind is TokenKind.DOLLAR:
            self.next()
            operand = self.parse_cast_expr()
            return cast.Dollar(operand, tok.loc)
        if tok.kind is TokenKind.PUNCT and tok.value in ("-", "+", "!", "~", "*", "&"):
            self.next()
            operand = self.parse_cast_expr()
            return cast.Unary(tok.value, operand, tok.loc)
        if tok.is_punct("++") or tok.is_punct("--"):
            self.next()
            operand = self.parse_unary()
            return cast.Unary(tok.value, operand, tok.loc)
        if tok.is_keyword("sizeof"):
            self.next()
            if self.at_punct("(") and self.peek(1).kind is TokenKind.KEYWORD and \
                    self.peek(1).value in _TYPE_KEYWORDS:
                self.next()
                ty = self.parse_type_name()
                self.expect_punct(")")
                return cast.SizeofType(ty, tok.loc)
            operand = self.parse_unary()
            return cast.SizeofExpr(operand, tok.loc)
        return self.parse_postfix()

    def parse_postfix(self) -> cast.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.is_punct("["):
                self.next()
                index = self.parse_expression()
                self.expect_punct("]")
                expr = cast.Index(expr, index, tok.loc)
            elif tok.is_punct("("):
                self.next()
                args = []
                if not self.at_punct(")"):
                    args.append(self.parse_assignment())
                    while self.accept_punct(","):
                        args.append(self.parse_assignment())
                self.expect_punct(")")
                expr = cast.Call(expr, args, tok.loc)
            elif tok.is_punct(".") or tok.is_punct("->"):
                self.next()
                name = self.expect_ident().value
                expr = cast.Member(expr, name, tok.value == "->", tok.loc)
            elif tok.is_punct("++") or tok.is_punct("--"):
                self.next()
                expr = cast.Unary("post" + tok.value, expr, tok.loc)
            else:
                return expr

    def parse_primary(self) -> cast.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.INT_LIT or tok.kind is TokenKind.CHAR_LIT:
            self.next()
            return cast.IntLit(tok.value, tok.loc)
        if tok.kind is TokenKind.FLOAT_LIT:
            self.next()
            return cast.FloatLit(tok.value, tok.loc)
        if tok.kind is TokenKind.STR_LIT:
            self.next()
            return cast.StrLit(tok.value, tok.loc)
        if tok.kind is TokenKind.IDENT:
            # Special forms are recognized syntactically, as tcc does for its
            # run-time-library forms.
            if tok.value == "compile" and self.peek(1).is_punct("("):
                return self.parse_compile_form()
            if tok.value == "local" and self.peek(1).is_punct("(") and \
                    self._type_starts_at(2):
                return self.parse_local_form()
            if tok.value == "param" and self.peek(1).is_punct("(") and \
                    self._type_starts_at(2):
                return self.parse_param_form()
            if tok.value == "make_label" and self.peek(1).is_punct("("):
                loc = self.next().loc
                self.expect_punct("(")
                self.expect_punct(")")
                return cast.LabelForm(loc)
            if tok.value == "jump" and self.peek(1).is_punct("("):
                loc = self.next().loc
                self.expect_punct("(")
                label = self.parse_assignment()
                self.expect_punct(")")
                return cast.JumpForm(label, loc)
            if tok.value == "push_init" and self.peek(1).is_punct("("):
                loc = self.next().loc
                self.expect_punct("(")
                self.expect_punct(")")
                return cast.PushInit(loc)
            if tok.value == "push" and self.peek(1).is_punct("("):
                loc = self.next().loc
                self.expect_punct("(")
                arg = self.parse_assignment()
                self.expect_punct(")")
                return cast.Push(arg, loc)
            if tok.value == "apply" and self.peek(1).is_punct("("):
                loc = self.next().loc
                self.expect_punct("(")
                fn = self.parse_assignment()
                self.expect_punct(")")
                return cast.Apply(fn, loc)
            self.next()
            return cast.Ident(tok.value, tok.loc)
        if tok.is_punct("("):
            self.next()
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        raise ParseError(f"expected expression, found {tok.value!r}", tok.loc)

    def _type_starts_at(self, offset: int) -> bool:
        tok = self.peek(offset)
        return tok.kind is TokenKind.KEYWORD and tok.value in _TYPE_KEYWORDS

    def parse_compile_form(self) -> cast.Expr:
        loc = self.next().loc  # 'compile'
        self.expect_punct("(")
        spec = self.parse_assignment()
        self.expect_punct(",")
        ty = self.parse_type_name()
        self.expect_punct(")")
        return cast.CompileForm(spec, ty, loc)

    def parse_local_form(self) -> cast.Expr:
        loc = self.next().loc
        self.expect_punct("(")
        ty = self.parse_type_name()
        self.expect_punct(")")
        return cast.LocalForm(ty, loc)

    def parse_param_form(self) -> cast.Expr:
        loc = self.next().loc
        self.expect_punct("(")
        ty = self.parse_type_name()
        self.expect_punct(",")
        index = self.parse_assignment()
        self.expect_punct(")")
        return cast.ParamForm(ty, index, loc)

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> cast.Block:
        loc = self.expect_punct("{").loc
        stmts = []
        while not self.at_punct("}"):
            if self.peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block", loc)
            stmts.append(self.parse_statement())
        self.expect_punct("}")
        return cast.Block(stmts, loc)

    def parse_statement(self) -> cast.Stmt:
        self._reject_unsupported()
        tok = self.peek()
        if tok.is_punct("{"):
            return self.parse_block()
        if tok.is_punct(";"):
            self.next()
            return cast.Empty(tok.loc)
        if self.at_type_start():
            return self.parse_decl_stmt()
        if tok.is_keyword("if"):
            return self.parse_if()
        if tok.is_keyword("while"):
            return self.parse_while()
        if tok.is_keyword("do"):
            return self.parse_do_while()
        if tok.is_keyword("for"):
            return self.parse_for()
        if tok.is_keyword("switch"):
            return self.parse_switch()
        if tok.is_keyword("return"):
            self.next()
            value = None if self.at_punct(";") else self.parse_expression()
            self.expect_punct(";")
            return cast.Return(value, tok.loc)
        if tok.is_keyword("break"):
            self.next()
            self.expect_punct(";")
            return cast.Break(tok.loc)
        if tok.is_keyword("continue"):
            self.next()
            self.expect_punct(";")
            return cast.Continue(tok.loc)
        expr = self.parse_expression()
        self.expect_punct(";")
        return cast.ExprStmt(expr, tok.loc)

    def parse_decl_stmt(self) -> cast.DeclStmt:
        loc = self.peek().loc
        decls = self.parse_var_decls()
        self.expect_punct(";")
        return cast.DeclStmt(decls, loc)

    def parse_var_decls(self) -> list:
        """Parse ``base declarator [= init] (, declarator [= init])*``."""
        base = self.parse_base_type()
        if base.is_struct() and self.at_punct(";"):
            return []  # a bare struct definition as a statement
        decls = []
        while True:
            loc = self.peek().loc
            decl = self.parse_declarator()
            name, ty, _params = decl.resolve(base)
            init = None
            if self.accept_punct("="):
                init = self.parse_initializer()
            decls.append(cast.VarDecl(name, ty, init, loc))
            if not self.accept_punct(","):
                return decls

    def parse_initializer(self):
        if self.at_punct("{"):
            self.next()
            items = []
            if not self.at_punct("}"):
                items.append(self.parse_initializer())
                while self.accept_punct(","):
                    if self.at_punct("}"):
                        break
                    items.append(self.parse_initializer())
            self.expect_punct("}")
            return items  # a plain list marks a brace initializer
        return self.parse_assignment()

    def parse_switch(self) -> cast.Switch:
        loc = self.next().loc
        self.expect_punct("(")
        expr = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct("{")
        cases = []
        seen_default = False
        while not self.at_punct("}"):
            if self.accept_keyword("case"):
                value = self.parse_constant_int()
                self.expect_punct(":")
                cases.append((value, []))
            elif self.accept_keyword("default"):
                if seen_default:
                    raise ParseError("multiple default labels", self.peek().loc)
                seen_default = True
                self.expect_punct(":")
                cases.append((None, []))
            else:
                if not cases:
                    raise ParseError(
                        "statement before the first case label", self.peek().loc
                    )
                cases[-1][1].append(self.parse_statement())
        self.expect_punct("}")
        values = [v for v, _ in cases if v is not None]
        if len(values) != len(set(values)):
            raise ParseError("duplicate case value", loc)
        return cast.Switch(expr, cases, loc)

    def parse_if(self) -> cast.If:
        loc = self.next().loc
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then = self.parse_statement()
        other = None
        if self.accept_keyword("else"):
            other = self.parse_statement()
        return cast.If(cond, then, other, loc)

    def parse_while(self) -> cast.While:
        loc = self.next().loc
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return cast.While(cond, body, loc)

    def parse_do_while(self) -> cast.DoWhile:
        loc = self.next().loc
        body = self.parse_statement()
        if not self.accept_keyword("while"):
            raise ParseError("expected 'while' after do-body", self.peek().loc)
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct(";")
        return cast.DoWhile(body, cond, loc)

    def parse_for(self) -> cast.For:
        loc = self.next().loc
        self.expect_punct("(")
        init = None if self.at_punct(";") else self.parse_expression()
        self.expect_punct(";")
        cond = None if self.at_punct(";") else self.parse_expression()
        self.expect_punct(";")
        update = None if self.at_punct(")") else self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return cast.For(init, cond, update, body, loc)

    # -- top level ---------------------------------------------------------------

    def parse_translation_unit(self) -> cast.TranslationUnit:
        loc = self.peek().loc
        decls = []
        while self.peek().kind is not TokenKind.EOF:
            self._reject_unsupported()
            decls.extend(self.parse_top_level())
        return cast.TranslationUnit(decls, loc)

    def parse_top_level(self) -> list:
        start_loc = self.peek().loc
        base = self.parse_base_type()
        if base.is_struct() and self.accept_punct(";"):
            return []  # a bare struct definition
        decl = self.parse_declarator()
        name, ty, params = decl.resolve(base)
        if ty.is_func() and (self.at_punct("{") or self.at_punct(";")):
            if params is None:
                params = []
            if self.accept_punct(";"):
                return [cast.FuncDef(name, ty, params, None, start_loc)]
            for i, p in enumerate(params):
                if p.name is None:
                    raise ParseError(
                        f"parameter {i + 1} of {name!r} needs a name", start_loc
                    )
            body = self.parse_block()
            return [cast.FuncDef(name, ty, params, body, start_loc)]
        # Global variable declaration(s).
        out = []
        init = None
        if self.accept_punct("="):
            init = self.parse_initializer()
        var = cast.VarDecl(name, ty, init, start_loc)
        var.is_global = True
        out.append(var)
        while self.accept_punct(","):
            loc = self.peek().loc
            decl = self.parse_declarator()
            name, ty, _ = decl.resolve(base)
            init = None
            if self.accept_punct("="):
                init = self.parse_initializer()
            var = cast.VarDecl(name, ty, init, loc)
            var.is_global = True
            out.append(var)
        self.expect_punct(";")
        return out


def _fold_int(expr) -> int | None:
    """Fold a parse-time constant integer expression (array bounds and
    ``case`` labels) with C's truncating division and remainder."""
    if isinstance(expr, cast.IntLit):
        return expr.value
    if isinstance(expr, cast.Unary) and expr.op == "-":
        v = _fold_int(expr.operand)
        return None if v is None else -v
    if isinstance(expr, cast.Binary):
        lhs = _fold_int(expr.left)
        rhs = _fold_int(expr.right)
        if lhs is None or rhs is None:
            return None
        try:
            return {
                "+": lambda: lhs + rhs,
                "-": lambda: lhs - rhs,
                "*": lambda: lhs * rhs,
                "/": lambda: sdiv(lhs, rhs) if rhs else None,
                "%": lambda: smod(lhs, rhs) if rhs else None,
                "<<": lambda: lhs << rhs,
                ">>": lambda: lhs >> rhs,
            }[expr.op]()
        except KeyError:
            return None
    return None


def parse(source: str, filename: str = "<source>") -> cast.TranslationUnit:
    """Parse `C source text into a translation unit."""
    return Parser(tokenize(source, filename), filename).parse_translation_unit()
