"""Abstract syntax tree for `C.

Named ``cast`` (C AST) to avoid colliding with the stdlib :mod:`ast`.

Nodes are plain mutable objects.  The parser fills in the structural fields;
:mod:`repro.frontend.sema` decorates nodes with types and analysis results
(``ty``, ``lvalue``, ``etc_const`` for emission-time-computable marking,
capture tables on :class:`Tick`, unroll flags on loops, …).
"""

from __future__ import annotations

from repro.errors import SourceLocation


class Node:
    """Base AST node with a source location."""

    __slots__ = ("loc",)

    def __init__(self, loc: SourceLocation | None = None):
        self.loc = loc

    def __repr__(self) -> str:
        name = type(self).__name__
        detail = getattr(self, "name", None) or getattr(self, "op", None)
        return f"<{name} {detail}>" if detail is not None else f"<{name}>"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ("ty", "lvalue", "etc", "rtc_decls", "cspec_ref")

    def __init__(self, loc=None):
        super().__init__(loc)
        self.ty = None       # CType, set by sema
        self.lvalue = False  # is this an lvalue?
        self.etc = False     # emission-time computable (inside a tick)
        # Static facts of the subtree, filled in by the lowering on first
        # use (they depend only on what sema fixed): the derived-RTC
        # decls it mentions, and whether it names a cspec or vspec.
        self.rtc_decls = None
        self.cspec_ref = None


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, loc=None):
        super().__init__(loc)
        self.value = value


class FloatLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, loc=None):
        super().__init__(loc)
        self.value = value


class StrLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str, loc=None):
        super().__init__(loc)
        self.value = value


class Ident(Expr):
    __slots__ = ("name", "decl")

    def __init__(self, name: str, loc=None):
        super().__init__(loc)
        self.name = name
        self.decl = None  # VarDecl / ParamDecl / FuncDef / Builtin, set by sema


class Unary(Expr):
    """Prefix ops: - + ! ~ * & ++ --; postfix: p++ p-- (op 'post++'/'post--')."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.left = left
        self.right = right


class Assign(Expr):
    """``target op= value``; ``op`` is '' for plain assignment."""

    __slots__ = ("op", "target", "value")

    def __init__(self, op: str, target: Expr, value: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.target = target
        self.value = value


class Cond(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.other = other


class Comma(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr, loc=None):
        super().__init__(loc)
        self.left = left
        self.right = right


class Call(Expr):
    __slots__ = ("fn", "args", "builtin")

    def __init__(self, fn: Expr, args: list, loc=None):
        super().__init__(loc)
        self.fn = fn
        self.args = args
        self.builtin = None  # name of special form, set by sema


class CompileForm(Expr):
    """``compile(cspec, type)`` — the instantiation special form."""

    __slots__ = ("cspec", "ret_type")

    def __init__(self, cspec: Expr, ret_type, loc=None):
        super().__init__(loc)
        self.cspec = cspec
        self.ret_type = ret_type


class LocalForm(Expr):
    """``local(type)`` — create a dynamic local; yields ``type vspec``."""

    __slots__ = ("var_type",)

    def __init__(self, var_type, loc=None):
        super().__init__(loc)
        self.var_type = var_type


class ParamForm(Expr):
    """``param(type, index)`` — create a dynamic parameter vspec."""

    __slots__ = ("var_type", "index")

    def __init__(self, var_type, index: Expr, loc=None):
        super().__init__(loc)
        self.var_type = var_type
        self.index = index


class LabelForm(Expr):
    """``make_label()`` — create a dynamic label (a ``void cspec`` that
    marks a position when composed).  tcc section 3: `C has facilities to
    dynamically create labels and jumps, implemented as special forms."""

    __slots__ = ()


class JumpForm(Expr):
    """``jump(label)`` — a ``void cspec`` that jumps to a dynamic label."""

    __slots__ = ("label",)

    def __init__(self, label: Expr, loc=None):
        super().__init__(loc)
        self.label = label


class PushInit(Expr):
    """``push_init()`` — begin building a dynamic argument list (tcc's
    run-time-library special forms for constructing calls with
    statically-unknown argument counts, section 3)."""

    __slots__ = ()


class Push(Expr):
    """``push(cspec)`` — append an argument to the pending dynamic call."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr, loc=None):
        super().__init__(loc)
        self.arg = arg


class Apply(Expr):
    """``apply(fn)`` — an ``int cspec`` that calls ``fn`` with the pushed
    argument list."""

    __slots__ = ("fn",)

    def __init__(self, fn: Expr, loc=None):
        super().__init__(loc)
        self.fn = fn


class Member(Expr):
    """``base.name`` or ``base->name`` (``arrow`` distinguishes them)."""

    __slots__ = ("base", "name", "arrow")

    def __init__(self, base: Expr, name: str, arrow: bool, loc=None):
        super().__init__(loc)
        self.base = base
        self.name = name
        self.arrow = arrow


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, loc=None):
        super().__init__(loc)
        self.base = base
        self.index = index


class Cast(Expr):
    __slots__ = ("target_type", "expr")

    def __init__(self, target_type, expr: Expr, loc=None):
        super().__init__(loc)
        self.target_type = target_type
        self.expr = expr


class SizeofType(Expr):
    __slots__ = ("target_type",)

    def __init__(self, target_type, loc=None):
        super().__init__(loc)
        self.target_type = target_type


class SizeofExpr(Expr):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, loc=None):
        super().__init__(loc)
        self.expr = expr


class Tick(Expr):
    """A backquote expression: ``\\`expr`` or ``\\`{ statements }``.

    ``body`` is an :class:`Expr` or a :class:`Block`.  Sema fills in the
    capture table; the core compiler attaches the CGF.
    """

    __slots__ = ("body", "eval_type", "captures", "dollars", "cgf", "tick_id")

    def __init__(self, body, loc=None):
        super().__init__(loc)
        self.body = body
        self.eval_type = None
        self.captures = {}   # name -> Capture (see sema)
        self.dollars = []    # Dollar nodes in specification order
        self.cgf = None      # repro.core.cgf.CGF, set at static compile time
        self.tick_id = -1


class Dollar(Expr):
    """``$expr`` — bind a run-time constant into the containing cspec."""

    __slots__ = ("expr", "slot", "spectime")

    def __init__(self, expr: Expr, loc=None):
        super().__init__(loc)
        self.expr = expr
        self.slot = -1        # closure slot index, set by sema
        self.spectime = True  # False if it references a derived RTC variable


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, loc=None):
        super().__init__(loc)
        self.expr = expr


class DeclStmt(Stmt):
    __slots__ = ("decls",)

    def __init__(self, decls: list, loc=None):
        super().__init__(loc)
        self.decls = decls  # list of VarDecl


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: list, loc=None):
        super().__init__(loc)
        self.stmts = stmts


class If(Stmt):
    __slots__ = ("cond", "then", "other", "emission_time")

    def __init__(self, cond: Expr, then: Stmt, other, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.other = other
        self.emission_time = False  # condition decidable while emitting


class While(Stmt):
    __slots__ = ("cond", "body", "unroll")

    def __init__(self, cond: Expr, body: Stmt, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.body = body
        self.unroll = False


class DoWhile(Stmt):
    __slots__ = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr, loc=None):
        super().__init__(loc)
        self.body = body
        self.cond = cond


class For(Stmt):
    __slots__ = ("init", "cond", "update", "body", "unroll", "induction")

    def __init__(self, init, cond, update, body: Stmt, loc=None):
        super().__init__(loc)
        self.init = init      # Expr or None
        self.cond = cond      # Expr or None
        self.update = update  # Expr or None
        self.body = body
        self.unroll = False       # dynamic loop unrolling applies
        self.induction = None     # the derived-RTC induction VarDecl


class Switch(Stmt):
    """``switch`` with C fallthrough semantics.

    ``cases`` is an ordered list of (constant value or None for default,
    statement list); execution enters at the first matching label and falls
    through until a ``break``.
    """

    __slots__ = ("expr", "cases")

    def __init__(self, expr: Expr, cases: list, loc=None):
        super().__init__(loc)
        self.expr = expr
        self.cases = cases


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value, loc=None):
        super().__init__(loc)
        self.value = value  # Expr or None


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


class Empty(Stmt):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class VarDecl(Node):
    """One declared variable (local or global)."""

    __slots__ = (
        "name",
        "ty",
        "init",
        "is_global",
        "needs_memory",
        "address",
        "storage",
        "derived_rtc",
        "owner_tick",
    )

    def __init__(self, name: str, ty, init=None, loc=None):
        super().__init__(loc)
        self.name = name
        self.ty = ty
        self.init = init
        self.is_global = False
        self.needs_memory = False   # captured by a tick or address-taken
        self.address = None         # target address once placed in memory
        self.storage = None         # backend storage handle during codegen
        self.derived_rtc = False    # derived run-time constant (tcc 4.4)
        self.owner_tick = None      # Tick that declared it (dynamic local)

    def __repr__(self) -> str:
        return f"<VarDecl {self.name}: {self.ty}>"


class ParamDecl(Node):
    __slots__ = ("name", "ty", "storage", "needs_memory")

    def __init__(self, name: str, ty, loc=None):
        super().__init__(loc)
        self.name = name
        self.ty = ty
        self.storage = None
        self.needs_memory = False  # captured by a tick or address-taken

    def __repr__(self) -> str:
        return f"<ParamDecl {self.name}: {self.ty}>"


class FuncDef(Node):
    __slots__ = ("name", "ty", "params", "body", "ticks", "is_extern")

    def __init__(self, name: str, ty, params: list, body, loc=None):
        super().__init__(loc)
        self.name = name
        self.ty = ty          # FunctionType
        self.params = params  # list of ParamDecl
        self.body = body      # Block or None for declarations
        self.ticks = []       # Tick nodes contained in the body
        self.is_extern = body is None

    def __repr__(self) -> str:
        return f"<FuncDef {self.name}>"


class TranslationUnit(Node):
    __slots__ = ("decls", "functions", "globals")

    def __init__(self, decls: list, loc=None):
        super().__init__(loc)
        self.decls = decls       # ordered VarDecl / FuncDef
        self.functions = {}      # name -> FuncDef, set by sema
        self.globals = {}        # name -> VarDecl, set by sema


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------

#: child attribute names per node type (attributes may hold a node, a list of
#: nodes, or None).
_CHILD_FIELDS = {
    Unary: ("operand",),
    Binary: ("left", "right"),
    Assign: ("target", "value"),
    Cond: ("cond", "then", "other"),
    Comma: ("left", "right"),
    Call: ("fn", "args"),
    CompileForm: ("cspec",),
    ParamForm: ("index",),
    Push: ("arg",),
    Apply: ("fn",),
    JumpForm: ("label",),
    Member: ("base",),
    Index: ("base", "index"),
    Cast: ("expr",),
    SizeofExpr: ("expr",),
    Tick: ("body",),
    Dollar: ("expr",),
    ExprStmt: ("expr",),
    DeclStmt: ("decls",),
    Block: ("stmts",),
    If: ("cond", "then", "other"),
    While: ("cond", "body"),
    DoWhile: ("body", "cond"),
    For: ("init", "cond", "update", "body"),
    Switch: ("expr", "cases"),
    Return: ("value",),
    VarDecl: ("init",),
    FuncDef: ("body",),
    TranslationUnit: ("decls",),
}


def iter_child_nodes(node: Node):
    """Yield the direct child nodes of ``node`` (skipping None and lists of
    non-nodes such as brace initializers containing nested lists)."""
    for field in _CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, field)
        if value is None:
            continue
        if isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item
                elif isinstance(item, tuple):  # switch cases
                    for sub in item:
                        if isinstance(sub, Node):
                            yield sub
                        elif isinstance(sub, list):
                            for stmt in sub:
                                if isinstance(stmt, Node):
                                    yield stmt
        elif isinstance(value, Node):
            yield value


def walk(node: Node):
    """Yield ``node`` and all descendants, preorder."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(iter_child_nodes(current))
