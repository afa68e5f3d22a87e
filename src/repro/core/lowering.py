"""AST-to-abstract-machine lowering.

:class:`CodeGen` walks type-checked `C ASTs and drives a dynamic back end
(VCODE or ICODE) through the common macro interface.  It is used in two
roles:

* as the body of every **code-generating function** — instantiation-time
  emission of a tick expression, with the closure environment supplying
  free-variable addresses, run-time constants, nested cspecs and vspecs, and
  performing tcc's automatic dynamic partial evaluation (constant folding,
  strength reduction, dynamic loop unrolling, emission-time dead-code
  elimination; section 4.4);
* as the **static back end** — compiling ordinary C functions to target
  code (see :mod:`repro.core.static_backend`).

Values flowing through the generator are :class:`Imm` (compile/emission-time
constants, which fold) or :class:`RegVal` (a backend register handle plus an
ownership bit used to drive VCODE's putreg).  Lvalues are :class:`MemLV`
(memory at base+offset) or :class:`RegLV` (register-resident variables and
vspec storage).
"""

from __future__ import annotations

from repro.core import partial_eval
from repro.core.codecache import PatchImm, imm_int
from repro.core.operands import FuncRef
from repro.errors import CodegenError
from repro.frontend import cast
from repro.frontend import typesys as T
from repro.frontend.sema import Builtin
from repro.runtime.closures import Vspec
from repro.runtime.costmodel import (
    CLOSURE_CGF_CALL,
    EMIT_LVALUE_CHECK,
    EMIT_RTCONST_FOLD,
    IR_RTCONST_FOLD,
)
from repro.target.isa import wrap32

_MAX_UNROLL = 1 << 20

_CMP_OPS = {"==": "seq", "!=": "sne", "<": "slt", "<=": "sle",
            ">": "sgt", ">=": "sge"}
_CMP_SWAP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_FCMP_OPS = {"==": "fseq", "!=": "fsne", "<": "fslt", "<=": "fsle",
             ">": "fsgt", ">=": "fsge"}
_COMMUTATIVE = frozenset({"+", "*", "&", "|", "^", "==", "!="})
_INT_BINOPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
               "&": "and", "|": "or", "^": "xor", "<<": "sll", ">>": "sra"}
_FLT_BINOPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}


def cls_of(ty: T.CType) -> str:
    return "f" if ty.is_float() else "i"


def width_of(ty: T.CType) -> str:
    """Memory access width code for a value of type ``ty``."""
    if ty.is_float():
        return "d"
    if isinstance(ty, T.IntType) and ty.kind == "char":
        return "b" if ty.signed else "bu"
    return "w"


class Imm:
    """A constant known at (static or emission) compile time."""

    __slots__ = ("value", "cls")

    def __init__(self, value, cls: str = "i"):
        self.value = value
        self.cls = cls

    def __repr__(self) -> str:
        return f"Imm({self.value}:{self.cls})"


class RegVal:
    """A value residing in a backend register handle."""

    __slots__ = ("handle", "cls", "owned")

    def __init__(self, handle, cls: str, owned: bool):
        self.handle = handle
        self.cls = cls
        self.owned = owned

    def __repr__(self) -> str:
        return f"RegVal({self.handle}:{self.cls}{' owned' if self.owned else ''})"


class MemLV:
    """An lvalue in memory: ``width``-wide access at base+offset."""

    __slots__ = ("base", "off", "width", "cls", "owned_base")

    def __init__(self, base, off: int, width: str, cls: str,
                 owned_base: bool = False):
        self.base = base  # register handle or None for absolute
        self.off = off
        self.width = width
        self.cls = cls
        self.owned_base = owned_base


class RegLV:
    """A register-resident lvalue (local variable or vspec storage)."""

    __slots__ = ("handle", "cls", "is_vspec")

    def __init__(self, handle, cls: str, is_vspec: bool = False):
        self.handle = handle
        self.cls = cls
        self.is_vspec = is_vspec


class VspecBinding:
    """Environment marker: this declaration is a captured vspec."""

    __slots__ = ("vspec",)

    def __init__(self, vspec: Vspec):
        self.vspec = vspec


class CspecBinding:
    """Environment marker: this declaration is a captured (nested) cspec."""

    __slots__ = ("closure",)

    def __init__(self, closure):
        self.closure = closure


class EmitCtx:
    """Everything one code-generation walk needs."""

    def __init__(self, machine, cost, backend, ret_type: T.CType,
                 intern_string, options=None):
        self.machine = machine
        self.cost = cost
        self.backend = backend
        self.ret_type = ret_type
        self.intern_string = intern_string
        self.options = options or {}
        self.env: dict = {}            # id(decl) -> LVal / VspecBinding / ...
        self.in_tick = False
        self.emit_env: dict = {}       # id(decl) -> int (derived RTC values)
        self.rtconst_values: dict = {} # id(decl) -> captured $ value
        self.dollar_values: dict = {}  # slot -> spec-time $ value
        self.recorder = None           # codecache PatchRecorder, when caching

    def child(self) -> "EmitCtx":
        """A context for a nested CGF: same machine/back end/cost stream,
        fresh environment tables."""
        ctx = EmitCtx(self.machine, self.cost, self.backend, self.ret_type,
                      self.intern_string, self.options)
        ctx.in_tick = self.in_tick
        ctx.recorder = self.recorder
        return ctx


class CodeGen:
    """One statement/expression tree's worth of code generation."""

    def __init__(self, ctx: EmitCtx):
        self.ctx = ctx
        self.backend = ctx.backend
        self.loops: list = []  # (break_label, continue_label)
        self.reorder = ctx.options.get("reorder_cspec_operands", True)
        self._fold_slot = (EMIT_RTCONST_FOLD if self.backend.kind == "vcode"
                           else IR_RTCONST_FOLD)

    # ------------------------------------------------------------------
    # patch-hole provenance (codecache Tier 2)
    #
    # Run-time constants arrive tagged as PatchImm/PatchFloat when a
    # PatchRecorder rides along.  Every transform below either *preserves*
    # the tag (the result is still an affine image of the origin, so it
    # can be re-patched) or *pins* the origin (its value steered what code
    # was emitted, so a template is only reusable for the exact value).
    # Plain Python arithmetic strips tags, which is the safe default —
    # but strips at steering sites must be accompanied by a pin.
    # ------------------------------------------------------------------

    def _pin(self, value) -> None:
        rec = self.ctx.recorder
        if rec is not None:
            rec.pin_value(value)

    def _fold_tag(self, op, lhs, rhs, result):
        """Re-tag a constant fold when affine, pin stripped inputs."""
        rec = self.ctx.recorder
        if rec is not None:
            return rec.fold_binary(op, lhs, rhs, result)
        return result

    def _off_add(self, value, delta):
        """value + delta (a plain int), tag-preserving."""
        if isinstance(value, PatchImm) and self.ctx.recorder is not None:
            return self.ctx.recorder.shift(value, delta)
        return value + delta

    def _off_scale(self, value, k):
        """value * k (a plain int), tag-preserving."""
        if isinstance(value, PatchImm) and self.ctx.recorder is not None:
            return self.ctx.recorder.scale(value, k)
        return int(value) * k

    # ------------------------------------------------------------------
    # value plumbing
    # ------------------------------------------------------------------

    def release(self, val) -> None:
        if isinstance(val, RegVal) and val.owned:
            self.backend.free_reg(val.handle)
            val.owned = False

    def release_lv(self, lv) -> None:
        if isinstance(lv, MemLV) and lv.owned_base and lv.base is not None:
            self.backend.free_reg(lv.base)
            lv.owned_base = False

    def materialize(self, val) -> RegVal:
        """Ensure the value lives in a register."""
        if isinstance(val, RegVal):
            return val
        handle = self.backend.alloc_reg(val.cls)
        if val.cls == "f":
            self.backend.fli(handle, val.value)
        else:
            self.backend.li(handle, val.value)
        return RegVal(handle, val.cls, True)

    def _result_reg(self, cls: str, *sources) -> RegVal:
        """Pick a destination register, reusing an owned source when the
        back end has a finite register file (VCODE)."""
        if self.backend.kind == "vcode":
            for src in sources:
                if isinstance(src, RegVal) and src.owned and src.cls == cls:
                    src.owned = False
                    handle = src.handle
                    for other in sources:
                        if other is not src:
                            self.release(other)
                    return RegVal(handle, cls, True)
        for src in sources:
            self.release(src)
        return RegVal(self.backend.alloc_reg(cls), cls, True)

    def convert(self, val, to_cls: str):
        """Convert between the integer and float register classes."""
        if val.cls == to_cls:
            return val
        if isinstance(val, Imm):
            # Crossing register classes is not affine in the origin value.
            self._pin(val.value)
            if to_cls == "f":
                return Imm(float(val.value), "f")
            return Imm(wrap32(int(val.value)), "i")
        src = val
        dst = RegVal(self.backend.alloc_reg(to_cls), to_cls, True)
        if to_cls == "f":
            self.backend.cvtif(dst.handle, src.handle)
        else:
            self.backend.cvtfi(dst.handle, src.handle)
        self.release(src)
        return dst

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def storage_of(self, decl):
        """The lvalue bound to a declaration in the current environment."""
        binding = self.ctx.env.get(id(decl))
        if binding is not None:
            if isinstance(binding, VspecBinding):
                handle = self.backend.vspec_storage(binding.vspec)
                self.ctx.cost.charge(EMIT_LVALUE_CHECK)
                return RegLV(handle, binding.vspec.cls, is_vspec=True)
            return binding
        # Dynamic local declared in the tick body: allocate on first touch.
        if isinstance(decl, cast.VarDecl) and decl.owner_tick is not None:
            ty = decl.ty
            if ty.is_array() or ty.is_struct():
                # Aggregates get per-instantiation target memory (like the
                # static back end's memory locals; documented non-reentrant).
                # Reusing such code would alias the buffer across what a
                # cold world treats as distinct functions: don't cache it.
                if self.ctx.recorder is not None:
                    self.ctx.recorder.disable(
                        "per-instantiation aggregate local"
                    )
                elem = ty.base if ty.is_array() else ty
                addr = self.ctx.machine.memory.alloc(
                    max(ty.size, 4), max(ty.align, 4)
                )
                lv = MemLV(None, addr, width_of(elem), cls_of(elem))
                self.ctx.env[id(decl)] = lv
                return lv
            cls = cls_of(ty)
            storage = self.backend.alloc_reg(cls)
            self.backend.note_storage(storage)
            lv = RegLV(storage, cls, is_vspec=True)
            self.ctx.env[id(decl)] = lv
            return lv
        raise CodegenError(f"no storage for {getattr(decl, 'name', decl)!r}")

    def load_lval(self, lv, free_base: bool = True):
        if isinstance(lv, RegLV):
            return RegVal(lv.handle, lv.cls, owned=False)
        dst = RegVal(self.backend.alloc_reg(lv.cls), lv.cls, True)
        self.backend.load(dst.handle, lv.base, lv.off, lv.width)
        if free_base:
            self.release_lv(lv)
        return dst

    def store_lval(self, lv, val, free_base: bool = True) -> None:
        if isinstance(lv, RegLV):
            if isinstance(val, Imm):
                if lv.cls == "f":
                    self.backend.fli(lv.handle, val.value)
                else:
                    self.backend.li(lv.handle, val.value)
            else:
                if val.handle is not lv.handle:
                    if lv.cls == "f":
                        self.backend.funop("fmov", lv.handle, val.handle)
                    else:
                        self.backend.unop("mov", lv.handle, val.handle)
                self.release(val)
            return
        rv = self.materialize(val)
        self.backend.store(rv.handle, lv.base, lv.off, lv.width)
        self.release(rv)
        if free_base:
            self.release_lv(lv)

    # ------------------------------------------------------------------
    # emission-time evaluation (run-time constants, tcc 4.4)
    # ------------------------------------------------------------------

    def emit_eval(self, expr):
        """Evaluate an emission-time-computable expression to a Python
        value, reading captured run-time constants and, for $-indexed
        accesses like ``$row[k]``, target memory."""
        ctx = self.ctx
        if isinstance(expr, cast.IntLit):
            return expr.value
        if isinstance(expr, cast.FloatLit):
            return expr.value
        if isinstance(expr, cast.StrLit):
            return ctx.intern_string(expr.value)
        if isinstance(expr, cast.Dollar):
            if expr.spectime:
                return ctx.dollar_values[expr.slot]
            return self.emit_eval(expr.expr)
        if isinstance(expr, cast.Ident):
            decl = expr.decl
            if id(decl) in ctx.emit_env:
                return ctx.emit_env[id(decl)]
            if id(decl) in ctx.rtconst_values:
                return ctx.rtconst_values[id(decl)]
            raise CodegenError(
                f"{decl.name!r} is not a run-time constant at emission time"
            )
        if isinstance(expr, cast.Unary):
            v = self.emit_eval(expr.operand)
            if expr.op == "-":
                if isinstance(v, PatchImm) and ctx.recorder is not None:
                    return ctx.recorder.negate(v)
                self._pin(v)
                return -v
            if expr.op == "+":
                return v
            if expr.op == "!":
                self._pin(v)
                return 0 if v else 1
            if expr.op == "~":
                self._pin(v)
                return wrap32(~int(v))
            raise CodegenError(f"cannot evaluate unary {expr.op} at emission")
        if isinstance(expr, cast.Binary):
            return self._emit_eval_binary(expr)
        if isinstance(expr, cast.Cond):
            cond = self.emit_eval(expr.cond)
            # The condition selects which branch is evaluated/folded: any
            # tagged value reaching it steered specialization.
            self._pin(cond)
            return (
                self.emit_eval(expr.then)
                if cond
                else self.emit_eval(expr.other)
            )
        if isinstance(expr, cast.Cast):
            v = self.emit_eval(expr.expr)
            if expr.target_type.is_float():
                if isinstance(v, float):
                    return v
                self._pin(v)
                return float(v)
            if expr.target_type.is_integer() or expr.target_type.is_pointer():
                w = wrap32(int(v))
                if isinstance(v, PatchImm):
                    # patch-time recompute applies wrap32 anyway: identity
                    return PatchImm(w, v.origin, v.scale, v.addend)
                self._pin(v)
                return w
            return v
        if isinstance(expr, (cast.SizeofType,)):
            return T.sizeof(expr.target_type, expr.loc)
        if isinstance(expr, cast.SizeofExpr):
            return T.sizeof(expr.expr.ty, expr.loc)
        if isinstance(expr, cast.Index):
            base = self.emit_eval(expr.base)
            idx = self.emit_eval(expr.index)
            # The loaded value is baked into the code; guard the read so a
            # cached entry is not reused after the memory changes, and pin
            # anything that chose the address.
            self._pin(base)
            self._pin(idx)
            elem = T.decay(expr.base.ty).base
            addr = int(base) + int(idx) * elem.size
            mem = ctx.machine.memory
            if elem.is_float():
                width = "d"
            elif isinstance(elem, T.IntType) and elem.kind == "char":
                width = "b" if elem.signed else "bu"
            else:
                width = "w"
            value = {
                "d": mem.load_double,
                "b": mem.load_byte,
                "bu": mem.load_byte_unsigned,
                "w": mem.load_word,
            }[width](addr)
            if ctx.recorder is not None:
                ctx.recorder.note_guard(addr, width, value)
            return value
        raise CodegenError(
            f"cannot evaluate {type(expr).__name__} at emission time"
        )

    def _emit_eval_binary(self, expr: cast.Binary):
        op = expr.op
        if op in ("&&", "||"):
            lhs = self.emit_eval(expr.left)
            self._pin(lhs)  # short-circuit choice steers what gets folded
            if op == "&&" and not lhs:
                return 0
            if op == "||" and lhs:
                return 1
            rhs = self.emit_eval(expr.right)
            self._pin(rhs)
            return 1 if rhs else 0
        lhs = self.emit_eval(expr.left)
        rhs = self.emit_eval(expr.right)
        return self._fold_tag(op, lhs, rhs,
                              _fold_binary(op, lhs, rhs, expr.ty))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def gen_expr(self, e):
        """Generate code computing ``e``; return a value (or None for
        void calls)."""
        ctx = self.ctx
        if ctx.in_tick and not isinstance(e, (cast.IntLit, cast.FloatLit)) \
                and self._etc_ready(e):
            ctx.cost.charge(self._fold_slot)
            return Imm(self.emit_eval(e), cls_of(e.ty))
        handler = _EXPR_HANDLERS.get(type(e))
        if handler is None:
            raise CodegenError(f"cannot lower {type(e).__name__}")
        return handler(self, e)

    def _etc_ready(self, e) -> bool:
        """Emission-time computable *and* every derived-RTC variable it
        mentions currently has a value (false while a normally-unrollable
        loop runs dynamically, e.g. with the unrolling ablation off)."""
        if not e.etc:
            return False
        decls = e.rtc_decls
        if decls is None:
            decls = e.rtc_decls = _derived_rtc_decls(e)
        emit_env = self.ctx.emit_env
        for decl in decls:
            if id(decl) not in emit_env:
                return False
        return True

    def _g_IntLit(self, e):
        return Imm(wrap32(e.value), "i")

    def _g_FloatLit(self, e):
        return Imm(float(e.value), "f")

    def _g_StrLit(self, e):
        return Imm(self.ctx.intern_string(e.value), "i")

    def _g_Ident(self, e):
        decl = e.decl
        if isinstance(decl, cast.FuncDef):
            return Imm(FuncRef(decl.name), "i")
        if isinstance(decl, Builtin):
            raise CodegenError(f"builtin {decl.name!r} used as a value")
        binding = self.ctx.env.get(id(decl))
        if isinstance(binding, CspecBinding):
            return self.emit_cspec(binding.closure)
        if decl.ty.is_array():
            lv = self.storage_of(decl)
            if isinstance(lv, MemLV):
                return self._address_of(lv)
            raise CodegenError(f"array {decl.name!r} is not memory-backed")
        return self.load_lval(self.storage_of(decl))

    def emit_cspec(self, closure):
        """Compose a nested cspec: invoke its CGF against the shared back
        end (tcc 4.4: implemented simply by invoking b's CGF from within
        a's CGF)."""
        self.ctx.cost.charge(CLOSURE_CGF_CALL)
        return closure.cgf.emit_into(self.ctx, closure)

    def _address_of(self, lv: MemLV):
        if lv.base is None:
            return Imm(lv.off, "i")
        if lv.off == 0:
            # Zero-offset elision is shape-steering: a template built here
            # has no add instruction to re-patch for a nonzero offset.
            self._pin(lv.off)
            return RegVal(lv.base, "i", lv.owned_base)
        dst = self._result_reg("i", RegVal(lv.base, "i", lv.owned_base))
        self.backend.binop_imm("add", dst.handle, lv.base, lv.off)
        return dst

    def _g_Unary(self, e):
        op = e.op
        if op == "&":
            lv = self.gen_lvalue(e.operand)
            if isinstance(lv, RegLV):
                raise CodegenError("cannot take the address of a register")
            return self._address_of(lv)
        if op == "*":
            if e.ty.is_func():
                return self.gen_expr(e.operand)
            lv = self.gen_lvalue(e)
            return self.load_lval(lv)
        if op in ("++", "--", "post++", "post--"):
            return self._gen_incdec(e)
        val = self.gen_expr(e.operand)
        if op == "+":
            return self.convert(val, cls_of(e.ty))
        if op == "-":
            val = self.convert(val, cls_of(e.ty))
            if isinstance(val, Imm):
                if val.cls == "f":
                    self._pin(val.value)
                    return Imm(-val.value, "f")
                rec = self.ctx.recorder
                if rec is not None and isinstance(val.value, PatchImm):
                    return Imm(rec.negate(val.value), "i")
                return Imm(wrap32(-val.value), "i")
            dst = self._result_reg(val.cls, val)
            if val.cls == "f":
                self.backend.funop("fneg", dst.handle, val.handle)
            else:
                self.backend.unop("neg", dst.handle, val.handle)
            return dst
        if op == "~":
            if isinstance(val, Imm):
                self._pin(val.value)
                return Imm(wrap32(~int(val.value)), "i")
            dst = self._result_reg("i", val)
            self.backend.unop("not", dst.handle, val.handle)
            return dst
        if op == "!":
            if isinstance(val, Imm):
                self._pin(val.value)
                return Imm(0 if val.value else 1, "i")
            if val.cls == "f":
                zero = self.materialize(Imm(0.0, "f"))
                dst = RegVal(self.backend.alloc_reg("i"), "i", True)
                self.backend.fcmp("fseq", dst.handle, val.handle, zero.handle)
                self.release(zero)
                self.release(val)
                return dst
            dst = self._result_reg("i", val)
            self.backend.binop_imm("seq", dst.handle, val.handle, 0)
            return dst
        raise CodegenError(f"cannot lower unary {op!r}")

    def _gen_incdec(self, e):
        lv = self.gen_lvalue(e.operand)
        old = self.load_lval(lv, free_base=False)
        ty = e.operand.ty
        step = ty.base.size if ty.is_pointer() else 1
        if e.op in ("--", "post--"):
            step = -step
        post = e.op.startswith("post")
        if lv.cls == "f":
            stepv = self.materialize(Imm(float(step), "f"))
            new = RegVal(self.backend.alloc_reg("f"), "f", True)
            self.backend.fbinop("fadd", new.handle, old.handle, stepv.handle)
            self.release(stepv)
        else:
            new = RegVal(self.backend.alloc_reg("i"), "i", True)
            self.backend.binop_imm("add", new.handle, old.handle, step)
        if post:
            # Keep the old value live as the expression result.
            keep = RegVal(self.backend.alloc_reg(lv.cls), lv.cls, True)
            if lv.cls == "f":
                self.backend.funop("fmov", keep.handle, old.handle)
            else:
                self.backend.unop("mov", keep.handle, old.handle)
            self.store_lval(lv, new)
            self.release(old)
            return keep
        self.store_lval(lv, RegVal(new.handle, new.cls, False))
        self.release(old)
        return new

    def _g_Binary(self, e):
        op = e.op
        if op in ("&&", "||"):
            return self._gen_logical_value(e)
        if op in _CMP_OPS:
            return self._gen_compare_value(e)
        lty = T.decay(e.left.ty)
        rty = T.decay(e.right.ty)
        if op == "+" and (lty.is_pointer() or rty.is_pointer()):
            if lty.is_pointer():
                return self._gen_ptr_add(e.left, e.right, lty, +1)
            return self._gen_ptr_add(e.right, e.left, rty, +1)
        if op == "-" and lty.is_pointer() and rty.is_integer():
            return self._gen_ptr_add(e.left, e.right, lty, -1)
        if op == "-" and lty.is_pointer() and rty.is_pointer():
            return self._gen_ptr_diff(e, lty)
        cls = cls_of(e.ty)
        # tcc heuristic (5.1): evaluate cspec operands before non-cspec
        # operands to minimize temporaries spanning CGF invocations.
        right_first = (
            self.reorder
            and self.ctx.in_tick
            and _contains_cspec_ref(e.right)
            and not _contains_cspec_ref(e.left)
        )
        if right_first:
            rhs = self.convert(self.gen_expr(e.right), cls)
            lhs = self.convert(self.gen_expr(e.left), cls)
        else:
            lhs = self.convert(self.gen_expr(e.left), cls)
            rhs = self.convert(self.gen_expr(e.right), cls)
        return self._emit_binop(op, lhs, rhs, e.ty)

    def _emit_binop(self, op: str, lhs, rhs, ty: T.CType):
        cls = cls_of(ty)
        if isinstance(lhs, Imm) and isinstance(rhs, Imm):
            folded = self._fold_tag(
                op, lhs.value, rhs.value,
                _fold_binary(op, lhs.value, rhs.value, ty))
            return Imm(folded, cls)
        if cls == "f":
            lhs = self.materialize(lhs)
            rhs = self.materialize(rhs)
            dst = self._result_reg("f", lhs, rhs)
            self.backend.fbinop(_FLT_BINOPS[op], dst.handle, lhs.handle,
                                rhs.handle)
            return dst
        unsigned = isinstance(ty, T.IntType) and not ty.signed
        opname = _INT_BINOPS[op]
        if op == "/" and unsigned:
            opname = "divu"
        elif op == "%" and unsigned:
            opname = "modu"
        elif op == ">>" and unsigned:
            opname = "srl"
        if isinstance(rhs, Imm):
            return self._emit_binop_imm(opname, lhs, rhs.value, unsigned)
        if isinstance(lhs, Imm):
            if op in _COMMUTATIVE:
                return self._emit_binop_imm(opname, rhs, lhs.value,
                                            unsigned)
            lhs = self.materialize(lhs)
        dst = self._result_reg("i", lhs, rhs)
        self.backend.binop(opname, dst.handle, lhs.handle, rhs.handle)
        return dst

    def _emit_binop_imm(self, opname: str, lhs, imm: int, unsigned: bool):
        if not isinstance(imm, int):
            imm = int(imm)
        lhs = self.materialize(lhs)
        dst = self._result_reg("i", lhs)
        if not self.ctx.options.get("strength_reduction", True) and \
                opname in ("mul", "div", "divu", "mod", "modu"):
            self.backend.binop_imm(opname, dst.handle, lhs.handle, imm)
            return dst
        if opname in ("mul", "div", "divu", "mod", "modu"):
            # Strength reduction inspects the immediate to choose the
            # emitted sequence: the value steers specialization.
            self._pin(imm)
        if opname in ("mul",):
            partial_eval.emit_mul_imm(self.backend, dst.handle, lhs.handle, imm)
        elif opname in ("div", "divu"):
            partial_eval.emit_div_imm(
                self.backend, dst.handle, lhs.handle, imm,
                signed=opname == "div",
            )
        elif opname in ("mod", "modu"):
            partial_eval.emit_mod_imm(
                self.backend, dst.handle, lhs.handle, imm,
                signed=opname == "mod",
            )
        else:
            self.backend.binop_imm(opname, dst.handle, lhs.handle, imm)
        return dst

    def _gen_ptr_add(self, ptr_expr, int_expr, pty, sign: int):
        size = pty.base.size
        ptr = self.gen_expr(ptr_expr)
        idx = self.gen_expr(int_expr)
        if isinstance(idx, Imm):
            delta = self._off_scale(idx.value, sign * size)
            if isinstance(ptr, Imm):
                folded = self._fold_tag(
                    "+", ptr.value, delta, wrap32(int(ptr.value) + delta))
                return Imm(folded, "i")
            if delta == 0:
                # Eliding the add is shape-steering (see _address_of).
                self._pin(delta)
                return ptr
            dst = self._result_reg("i", ptr)
            self.backend.binop_imm("add", dst.handle, ptr.handle, delta)
            return dst
        idx = self.materialize(idx)
        scaled = RegVal(self.backend.alloc_reg("i"), "i", True)
        partial_eval.emit_mul_imm(self.backend, scaled.handle, idx.handle, size)
        self.release(idx)
        ptr = self.materialize(ptr)
        dst = self._result_reg("i", ptr, scaled)
        self.backend.binop("add" if sign > 0 else "sub", dst.handle,
                           ptr.handle, scaled.handle)
        return dst

    def _gen_ptr_diff(self, e, pty):
        lhs = self.materialize(self.gen_expr(e.left))
        rhs = self.materialize(self.gen_expr(e.right))
        dst = self._result_reg("i", lhs, rhs)
        self.backend.binop("sub", dst.handle, lhs.handle, rhs.handle)
        result = self._result_reg("i", dst)
        partial_eval.emit_div_imm(self.backend, result.handle, dst.handle,
                                  pty.base.size, signed=True)
        return result

    def _gen_compare_value(self, e):
        lty = T.decay(e.left.ty)
        rty = T.decay(e.right.ty)
        float_cmp = lty.is_float() or rty.is_float()
        cls = "f" if float_cmp else "i"
        lhs = self.convert(self.gen_expr(e.left), cls)
        rhs = self.convert(self.gen_expr(e.right), cls)
        op = e.op
        if isinstance(lhs, Imm) and isinstance(rhs, Imm):
            self._pin(lhs.value)
            self._pin(rhs.value)
            if op in ("<", "<=", ">", ">=") and _unsigned_int(lty, rty):
                lv = int(lhs.value) & 0xFFFFFFFF
                rv = int(rhs.value) & 0xFFFFFFFF
                return Imm(1 if _compare(op, lv, rv) else 0, "i")
            return Imm(_fold_binary(op, lhs.value, rhs.value, T.INT), "i")
        if op in ("<", "<=", ">", ">=") and not float_cmp and \
                _unsigned_int(lty, rty):
            return self._gen_unsigned_order(op, lhs, rhs)
        if float_cmp:
            lhs = self.materialize(lhs)
            rhs = self.materialize(rhs)
            dst = RegVal(self.backend.alloc_reg("i"), "i", True)
            self.backend.fcmp(_FCMP_OPS[op], dst.handle, lhs.handle, rhs.handle)
            self.release(lhs)
            self.release(rhs)
            return dst
        if isinstance(lhs, Imm):
            lhs, rhs = rhs, lhs
            op = _CMP_SWAP[op]
        if isinstance(rhs, Imm):
            lhs = self.materialize(lhs)
            dst = self._result_reg("i", lhs)
            self.backend.binop_imm(_CMP_OPS[op], dst.handle, lhs.handle,
                                   rhs.value)
            return dst
        dst = self._result_reg("i", lhs, rhs)
        self.backend.binop(_CMP_OPS[op], dst.handle, lhs.handle, rhs.handle)
        return dst

    def _gen_unsigned_order(self, op: str, lhs, rhs):
        """Unsigned <, <=, >, >= via SLTU (a <= b  <=>  !(b < a))."""
        lhs = self.materialize(lhs)
        rhs = self.materialize(rhs)
        if op in (">", "<="):
            lhs, rhs = rhs, lhs  # a > b  <=>  b < a ; a <= b <=> !(b<a)->swap
        dst = self._result_reg("i", lhs, rhs)
        self.backend.binop("sltu", dst.handle, lhs.handle, rhs.handle)
        if op in ("<=", ">="):
            # negate: x <= y  <=>  !(y < x)
            self.backend.binop_imm("seq", dst.handle, dst.handle, 0)
        return dst

    def _gen_logical_value(self, e):
        backend = self.backend
        dst = RegVal(backend.alloc_reg("i"), "i", True)
        false_label = backend.new_label()
        end_label = backend.new_label()
        if e.op == "&&":
            self.branch_false(e, false_label)
            backend.li(dst.handle, 1)
        else:
            self.branch_true(e, false_label)  # here "false_label" = true path
            backend.li(dst.handle, 0)
        backend.jmp(end_label)
        backend.place(false_label)
        backend.li(dst.handle, 0 if e.op == "&&" else 1)
        backend.place(end_label)
        return dst

    def _g_Assign(self, e):
        tty = e.target.ty
        if tty.is_struct():
            if e.op != "":
                raise CodegenError("compound assignment on a struct")
            dst = self.gen_lvalue(e.target)
            src = self.gen_lvalue(e.value)
            self._copy_struct(dst, src, tty.size)
            return None
        lv = self.gen_lvalue(e.target)
        cls = cls_of(tty)
        if e.op == "":
            val = self.convert(self.gen_expr(e.value), cls)
            result = self._keep_result(lv, val)
            return result
        # Compound assignment: load, combine, store.
        old = self.load_lval(lv, free_base=False)
        if e.op in ("+", "-") and T.decay(tty).is_pointer():
            rhs = self.gen_expr(e.value)
            size = T.decay(tty).base.size
            if isinstance(rhs, Imm):
                delta = self._off_scale(rhs.value,
                                        size * (1 if e.op == "+" else -1))
                new = self._result_reg("i", old)
                self.backend.binop_imm("add", new.handle, old.handle, delta)
            else:
                rhs = self.materialize(rhs)
                scaled = RegVal(self.backend.alloc_reg("i"), "i", True)
                partial_eval.emit_mul_imm(self.backend, scaled.handle,
                                          rhs.handle, size)
                self.release(rhs)
                new = self._result_reg("i", old, scaled)
                self.backend.binop("add" if e.op == "+" else "sub",
                                   new.handle, old.handle, scaled.handle)
        else:
            rhs = self.convert(self.gen_expr(e.value), cls)
            new = self._emit_binop(e.op, old, rhs, tty if tty.is_arith()
                                   else T.INT)
        return self._keep_result(lv, new)

    def _keep_result(self, lv, val):
        """Store ``val`` into ``lv``; return the stored value for use as the
        assignment expression's result."""
        if isinstance(lv, RegLV):
            self.store_lval(lv, val)
            return RegVal(lv.handle, lv.cls, owned=False)
        rv = self.materialize(val)
        self.backend.store(rv.handle, lv.base, lv.off, lv.width)
        self.release_lv(lv)
        return rv

    def _g_Cond(self, e):
        cls = cls_of(e.ty)
        dst = RegVal(self.backend.alloc_reg(cls), cls, True)
        else_label = self.backend.new_label()
        end_label = self.backend.new_label()
        self.branch_false(e.cond, else_label)
        then = self.convert(self.gen_expr(e.then), cls)
        self.store_lval(RegLV(dst.handle, cls), then)
        self.backend.jmp(end_label)
        self.backend.place(else_label)
        other = self.convert(self.gen_expr(e.other), cls)
        self.store_lval(RegLV(dst.handle, cls), other)
        self.backend.place(end_label)
        return dst

    def _g_Comma(self, e):
        left = self.gen_expr(e.left)
        if left is not None:
            self.release(left)
        return self.gen_expr(e.right)

    def _g_Cast(self, e):
        val = self.gen_expr(e.expr)
        target = e.target_type
        if target.is_void():
            if val is not None:
                self.release(val)
            return None
        val = self.convert(val, cls_of(target))
        if isinstance(target, T.IntType) and target.kind == "char":
            if isinstance(val, Imm):
                self._pin(val.value)
                v = int(val.value) & 0xFF
                if target.signed and v >= 128:
                    v -= 256
                return Imm(v, "i")
            dst = self._result_reg("i", val)
            if target.signed:
                self.backend.binop_imm("sll", dst.handle, val.handle, 24)
                self.backend.binop_imm("sra", dst.handle, dst.handle, 24)
            else:
                self.backend.binop_imm("and", dst.handle, val.handle, 0xFF)
            return dst
        return val

    def _g_SizeofType(self, e):
        return Imm(T.sizeof(e.target_type, e.loc), "i")

    def _g_SizeofExpr(self, e):
        return Imm(T.sizeof(e.expr.ty, e.loc), "i")

    def _g_Index(self, e):
        return self.load_lval(self.gen_lvalue(e))

    def _g_Member(self, e):
        if e.ty.is_array():
            return self._address_of(self.gen_lvalue(e))
        return self.load_lval(self.gen_lvalue(e))

    def _g_Dollar(self, e):
        self.ctx.cost.charge(self._fold_slot)
        if e.spectime:
            return Imm(self.ctx.dollar_values[e.slot], cls_of(e.ty))
        return Imm(self.emit_eval(e.expr), cls_of(e.ty))

    def _g_Call(self, e):
        fn = e.fn
        fty = fn.ty
        if fty.is_pointer() and fty.base.is_func():
            fty = fty.base
        # Builtins become host calls.
        if isinstance(fn, cast.Ident) and isinstance(fn.decl, Builtin):
            builtin = fn.decl
            if builtin.hostcall is None:
                raise CodegenError(
                    f"{builtin.name!r} cannot be compiled to target code"
                )
            vals = self._gen_args(e.args, fty)
            ret_cls = None if fty.ret.is_void() else cls_of(fty.ret)
            handle = self.backend.hostcall(
                builtin.hostcall, [(v.handle, cls) for v, cls in vals], ret_cls
            )
            for v, _cls in vals:
                self.release(v)
            return RegVal(handle, ret_cls, True) if handle is not None else None
        if isinstance(fn, cast.Ident) and isinstance(fn.decl, cast.FuncDef):
            target = FuncRef(fn.decl.name)
        else:
            target = self.materialize(self.gen_expr(fn))
        vals = self._gen_args(e.args, fty)
        ret_cls = None if fty.ret.is_void() else cls_of(fty.ret)
        target_handle = target.handle if isinstance(target, RegVal) else target
        handle = self.backend.call(
            target_handle, [(v.handle, cls) for v, cls in vals], ret_cls
        )
        if isinstance(target, RegVal):
            self.release(target)
        for v, _cls in vals:
            self.release(v)
        return RegVal(handle, ret_cls, True) if handle is not None else None

    def _gen_args(self, arg_exprs, fty):
        """Evaluate call arguments, converting to parameter classes.
        Returns a list of (RegVal, cls)."""
        out = []
        params = fty.params
        for i, arg in enumerate(arg_exprs):
            if i < len(params):
                cls = cls_of(params[i]) if not params[i].is_void() else "i"
            else:
                cls = cls_of(T.decay(arg.ty))
            val = self.materialize(self.convert(self.gen_expr(arg), cls))
            out.append((val, cls))
        return out

    # ------------------------------------------------------------------
    # lvalues
    # ------------------------------------------------------------------

    def gen_lvalue(self, e):
        if isinstance(e, cast.Ident):
            return self.storage_of(e.decl)
        if isinstance(e, cast.Unary) and e.op == "*":
            ptr = self.gen_expr(e.operand)
            base_ty = e.ty
            width = width_of(base_ty)
            cls = cls_of(base_ty)
            if isinstance(ptr, Imm):
                return MemLV(None, int(ptr.value), width, cls)
            ptr = self.materialize(ptr)
            return MemLV(ptr.handle, 0, width, cls, owned_base=ptr.owned)
        if isinstance(e, cast.Index):
            return self._gen_index_lvalue(e)
        if isinstance(e, cast.Member):
            return self._gen_member_lvalue(e)
        raise CodegenError(f"{type(e).__name__} is not an lvalue")

    def _gen_index_lvalue(self, e: cast.Index):
        base_ty = T.decay(e.base.ty)
        elem = base_ty.base
        width = width_of(elem)
        cls = cls_of(elem)
        base = self.gen_expr(e.base)
        idx = self.gen_expr(e.index)
        if isinstance(idx, Imm):
            off = self._off_scale(idx.value, elem.size)
            if isinstance(base, Imm):
                addr = self._fold_tag("+", base.value, off,
                                      int(base.value) + off)
                return MemLV(None, addr, width, cls)
            base = self.materialize(base)
            return MemLV(base.handle, off, width, cls, owned_base=base.owned)
        idx = self.materialize(idx)
        scaled = RegVal(self.backend.alloc_reg("i"), "i", True)
        partial_eval.emit_mul_imm(self.backend, scaled.handle, idx.handle,
                                  elem.size)
        self.release(idx)
        if isinstance(base, Imm):
            return MemLV(scaled.handle, imm_int(base.value), width, cls,
                         owned_base=True)
        base = self.materialize(base)
        addr = self._result_reg("i", base, scaled)
        self.backend.binop("add", addr.handle, base.handle, scaled.handle)
        return MemLV(addr.handle, 0, width, cls, owned_base=addr.owned)

    def _gen_member_lvalue(self, e: cast.Member):
        fty = e.ty
        width = width_of(fty)
        cls = cls_of(fty)
        if e.arrow:
            base_ty = T.decay(e.base.ty)
            struct = base_ty.base
            _fty, offset = struct.field(e.name)
            ptr = self.gen_expr(e.base)
            if isinstance(ptr, Imm):
                return MemLV(None, self._off_add(ptr.value, offset),
                             width, cls)
            ptr = self.materialize(ptr)
            return MemLV(ptr.handle, offset, width, cls,
                         owned_base=ptr.owned)
        struct = e.base.ty
        _fty, offset = struct.field(e.name)
        base_lv = self.gen_lvalue(e.base)
        if not isinstance(base_lv, MemLV):
            raise CodegenError("struct value is not memory-backed")
        return MemLV(base_lv.base, self._off_add(base_lv.off, offset),
                     width, cls, owned_base=base_lv.owned_base)

    def _copy_struct(self, dst_lv: MemLV, src_lv: MemLV, size: int) -> None:
        """Member-wise word/byte copy for struct assignment, unrolled."""
        tmp = RegVal(self.backend.alloc_reg("i"), "i", True)
        offset = 0
        while offset + 4 <= size:
            self.backend.load(tmp.handle, src_lv.base,
                              self._off_add(src_lv.off, offset), "w")
            self.backend.store(tmp.handle, dst_lv.base,
                               self._off_add(dst_lv.off, offset), "w")
            offset += 4
        while offset < size:
            self.backend.load(tmp.handle, src_lv.base,
                              self._off_add(src_lv.off, offset), "bu")
            self.backend.store(tmp.handle, dst_lv.base,
                               self._off_add(dst_lv.off, offset), "b")
            offset += 1
        self.release(tmp)
        self.release_lv(src_lv)
        self.release_lv(dst_lv)

    # ------------------------------------------------------------------
    # branching
    # ------------------------------------------------------------------

    def branch_true(self, e, label) -> None:
        """Jump to ``label`` when ``e`` is true; otherwise fall through."""
        if self.ctx.in_tick and self._etc_ready(e):
            cond = self.emit_eval(e)
            self._pin(cond)  # folded branch: the value chose the code shape
            if cond:
                self.backend.jmp(label)
            return
        if isinstance(e, cast.Binary) and e.op == "&&":
            skip = self.backend.new_label()
            self.branch_false(e.left, skip)
            self.branch_true(e.right, label)
            self.backend.place(skip)
            return
        if isinstance(e, cast.Binary) and e.op == "||":
            self.branch_true(e.left, label)
            self.branch_true(e.right, label)
            return
        if isinstance(e, cast.Unary) and e.op == "!":
            self.branch_false(e.operand, label)
            return
        val = self.gen_expr(e)
        self._branch_on(val, label, want_true=True)

    def branch_false(self, e, label) -> None:
        """Jump to ``label`` when ``e`` is false; otherwise fall through."""
        if self.ctx.in_tick and self._etc_ready(e):
            cond = self.emit_eval(e)
            self._pin(cond)  # folded branch: the value chose the code shape
            if not cond:
                self.backend.jmp(label)
            return
        if isinstance(e, cast.Binary) and e.op == "&&":
            self.branch_false(e.left, label)
            self.branch_false(e.right, label)
            return
        if isinstance(e, cast.Binary) and e.op == "||":
            skip = self.backend.new_label()
            self.branch_true(e.left, skip)
            self.branch_false(e.right, label)
            self.backend.place(skip)
            return
        if isinstance(e, cast.Unary) and e.op == "!":
            self.branch_true(e.operand, label)
            return
        val = self.gen_expr(e)
        self._branch_on(val, label, want_true=False)

    def _branch_on(self, val, label, want_true: bool) -> None:
        if isinstance(val, Imm):
            self._pin(val.value)
            truthy = bool(val.value)
            if truthy == want_true:
                self.backend.jmp(label)
            return
        if val.cls == "f":
            zero = self.materialize(Imm(0.0, "f"))
            flag = RegVal(self.backend.alloc_reg("i"), "i", True)
            self.backend.fcmp("fsne", flag.handle, val.handle, zero.handle)
            self.release(zero)
            self.release(val)
            val = flag
        if want_true:
            self.backend.bnez(val.handle, label)
        else:
            self.backend.beqz(val.handle, label)
        self.release(val)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def gen_stmt(self, node) -> None:
        handler = _STMT_HANDLERS.get(type(node))
        if handler is None:
            raise CodegenError(f"cannot lower statement {type(node).__name__}")
        handler(self, node)

    def _s_Block(self, node) -> None:
        for stmt in node.stmts:
            self.gen_stmt(stmt)

    def _s_Empty(self, node) -> None:
        pass

    def _s_ExprStmt(self, node) -> None:
        val = self.gen_expr(node.expr)
        if val is not None:
            self.release(val)

    def _s_DeclStmt(self, node) -> None:
        for decl in node.decls:
            if decl.init is None:
                continue
            if isinstance(decl.init, list):
                lv = self.storage_of(decl)
                if not isinstance(lv, MemLV):
                    raise CodegenError("brace initializer needs memory")
                elem = decl.ty.base
                for i, item in enumerate(decl.init):
                    val = self.convert(self.gen_expr(item), cls_of(elem))
                    rv = self.materialize(val)
                    self.backend.store(rv.handle, lv.base,
                                       self._off_add(lv.off, i * elem.size),
                                       width_of(elem))
                    self.release(rv)
                continue
            if decl.ty.is_struct():
                dst = self.storage_of(decl)
                src = self.gen_lvalue(decl.init)
                self._copy_struct(dst, src, decl.ty.size)
                continue
            lv = self.storage_of(decl)
            val = self.convert(self.gen_expr(decl.init), cls_of(decl.ty))
            self.store_lval(lv, val)

    def _s_If(self, node) -> None:
        if self.ctx.in_tick and node.emission_time and \
                self._etc_ready(node.cond):
            # Emission-time dead-code elimination (tcc 4.4).
            self.ctx.cost.charge(self._fold_slot)
            cond = self.emit_eval(node.cond)
            self._pin(cond)  # DCE choice steered by the value
            if cond:
                self.gen_stmt(node.then)
            elif node.other is not None:
                self.gen_stmt(node.other)
            return
        else_label = self.backend.new_label()
        self.branch_false(node.cond, else_label)
        self.gen_stmt(node.then)
        if node.other is not None:
            end_label = self.backend.new_label()
            self.backend.jmp(end_label)
            self.backend.place(else_label)
            self.gen_stmt(node.other)
            self.backend.place(end_label)
        else:
            self.backend.place(else_label)

    def _s_While(self, node) -> None:
        top = self.backend.new_label()
        end = self.backend.new_label()
        self.backend.place(top)
        self.branch_false(node.cond, end)
        self.backend.loop_enter()
        self.loops.append((end, top))
        self.gen_stmt(node.body)
        self.loops.pop()
        self.backend.loop_exit()
        self.backend.jmp(top)
        self.backend.place(end)

    def _s_DoWhile(self, node) -> None:
        top = self.backend.new_label()
        cont = self.backend.new_label()
        end = self.backend.new_label()
        self.backend.place(top)
        self.backend.loop_enter()
        self.loops.append((end, cont))
        self.gen_stmt(node.body)
        self.loops.pop()
        self.backend.loop_exit()
        self.backend.place(cont)
        self.branch_true(node.cond, top)
        self.backend.place(end)

    def _s_For(self, node) -> None:
        if self.ctx.in_tick and node.unroll and \
                self.ctx.options.get("dynamic_unrolling", True):
            self._gen_unrolled_for(node)
            return
        if node.init is not None:
            val = self.gen_expr(node.init)
            if val is not None:
                self.release(val)
        test = self.backend.new_label()
        cont = self.backend.new_label()
        end = self.backend.new_label()
        self.backend.place(test)
        if node.cond is not None:
            self.branch_false(node.cond, end)
        self.backend.loop_enter()
        self.loops.append((end, cont))
        self.gen_stmt(node.body)
        self.loops.pop()
        self.backend.place(cont)
        if node.update is not None:
            val = self.gen_expr(node.update)
            if val is not None:
                self.release(val)
        self.backend.loop_exit()
        self.backend.jmp(test)
        self.backend.place(end)

    def _gen_unrolled_for(self, node: cast.For) -> None:
        """Dynamic loop unrolling (tcc 4.4): the loop control runs at
        instantiation time; only the body is emitted, once per iteration,
        with the induction variable bound as a derived run-time constant."""
        ctx = self.ctx
        decl = node.induction
        step_expr = _step_expression(node)
        init = self.emit_eval(node.init.value)
        self._pin(init)  # loop control decides the unroll count
        value = wrap32(int(init))
        relop = node.cond.op
        iterations = 0
        while True:
            bound = self.emit_eval(node.cond.right)
            self._pin(bound)
            bound = wrap32(int(bound))
            ctx.cost.charge(self._fold_slot)
            if not _compare(relop, value, bound):
                break
            iterations += 1
            if iterations > _MAX_UNROLL:
                raise CodegenError(
                    f"dynamic unrolling exceeded {_MAX_UNROLL} iterations"
                )
            ctx.emit_env[id(decl)] = value
            self.gen_stmt(node.body)
            step = self.emit_eval(step_expr)
            self._pin(step)
            value = wrap32(value + int(step))
        # After the loop the induction variable holds its final value and
        # remains a derived run-time constant for the rest of the emission.
        ctx.emit_env[id(decl)] = value

    def _s_Return(self, node) -> None:
        ret_ty = self.ctx.ret_type
        if node.value is None or ret_ty.is_void():
            if node.value is not None:
                val = self.gen_expr(node.value)
                if val is not None:
                    self.release(val)
            self.backend.ret(None)
            return
        cls = cls_of(ret_ty)
        val = self.materialize(self.convert(self.gen_expr(node.value), cls))
        self.backend.ret(val.handle, cls)
        self.release(val)

    def _s_Switch(self, node) -> None:
        backend = self.backend
        selector = self.materialize(self.gen_expr(node.expr))
        case_labels = [backend.new_label() for _ in node.cases]
        end = backend.new_label()
        default_label = end
        flag = RegVal(backend.alloc_reg("i"), "i", True)
        for (value, _stmts), label in zip(node.cases, case_labels):
            if value is None:
                default_label = label
                continue
            backend.binop_imm("seq", flag.handle, selector.handle,
                              wrap32(value))
            backend.bnez(flag.handle, label)
        self.release(flag)
        self.release(selector)
        backend.jmp(default_label)
        self.loops.append((end, None))  # break binds; continue passes through
        for (_value, stmts), label in zip(node.cases, case_labels):
            backend.place(label)
            for stmt in stmts:
                self.gen_stmt(stmt)
        self.loops.pop()
        backend.place(end)

    def _s_Break(self, node) -> None:
        if not self.loops:
            raise CodegenError("break outside of a loop")
        self.backend.jmp(self.loops[-1][0])

    def _s_Continue(self, node) -> None:
        for _break_label, continue_label in reversed(self.loops):
            if continue_label is not None:
                self.backend.jmp(continue_label)
                return
        raise CodegenError("continue outside of a loop")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fold_binary(op: str, lhs, rhs, ty: T.CType):
    """Constant-fold one binary operation with C semantics."""
    if ty.is_float() and op in ("+", "-", "*", "/"):
        lhs, rhs = float(lhs), float(rhs)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if rhs == 0.0:
            raise CodegenError("constant float division by zero")
        return lhs / rhs
    if op in _CMP_OPS:
        return 1 if _compare(op, lhs, rhs) else 0
    lhs, rhs = int(lhs), int(rhs)
    unsigned = isinstance(ty, T.IntType) and ty.kind == "int" and not ty.signed
    if op == "+":
        return wrap32(lhs + rhs)
    if op == "-":
        return wrap32(lhs - rhs)
    if op == "*":
        return wrap32(lhs * rhs)
    if op == "/":
        if rhs == 0:
            raise CodegenError("constant division by zero")
        if unsigned:
            return wrap32((lhs & 0xFFFFFFFF) // (rhs & 0xFFFFFFFF))
        q = abs(lhs) // abs(rhs)
        return wrap32(-q if (lhs < 0) != (rhs < 0) else q)
    if op == "%":
        if rhs == 0:
            raise CodegenError("constant modulo by zero")
        if unsigned:
            return wrap32((lhs & 0xFFFFFFFF) % (rhs & 0xFFFFFFFF))
        q = abs(lhs) // abs(rhs)
        q = -q if (lhs < 0) != (rhs < 0) else q
        return wrap32(lhs - q * rhs)
    if op == "&":
        return wrap32(lhs & rhs)
    if op == "|":
        return wrap32(lhs | rhs)
    if op == "^":
        return wrap32(lhs ^ rhs)
    if op == "<<":
        return wrap32(lhs << (rhs & 31))
    if op == ">>":
        if unsigned:
            return wrap32((lhs & 0xFFFFFFFF) >> (rhs & 31))
        return wrap32(lhs >> (rhs & 31))
    raise CodegenError(f"cannot fold operator {op!r}")


def _compare(op: str, lhs, rhs) -> bool:
    return {
        "==": lhs == rhs,
        "!=": lhs != rhs,
        "<": lhs < rhs,
        "<=": lhs <= rhs,
        ">": lhs > rhs,
        ">=": lhs >= rhs,
    }[op]


def _step_expression(node: cast.For):
    """Reconstruct the per-iteration step of an unrollable for loop
    (sema guarantees the update has one of the supported shapes)."""
    update = node.update
    if isinstance(update, cast.Unary):
        return cast.IntLit(1 if "++" in update.op else -1, update.loc)
    if isinstance(update, cast.Assign):
        if update.op == "+":
            return update.value
        neg = cast.Unary("-", update.value, update.loc)
        neg.ty = update.value.ty
        return neg
    raise CodegenError("unsupported unrolled-loop update")


def _unsigned_int(lty: T.CType, rty: T.CType) -> bool:
    """Do the usual conversions make this an unsigned int comparison?"""

    def unsigned(ty):
        return isinstance(ty, T.IntType) and ty.kind == "int" and not ty.signed

    return unsigned(lty) or unsigned(rty)


def _contains_cspec_ref(expr) -> bool:
    if expr.cspec_ref is None:
        expr.cspec_ref = _names_spec(expr)
    return expr.cspec_ref


def _names_spec(expr) -> bool:
    for node in cast.walk(expr):
        if isinstance(node, cast.Ident):
            decl = node.decl
            ty = getattr(decl, "ty", None)
            if ty is not None and (ty.is_cspec() or ty.is_vspec()):
                return True
    return False


def _derived_rtc_decls(expr) -> tuple:
    """The distinct derived-RTC declarations ``expr`` mentions."""
    decls = {}
    for node in cast.walk(expr):
        if isinstance(node, cast.Ident) and \
                getattr(node.decl, "derived_rtc", False):
            decls[id(node.decl)] = node.decl
    return tuple(decls.values())


def _handlers(prefix: str) -> dict:
    """AST node class -> the ``CodeGen`` method named ``prefix`` + its
    class name, so the walk dispatches without building a name per
    node."""
    return {getattr(cast, name[len(prefix):]): handler
            for name, handler in vars(CodeGen).items()
            if name.startswith(prefix)}


_EXPR_HANDLERS = _handlers("_g_")
_STMT_HANDLERS = _handlers("_s_")
