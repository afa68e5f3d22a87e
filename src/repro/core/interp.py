"""The specification-time interpreter.

The static (non-dynamic) parts of a `C program — the code that creates
cspecs, binds ``$`` values, composes specifications, and calls
``compile()`` — execute here.  tcc compiles that glue to native code; this
reproduction interprets it, which the paper's methodology permits: the
measured quantities are dynamic-compilation cost (charged via the cost
model, including closure creation, exactly as tcc's accounting does) and
dynamic-code run time (measured in target-machine cycles).

Variables that dynamic code must be able to address (free variables of tick
expressions, address-taken locals, arrays, globals) live in *target memory*;
everything else stays in host Python cells.  That makes the closure story
identical to tcc's: a FREEVAR capture is a real address into the target's
RAM, and generated code loads and stores through it.
"""

from __future__ import annotations

import math

from repro.core.cgf import dollar_key
from repro.errors import CycleBudgetExceeded, RuntimeTccError
from repro.frontend import cast
from repro.frontend import typesys as T
from repro.frontend.sema import Builtin
from repro.runtime.closures import CaptureKind, Closure, Vspec
from repro.runtime.costmodel import CLOSURE_ALLOC, CLOSURE_CAPTURE
from repro.target.isa import wrap32


class InterpFunc:
    """A spec-time function value (cannot flow into target memory)."""

    __slots__ = ("fn",)

    def __init__(self, fn: cast.FuncDef):
        self.fn = fn

    def __repr__(self) -> str:
        return f"<InterpFunc {self.fn.name}>"


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class PyCell:
    """A host-side variable cell."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def load(self, interp):
        return self.value

    def store(self, interp, value) -> None:
        self.value = value


class MemCell:
    """A variable cell living in target memory (addressable)."""

    __slots__ = ("addr", "ty")

    def __init__(self, addr: int, ty: T.CType):
        self.addr = addr
        self.ty = ty

    def load(self, interp):
        if self.ty.is_array():
            return self.addr  # arrays decay to their base address
        return interp.load_typed(self.addr, self.ty)

    def store(self, interp, value) -> None:
        if self.ty.is_array():
            raise RuntimeTccError("cannot assign to an array")
        interp.store_typed(self.addr, self.ty, value)


class ListCell:
    """A host-side array cell for arrays of cspec/vspec values, which
    cannot live in target memory (they hold Python objects)."""

    __slots__ = ("values",)

    def __init__(self, length: int):
        self.values = [None] * length

    def load(self, interp):
        return self.values

    def store(self, interp, value) -> None:
        raise RuntimeTccError("cannot assign to a specification array")


class ListRef:
    """An lvalue into a ListCell."""

    __slots__ = ("values", "index")

    def __init__(self, values: list, index: int):
        if not 0 <= index < len(values):
            raise RuntimeTccError(
                f"specification-array index {index} out of range "
                f"0..{len(values) - 1}"
            )
        self.values = values
        self.index = index

    def load(self, interp):
        return self.values[self.index]

    def store(self, interp, value) -> None:
        self.values[self.index] = value


class MemRef:
    """An lvalue reference into target memory."""

    __slots__ = ("addr", "ty")

    def __init__(self, addr: int, ty: T.CType):
        self.addr = addr
        self.ty = ty

    def load(self, interp):
        return interp.load_typed(self.addr, self.ty)

    def store(self, interp, value) -> None:
        interp.store_typed(self.addr, self.ty, value)


class CellRef:
    __slots__ = ("cell",)

    def __init__(self, cell):
        self.cell = cell

    def load(self, interp):
        return self.cell.load(interp)

    def store(self, interp, value) -> None:
        self.cell.store(interp, value)


#: Default spec-time step budget: statements executed per top-level
#: :meth:`repro.core.driver.Process.run`.  Far above any benchmark's
#: specification work, but finite, so a runaway loop in spec-time code
#: traps instead of hanging the host.
DEFAULT_SPEC_FUEL = 20_000_000


class Interp:
    """Interprets type-checked `C functions at specification time.

    ``process`` supplies the machine, the cost model, string interning,
    dynamic compilation (:meth:`repro.core.driver.Process.compile_closure`),
    and global variable cells.
    """

    def __init__(self, process):
        self.process = process
        self.machine = process.machine
        self.memory = process.machine.memory
        self.globals = process.global_cells  # id(decl) -> Cell
        self.reset_budget()

    def reset_budget(self) -> None:
        """Refill the spec-time step budget (``spec_fuel`` start option)."""
        fuel = self.process.options.get("spec_fuel", DEFAULT_SPEC_FUEL)
        self.steps_left = math.inf if fuel is None else fuel

    # -- typed memory access -------------------------------------------------

    def load_typed(self, addr: int, ty: T.CType):
        if ty.is_struct() or ty.is_array():
            return addr  # aggregates evaluate to their address
        if ty.is_float():
            return self.memory.load_double(addr)
        if isinstance(ty, T.IntType) and ty.kind == "char":
            if ty.signed:
                return self.memory.load_byte(addr)
            return self.memory.load_byte_unsigned(addr)
        return self.memory.load_word(addr)

    def store_typed(self, addr: int, ty: T.CType, value) -> None:
        if ty.is_struct():
            # struct assignment: ``value`` is the source struct's address
            payload = self.memory.read_bytes(int(value), ty.size)
            self.memory.write_bytes(addr, payload)
            return
        if ty.is_float():
            self.memory.store_double(addr, float(value))
        elif isinstance(ty, T.IntType) and ty.kind == "char":
            self.memory.store_byte(addr, int(value))
        else:
            self.memory.store_word(addr, wrap32(int(value)))

    # -- function calls ---------------------------------------------------------

    def call_function(self, fn: cast.FuncDef, args):
        """Interpret a call to ``fn`` with already-evaluated arguments."""
        if fn.body is None:
            raise RuntimeTccError(f"call to undefined function {fn.name!r}")
        if len(args) != len(fn.params):
            raise RuntimeTccError(
                f"{fn.name} expects {len(fn.params)} arguments, got {len(args)}"
            )
        frame: dict = {}
        for param, value in zip(fn.params, args):
            value = self._convert(value, param.ty)
            if param.needs_memory:
                addr = self.memory.alloc(max(param.ty.size, 4),
                                         max(param.ty.align, 4))
                cell = MemCell(addr, param.ty)
                cell.store(self, value)
            else:
                cell = PyCell(value)
            frame[id(param)] = cell
        try:
            self.exec_stmt(fn.body, frame)
        except _Return as ret:
            if ret.value is None:
                return None
            return self._convert(ret.value, fn.ty.ret)
        return None

    def _convert(self, value, ty: T.CType):
        if ty.is_float():
            return float(value)
        if ty.is_integer():
            if isinstance(ty, T.IntType) and ty.kind == "char":
                v = int(value) & 0xFF
                return v - 256 if (ty.signed and v >= 128) else v
            return wrap32(int(value))
        return value  # pointers, cspecs, vspecs, function values

    # -- statements ----------------------------------------------------------------

    def exec_stmt(self, node, frame) -> None:
        self.steps_left -= 1
        if self.steps_left < 0:
            raise CycleBudgetExceeded(
                "spec-time step budget exceeded (runaway loop in "
                "specification code?); raise with start(spec_fuel=...)"
            )
        kind = type(node).__name__
        method = getattr(self, "_x_" + kind, None)
        if method is None:
            raise RuntimeTccError(f"cannot interpret statement {kind}")
        method(node, frame)

    def _x_Block(self, node, frame) -> None:
        for stmt in node.stmts:
            self.exec_stmt(stmt, frame)

    def _x_Empty(self, node, frame) -> None:
        pass

    def _x_ExprStmt(self, node, frame) -> None:
        self.eval(node.expr, frame)

    def _x_DeclStmt(self, node, frame) -> None:
        for decl in node.decls:
            frame[id(decl)] = self._make_cell(decl, frame)

    def _make_cell(self, decl: cast.VarDecl, frame):
        ty = decl.ty
        if ty.is_array() and (ty.base.is_cspec() or ty.base.is_vspec()):
            return ListCell(ty.length)
        if ty.is_array():
            addr = self.memory.alloc(ty.size, max(ty.base.align, 4))
            if isinstance(decl.init, list):
                for i, item in enumerate(decl.init):
                    self.store_typed(addr + i * ty.base.size, ty.base,
                                     self.eval(item, frame))
            return MemCell(addr, ty)
        if ty.is_struct():
            addr = self.memory.alloc(max(ty.size, 4), max(ty.align, 4))
            cell = MemCell(addr, ty)
            if decl.init is not None:
                cell.store(self, self.eval(decl.init, frame))
            return cell
        init = 0.0 if ty.is_float() else 0
        if ty.is_cspec() or ty.is_vspec():
            init = None
        if decl.init is not None:
            init = self._convert(self.eval(decl.init, frame), ty)
        if decl.needs_memory and not (ty.is_cspec() or ty.is_vspec()):
            addr = self.memory.alloc(max(ty.size, 4), max(ty.align, 4))
            cell = MemCell(addr, ty)
            cell.store(self, init)
            return cell
        return PyCell(init)

    def _x_If(self, node, frame) -> None:
        if self._truthy(self.eval(node.cond, frame)):
            self.exec_stmt(node.then, frame)
        elif node.other is not None:
            self.exec_stmt(node.other, frame)

    def _x_While(self, node, frame) -> None:
        while self._truthy(self.eval(node.cond, frame)):
            try:
                self.exec_stmt(node.body, frame)
            except _Break:
                break
            except _Continue:
                continue

    def _x_DoWhile(self, node, frame) -> None:
        while True:
            try:
                self.exec_stmt(node.body, frame)
            except _Break:
                break
            except _Continue:
                pass
            if not self._truthy(self.eval(node.cond, frame)):
                break

    def _x_For(self, node, frame) -> None:
        if node.init is not None:
            self.eval(node.init, frame)
        while node.cond is None or self._truthy(self.eval(node.cond, frame)):
            try:
                self.exec_stmt(node.body, frame)
            except _Break:
                break
            except _Continue:
                pass
            if node.update is not None:
                self.eval(node.update, frame)

    def _x_Switch(self, node, frame) -> None:
        selector = wrap32(int(self.eval(node.expr, frame)))
        start = None
        default = None
        for i, (value, _stmts) in enumerate(node.cases):
            if value is None:
                default = i
            elif wrap32(value) == selector:
                start = i
                break
        if start is None:
            start = default
        if start is None:
            return
        try:
            for _value, stmts in node.cases[start:]:
                for stmt in stmts:
                    self.exec_stmt(stmt, frame)
        except _Break:
            pass

    def _x_Return(self, node, frame) -> None:
        value = None if node.value is None else self.eval(node.value, frame)
        raise _Return(value)

    def _x_Break(self, node, frame) -> None:
        raise _Break()

    def _x_Continue(self, node, frame) -> None:
        raise _Continue()

    # -- expressions -----------------------------------------------------------------

    def _truthy(self, value) -> bool:
        return bool(value)

    def eval(self, e, frame):
        kind = type(e).__name__
        method = getattr(self, "_e_" + kind, None)
        if method is None:
            raise RuntimeTccError(f"cannot interpret expression {kind}")
        return method(e, frame)

    def _e_IntLit(self, e, frame):
        return wrap32(e.value)

    def _e_FloatLit(self, e, frame):
        return float(e.value)

    def _e_StrLit(self, e, frame):
        return self.process.intern_string(e.value)

    def _cell_of(self, decl, frame):
        cell = frame.get(id(decl))
        if cell is None:
            cell = self.globals.get(id(decl))
        if cell is None:
            raise RuntimeTccError(
                f"variable {getattr(decl, 'name', decl)!r} has no storage"
            )
        return cell

    def _e_Ident(self, e, frame):
        decl = e.decl
        if isinstance(decl, cast.FuncDef):
            # Function name as a value: compiled functions are addresses;
            # interpreted functions are host values.
            entry = self.process.static_entry(decl.name)
            if entry is not None:
                return entry
            return InterpFunc(decl)
        if isinstance(decl, Builtin):
            return decl
        return self._cell_of(decl, frame).load(self)

    def _e_Unary(self, e, frame):
        op = e.op
        if op == "&":
            if isinstance(e.operand, cast.Ident) and isinstance(
                e.operand.decl, cast.FuncDef
            ):
                return self._e_Ident(e.operand, frame)
            ref = self.eval_lvalue(e.operand, frame)
            if isinstance(ref, MemRef):
                return ref.addr
            if isinstance(ref, CellRef) and isinstance(ref.cell, MemCell):
                return ref.cell.addr
            raise RuntimeTccError("cannot take the address of this value")
        if op == "*":
            if e.ty.is_func():
                return self.eval(e.operand, frame)
            addr = self.eval(e.operand, frame)
            return self.load_typed(int(addr), e.ty)
        if op in ("++", "--", "post++", "post--"):
            ref = self.eval_lvalue(e.operand, frame)
            old = ref.load(self)
            ty = e.operand.ty
            step = ty.base.size if ty.is_pointer() else 1
            if "--" in op:
                step = -step
            new = old + step if ty.is_float() else wrap32(int(old) + step)
            ref.store(self, new)
            return old if op.startswith("post") else new
        val = self.eval(e.operand, frame)
        if op == "-":
            return -val if isinstance(val, float) else wrap32(-int(val))
        if op == "+":
            return val
        if op == "!":
            return 0 if val else 1
        if op == "~":
            return wrap32(~int(val))
        raise RuntimeTccError(f"cannot interpret unary {op!r}")

    def _e_Binary(self, e, frame):
        op = e.op
        if op == "&&":
            return 1 if (self._truthy(self.eval(e.left, frame)) and
                         self._truthy(self.eval(e.right, frame))) else 0
        if op == "||":
            return 1 if (self._truthy(self.eval(e.left, frame)) or
                         self._truthy(self.eval(e.right, frame))) else 0
        lhs = self.eval(e.left, frame)
        rhs = self.eval(e.right, frame)
        lty = T.decay(e.left.ty)
        rty = T.decay(e.right.ty)
        if op in ("<", "<=", ">", ">=") and _unsigned_compare(lty, rty):
            from repro.target.isa import unsigned32

            lhs, rhs = unsigned32(int(lhs)), unsigned32(int(rhs))
            return 1 if {"<": lhs < rhs, "<=": lhs <= rhs,
                         ">": lhs > rhs, ">=": lhs >= rhs}[op] else 0
        if op == "+" and lty.is_pointer():
            return wrap32(int(lhs) + int(rhs) * lty.base.size)
        if op == "+" and rty.is_pointer():
            return wrap32(int(rhs) + int(lhs) * rty.base.size)
        if op == "-" and lty.is_pointer() and rty.is_pointer():
            return wrap32((int(lhs) - int(rhs)) // lty.base.size)
        if op == "-" and lty.is_pointer():
            return wrap32(int(lhs) - int(rhs) * lty.base.size)
        return _arith(op, lhs, rhs, e.ty)

    def _e_Assign(self, e, frame):
        ref = self.eval_lvalue(e.target, frame)
        tty = e.target.ty
        if e.op == "":
            value = self._convert(self.eval(e.value, frame), tty)
            ref.store(self, value)
            return value
        old = ref.load(self)
        rhs = self.eval(e.value, frame)
        if e.op in ("+", "-") and T.decay(tty).is_pointer():
            delta = int(rhs) * T.decay(tty).base.size
            new = wrap32(int(old) + (delta if e.op == "+" else -delta))
        else:
            new = _arith(e.op, old, rhs, tty if tty.is_arith() else T.INT)
        new = self._convert(new, tty)
        ref.store(self, new)
        return new

    def _e_Cond(self, e, frame):
        if self._truthy(self.eval(e.cond, frame)):
            return self.eval(e.then, frame)
        return self.eval(e.other, frame)

    def _e_Comma(self, e, frame):
        self.eval(e.left, frame)
        return self.eval(e.right, frame)

    def _e_Index(self, e, frame):
        ref = self.eval_lvalue(e, frame)
        return ref.load(self)

    def _e_Member(self, e, frame):
        return self.eval_lvalue(e, frame).load(self)

    def _e_Cast(self, e, frame):
        val = self.eval(e.expr, frame)
        ty = e.target_type
        if ty.is_void():
            return None
        return self._convert(
            int(val) if (ty.is_integer() or ty.is_pointer()) and
            isinstance(val, float) else val,
            ty,
        ) if not isinstance(val, (Closure, Vspec, InterpFunc)) else val

    def _e_SizeofType(self, e, frame):
        return T.sizeof(e.target_type, e.loc)

    def _e_SizeofExpr(self, e, frame):
        return T.sizeof(e.expr.ty, e.loc)

    # -- `C forms -----------------------------------------------------------------

    def _e_Tick(self, e: cast.Tick, frame):
        """Specification time: capture the environment in a closure
        (tcc 4.3)."""
        cost = self.process.cost
        closure = Closure(e.cgf, label=e.cgf.label)
        cost.charge(CLOSURE_ALLOC)
        self.process.closure_arena.alloc(closure.modeled_size())
        for cap in e.captures.values():
            decl = cap.decl
            if cap.kind is CaptureKind.FREEVAR:
                cell = self._cell_of(decl, frame)
                if not isinstance(cell, MemCell):
                    raise RuntimeTccError(
                        f"free variable {decl.name!r} is not memory-backed"
                    )
                closure.capture(cap.name, cap.kind, cell.addr)
            elif cap.kind is CaptureKind.RTCONST:
                closure.capture(cap.name, cap.kind,
                                self._cell_of(decl, frame).load(self))
            else:  # CSPEC / VSPEC
                closure.capture(cap.name, cap.kind,
                                self._cell_of(decl, frame).load(self))
            cost.charge(CLOSURE_CAPTURE)
        for dollar in e.dollars:
            if dollar.spectime:
                value = self.eval(dollar.expr, frame)
                if T.decay(dollar.expr.ty).is_float():
                    value = float(value)
                closure.slots[dollar_key(dollar.slot)] = value
                cost.charge(CLOSURE_CAPTURE)
        return closure

    def _e_Dollar(self, e, frame):
        raise RuntimeTccError("$ evaluated outside of specification")

    def _e_CompileForm(self, e, frame):
        closure = self.eval(e.cspec, frame)
        if not isinstance(closure, Closure):
            raise RuntimeTccError("compile() needs a specified cspec")
        return self.process.compile_closure(closure, e.ret_type)

    def _e_LocalForm(self, e, frame):
        from repro.core.lowering import cls_of

        return Vspec("local", e.var_type, cls_of(e.var_type))

    def _e_ParamForm(self, e, frame):
        from repro.core.lowering import cls_of

        index = int(self.eval(e.index, frame))
        vspec = Vspec("param", e.var_type, cls_of(e.var_type), index)
        self.process.register_param(vspec)
        return vspec

    def _e_LabelForm(self, e, frame):
        from repro.core.cgf import DynLabel, LabelCGF

        closure = Closure(LabelCGF(), label="label")
        closure.slots["label"] = DynLabel()
        self.process.cost.charge(CLOSURE_ALLOC)
        return closure

    def _e_JumpForm(self, e, frame):
        from repro.core.cgf import JumpCGF

        label_closure = self.eval(e.label, frame)
        if not isinstance(label_closure, Closure) or \
                "label" not in label_closure.slots:
            raise RuntimeTccError("jump() requires a make_label() cspec")
        closure = Closure(JumpCGF(), label="jump")
        closure.slots["label"] = label_closure.slots["label"]
        self.process.cost.charge(CLOSURE_ALLOC)
        self.process.cost.charge(CLOSURE_CAPTURE)
        return closure

    def _e_PushInit(self, e, frame):
        self.process.pending_args = []
        return None

    def _e_Push(self, e, frame):
        closure = self.eval(e.arg, frame)
        if not isinstance(closure, Closure):
            raise RuntimeTccError("push() needs a specified cspec")
        self.process.pending_args.append(closure)
        return None

    def _e_Apply(self, e, frame):
        from repro.core.cgf import ApplyCGF
        from repro.core.operands import FuncRef

        fn_val = self.eval(e.fn, frame)
        if isinstance(fn_val, InterpFunc):
            raise RuntimeTccError(
                "apply() target must be target-compiled code"
            )
        cost = self.process.cost
        closure = Closure(ApplyCGF(), label="apply")
        cost.charge(CLOSURE_ALLOC)
        closure.slots["fn"] = fn_val if isinstance(fn_val, (int, FuncRef)) \
            else int(fn_val)
        closure.slots["args"] = list(self.process.pending_args)
        cost.charge(CLOSURE_CAPTURE, 1 + len(closure.slots["args"]))
        self.process.pending_args = []
        return closure

    # -- calls -----------------------------------------------------------------------

    def _e_Call(self, e, frame):
        fn_val = self.eval(e.fn, frame)
        args = [self.eval(arg, frame) for arg in e.args]
        if isinstance(fn_val, Builtin):
            return self._call_builtin(fn_val, e, args)
        if isinstance(fn_val, InterpFunc):
            return self.call_function(fn_val.fn, args)
        if isinstance(fn_val, int):
            return self._call_compiled(fn_val, e, args)
        raise RuntimeTccError(f"cannot call value {fn_val!r}")

    def _call_compiled(self, entry: int, e, args):
        fty = e.fn.ty
        if fty.is_pointer():
            fty = fty.base
        int_args = []
        float_args = []
        for i, value in enumerate(args):
            ty = fty.params[i] if i < len(fty.params) else None
            is_float = ty.is_float() if ty is not None else \
                isinstance(value, float)
            if is_float:
                float_args.append(float(value))
            else:
                if isinstance(value, (Closure, Vspec, InterpFunc)):
                    raise RuntimeTccError(
                        "specification values cannot be passed to target code"
                    )
                int_args.append(wrap32(int(value)))
        returns = "f" if fty.ret.is_float() else (
            "v" if fty.ret.is_void() else "i"
        )
        result = self.machine.call(entry, int_args, float_args, returns)
        return result

    def _call_builtin(self, builtin: Builtin, e, args):
        name = builtin.name
        if name == "printf":
            fmt = self.memory.read_cstring(int(args[0]))
            self.machine.output.append(self._format(fmt, args[1:], e.args[1:]))
            return None
        if name == "print_int":
            self.machine.output.append(str(wrap32(int(args[0]))))
            return None
        if name == "print_str":
            self.machine.output.append(self.memory.read_cstring(int(args[0])))
            return None
        if name == "print_double":
            self.machine.output.append(repr(float(args[0])))
            return None
        if name == "putchar":
            self.machine.output.append(chr(int(args[0]) & 0xFF))
            return None
        if name == "malloc":
            return self.memory.alloc(max(int(args[0]), 1), 8)
        raise RuntimeTccError(f"unknown builtin {name!r}")

    def _format(self, fmt: str, args, arg_exprs) -> str:
        out = []
        ai = 0
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            i += 1
            if i >= len(fmt):
                break
            spec = fmt[i]
            i += 1
            if spec == "%":
                out.append("%")
                continue
            if ai >= len(args):
                raise RuntimeTccError("printf: not enough arguments")
            value = args[ai]
            ai += 1
            if spec == "d" or spec == "i":
                out.append(str(wrap32(int(value))))
            elif spec == "u":
                out.append(str(int(value) & 0xFFFFFFFF))
            elif spec == "x":
                out.append(format(int(value) & 0xFFFFFFFF, "x"))
            elif spec == "c":
                out.append(chr(int(value) & 0xFF))
            elif spec == "s":
                out.append(self.memory.read_cstring(int(value)))
            elif spec in ("f", "g", "e"):
                out.append(format(float(value), spec))
            else:
                raise RuntimeTccError(f"printf: bad conversion %{spec}")
        return "".join(out)

    # -- lvalues -----------------------------------------------------------------------

    def eval_lvalue(self, e, frame):
        if isinstance(e, cast.Ident):
            return CellRef(self._cell_of(e.decl, frame))
        if isinstance(e, cast.Unary) and e.op == "*":
            addr = int(self.eval(e.operand, frame))
            return MemRef(addr, e.ty)
        if isinstance(e, cast.Index):
            base_ty = T.decay(e.base.ty)
            base = self.eval(e.base, frame)
            idx = int(self.eval(e.index, frame))
            if isinstance(base, list):  # specification array
                return ListRef(base, idx)
            return MemRef(int(base) + idx * base_ty.base.size, e.ty)
        if isinstance(e, cast.Member):
            if e.arrow:
                base_addr = int(self.eval(e.base, frame))
                struct = T.decay(e.base.ty).base
            else:
                ref = self.eval_lvalue(e.base, frame)
                if isinstance(ref, CellRef) and isinstance(ref.cell, MemCell):
                    base_addr = ref.cell.addr
                elif isinstance(ref, MemRef):
                    base_addr = ref.addr
                else:
                    raise RuntimeTccError("struct is not memory-backed")
                struct = e.base.ty
            _fty, offset = struct.field(e.name)
            return MemRef(base_addr + offset, e.ty)
        raise RuntimeTccError(f"{type(e).__name__} is not an lvalue")


def _arith(op: str, lhs, rhs, ty: T.CType):
    """Binary arithmetic with C semantics (shared fold logic)."""
    from repro.core.lowering import _fold_binary

    return _fold_binary(op, lhs, rhs, ty)


def _unsigned_compare(lty: T.CType, rty: T.CType) -> bool:
    """The usual arithmetic conversions make this comparison unsigned."""
    if lty.is_float() or rty.is_float():
        return False

    def unsigned(ty):
        return isinstance(ty, T.IntType) and ty.kind == "int" and not ty.signed

    return unsigned(lty) or unsigned(rty)
