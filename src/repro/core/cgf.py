"""Code-generating functions (tcc section 4.2).

At static compile time every tick expression is lowered to a :class:`CGF`.
At specification time the interpreter allocates a closure capturing the tick
expression's environment; at instantiation time ``compile()`` invokes the
CGF on the closure, and the CGF drives the shared dynamic back end through
:class:`repro.core.lowering.CodeGen`.

Composition works exactly as in the paper: when a CGF encounters a nested
cspec it simply invokes that cspec's CGF against the same back end, and the
nested CGF returns the location holding its dynamic value.
"""

from __future__ import annotations

from repro.core.lowering import CodeGen, CspecBinding, MemLV, RegVal, \
    VspecBinding, cls_of, width_of
from repro.errors import RuntimeTccError
from repro.frontend import cast
from repro.runtime.closures import CaptureKind
from repro.runtime.costmodel import CLOSURE_CGF_CALL


def dollar_key(slot: int) -> str:
    """Closure slot name for a specification-time $ value."""
    return f"dollar{slot}"


class CGF:
    """The statically-generated code generator for one tick expression."""

    def __init__(self, tick: cast.Tick, fn_name: str = "?"):
        self.tick = tick
        self.label = f"cgf_{fn_name}_{tick.tick_id}"

    def emit_into(self, parent_ctx, closure):
        """Emit this tick's code into the back end of ``parent_ctx``.

        Returns the lowering value holding the cspec's dynamic value (None
        for void cspecs), exactly like a tcc CGF returning the location of
        its result to the enclosing CGF.
        """
        ctx = parent_ctx.child()
        self._bind_environment(ctx, closure)
        gen = CodeGen(ctx)
        body = self.tick.body
        if isinstance(body, cast.Block):
            gen.gen_stmt(body)
            return None
        return gen.gen_expr(body)

    def _bind_environment(self, ctx, closure) -> None:
        ctx.in_tick = True
        rec = ctx.recorder
        for cap in self.tick.captures.values():
            try:
                value = closure.slots[cap.name]
            except KeyError:
                raise RuntimeTccError(
                    f"closure for {self.label} is missing capture "
                    f"{cap.name!r}"
                ) from None
            decl = cap.decl
            # Tag $ values and free-variable addresses with their patch-hole
            # provenance (see codecache.py) without mutating the closure.
            if rec is not None and cap.kind in (CaptureKind.FREEVAR,
                                                CaptureKind.RTCONST):
                value = rec.tag((id(closure), cap.name), value)
            if cap.kind is CaptureKind.FREEVAR:
                ty = decl.ty
                elem_ty = ty.base if ty.is_array() else ty
                addr = value if isinstance(value, int) else int(value)
                ctx.env[id(decl)] = MemLV(
                    None, addr, width_of(elem_ty), cls_of(elem_ty)
                )
            elif cap.kind is CaptureKind.RTCONST:
                ctx.rtconst_values[id(decl)] = value
            elif cap.kind is CaptureKind.CSPEC:
                if value is None:
                    raise RuntimeTccError(
                        f"cspec {decl.name!r} composed before being specified"
                    )
                ctx.env[id(decl)] = CspecBinding(value)
            elif cap.kind is CaptureKind.VSPEC:
                if value is None:
                    raise RuntimeTccError(
                        f"vspec {decl.name!r} used before being created"
                    )
                ctx.env[id(decl)] = VspecBinding(value)
        for dollar in self.tick.dollars:
            if dollar.spectime:
                key = dollar_key(dollar.slot)
                if key not in closure.slots:
                    raise RuntimeTccError(
                        f"closure for {self.label} is missing $-slot {key}"
                    )
                value = closure.slots[key]
                if rec is not None:
                    value = rec.tag((id(closure), key), value)
                ctx.dollar_values[dollar.slot] = value

    def __repr__(self) -> str:
        return f"<CGF {self.label}>"


class DynLabel:
    """A run-time-created label, shared between its mark and its jumps."""

    __slots__ = ("name",)
    _counter = 0

    def __init__(self):
        DynLabel._counter += 1
        self.name = f"dynlabel{DynLabel._counter}"

    def __repr__(self) -> str:
        return f"<DynLabel {self.name}>"


class LabelCGF:
    """CGF behind ``make_label()``: composing the cspec marks the spot."""

    label = "cgf_label"

    def emit_into(self, parent_ctx, closure):
        target = parent_ctx.backend.dyn_label(closure.slots["label"])
        parent_ctx.backend.place(target)
        return None


class JumpCGF:
    """CGF behind ``jump(l)``: composing the cspec emits the jump."""

    label = "cgf_jump"

    def emit_into(self, parent_ctx, closure):
        target = parent_ctx.backend.dyn_label(closure.slots["label"])
        parent_ctx.backend.jmp(target)
        return None


class ApplyCGF:
    """CGF behind ``apply(fn)``: a dynamically constructed function call
    with a run-time-determined argument list (tcc section 3: `C can
    generate calls with statically unknown numbers of arguments).

    The closure's slots hold ``fn`` (an entry address or FuncRef) and
    ``args`` (a list of int-cspec closures pushed via ``push()``).
    """

    label = "cgf_apply"

    def emit_into(self, parent_ctx, closure):
        from repro.core.lowering import CodeGen

        ctx = parent_ctx.child()
        ctx.in_tick = True
        gen = CodeGen(ctx)
        handles = []
        vals = []
        for arg_closure in closure.slots["args"]:
            ctx.cost.charge(CLOSURE_CGF_CALL)
            value = gen.materialize(arg_closure.cgf.emit_into(ctx, arg_closure))
            vals.append(value)
            handles.append((value.handle, "i"))
        target = closure.slots["fn"]
        result = ctx.backend.call(target, handles, "i")
        for value in vals:
            gen.release(value)
        return RegVal(result, "i", True)

    def __repr__(self) -> str:
        return "<ApplyCGF>"
