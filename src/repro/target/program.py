"""Labels, the code segment, and the incremental linker.

The code segment is append-only in normal operation: back ends emit
instruction bodies (tcc copies dynamic code into contiguous memory at
install time), :func:`~repro.core.install.install_function` defines a
symbol for named functions, and :meth:`CodeSegment.link` patches
:class:`Label` and :class:`~repro.core.operands.FuncRef` operands to
absolute instruction indices.  Linking is incremental — only instructions
emitted since the previous link are scanned — so repeated dynamic
installs stay cheap.

Robustness hooks:

* a capacity limit (:class:`~repro.errors.CodeSegmentExhausted` when
  emission would overflow it);
* :meth:`CodeSegment.inject_emit_failure`, a deterministic one-shot fault
  for testing recovery paths;
* :meth:`CodeSegment.mark` / :meth:`CodeSegment.release` checkpoints so
  the driver can roll back a half-emitted function and retry it on
  another back end;
* an install map (:meth:`CodeSegment.note_function`) that lets traps name
  the dynamic function containing the faulting pc.

Address 0 always holds a ``HALT`` sentinel: ``Machine.call`` seeds the
return-address register with 0, so a top-level ``ret`` lands on the
sentinel and stops the machine cleanly.
"""

from __future__ import annotations

import bisect
import threading

from repro.errors import CodeSegmentExhausted, LinkError
from repro.target.isa import Instruction, Op
from repro.telemetry.metrics import REGISTRY

_ROLLBACKS = REGISTRY.counter("segment.rollbacks")
_FAULTS = REGISTRY.counter("segment.faults")

#: Default capacity of the code segment, in instructions.
DEFAULT_CODE_CAPACITY = 1 << 20


class Label:
    """A code location, placed by setting :attr:`address` and resolved by
    the linker.  Back ends use addresses relative to the emitted body;
    installation shifts them to absolute code addresses."""

    __slots__ = ("name", "address")

    def __init__(self, name: str | None = None, address: int | None = None):
        self.name = name
        self.address = address

    def __repr__(self) -> str:
        where = "unplaced" if self.address is None else str(self.address)
        return f"<Label {self.name or ''}@{where}>"


class CodeSegment:
    """The machine's instruction memory plus symbol table and linker."""

    def __init__(self, capacity: int = DEFAULT_CODE_CAPACITY):
        self.capacity = capacity
        self.instructions = [Instruction(Op.HALT)]
        self.symbols: dict = {}
        self._linked = 0            # instructions below this index are patched
        self._marks: list = []
        self._fail_emit_in = None   # one-shot injected emit failure countdown
        # install map: parallel sorted lists of (entry, name) for traps
        self._fn_entries: list = [0]
        self._fn_names: list = ["<halt>"]
        # observers notified when installed code stops being trustworthy;
        # a copy-on-write tuple so notification never iterates a list
        # another thread is mutating (registration is rare, events hot)
        self._invalidation_listeners: tuple = ()
        self._listener_lock = threading.Lock()

    @property
    def here(self) -> int:
        """The address the next emitted instruction will get."""
        return len(self.instructions)

    # -- emission ---------------------------------------------------------------

    def emit(self, instr: Instruction) -> int:
        """Append one instruction; return its address."""
        if self._fail_emit_in is not None:
            self._fail_emit_in -= 1
            if self._fail_emit_in <= 0:
                self._fail_emit_in = None
                raise CodeSegmentExhausted(
                    "injected code-segment exhaustion (fault injection)"
                )
        if len(self.instructions) >= self.capacity:
            raise CodeSegmentExhausted(
                f"code segment full: capacity {self.capacity} instructions"
            )
        addr = len(self.instructions)
        self.instructions.append(instr)
        return addr

    def extend(self, instrs) -> int:
        """Append a body of instructions; return the address of the first."""
        entry = self.here
        for instr in instrs:
            self.emit(instr)
        return entry

    def inject_emit_failure(self, nth: int = 1) -> None:
        """Deterministic fault injection: make the ``nth`` emit from now
        raise :class:`CodeSegmentExhausted` (one-shot, seed-free)."""
        if nth < 1:
            raise ValueError("nth must be >= 1")
        self._fail_emit_in = nth
        self._notify_invalidation("fault", None)

    def limit_capacity(self, capacity: int) -> int:
        """Clamp the segment's capacity (chaos injection: simulated
        segment exhaustion); returns the previous capacity so the caller
        can restore it after 'eviction' frees room again."""
        if capacity < len(self.instructions):
            capacity = len(self.instructions)
        previous = self.capacity
        self.capacity = capacity
        return previous

    # -- invalidation listeners --------------------------------------------------

    def add_invalidation_listener(self, fn) -> None:
        """Register ``fn(kind, length)`` to be told when installed code may
        no longer be reused: ``("rollback", new_length)`` after a
        :meth:`release` truncation, ``("fault", None)`` when a fault is
        injected.  Used by the specialization cache and by the
        dispatch engine's block and trace caches."""
        with self._listener_lock:
            self._invalidation_listeners += (fn,)

    def remove_invalidation_listener(self, fn) -> None:
        """Unregister a listener (no-op when it was never registered):
        lets a closing serving session detach its caches."""
        with self._listener_lock:
            self._invalidation_listeners = tuple(
                f for f in self._invalidation_listeners if f is not fn
            )

    def _notify_invalidation(self, kind: str, length) -> None:
        (_ROLLBACKS if kind == "rollback" else _FAULTS).inc()
        for fn in self._invalidation_listeners:
            fn(kind, length)

    # -- symbols ----------------------------------------------------------------

    def define(self, name: str, address: int) -> None:
        """Bind ``name`` to a code address for FuncRef resolution."""
        if name in self.symbols:
            raise LinkError(f"symbol {name!r} defined twice")
        self.symbols[name] = address

    def lookup(self, name: str) -> int:
        address = self.symbols.get(name)
        if address is None:
            raise LinkError(f"undefined symbol {name!r}")
        return address

    def symbols_match(self, bindings) -> bool:
        """True when every ``(name, address)`` pair in ``bindings`` is
        bound identically in this segment's symbol table.

        This is the link-compatibility gate for the persistent code
        cache: a serialized template's body embeds *resolved* callee
        addresses, so it may only be cloned into a segment whose static
        layout binds those symbols to the same places (Label operands,
        by contrast, relocate position-independently by the clone
        delta).  A missing or differently-placed symbol makes the pair
        fail, which the cache treats as a silent miss.
        """
        symbols = self.symbols
        for name, address in bindings:
            if symbols.get(name) != address:
                return False
        return True

    def note_function(self, entry: int, name: str) -> None:
        """Record that the function ``name`` starts at ``entry`` (the
        install map used to attribute traps to a dynamic function)."""
        i = bisect.bisect_left(self._fn_entries, entry)
        if i < len(self._fn_entries) and self._fn_entries[i] == entry:
            self._fn_names[i] = name
        else:
            self._fn_entries.insert(i, entry)
            self._fn_names.insert(i, name)

    def function_at(self, pc: int) -> str | None:
        """Name of the function whose body contains ``pc``, if known."""
        i = bisect.bisect_right(self._fn_entries, pc) - 1
        return self._fn_names[i] if i > 0 else None

    # -- linking ----------------------------------------------------------------

    def link(self) -> int:
        """Patch Label/FuncRef operands emitted since the last link to
        absolute addresses; return the number of patches applied."""
        from repro.core.operands import FuncRef

        patched = 0
        for instr in self.instructions[self._linked:]:
            for field in ("a", "b", "c"):
                value = getattr(instr, field)
                if isinstance(value, Label):
                    if value.address is None:
                        raise LinkError(
                            f"unresolved label {value.name or '<anonymous>'!r}"
                        )
                    setattr(instr, field, value.address)
                    patched += 1
                elif isinstance(value, FuncRef):
                    setattr(instr, field, self.lookup(value.name))
                    patched += 1
        self._linked = len(self.instructions)
        return patched

    # -- checkpoints (backend-fallback support) ----------------------------------

    def mark(self) -> None:
        """Checkpoint the segment so a failed install can be rolled back."""
        self._marks.append((len(self.instructions), set(self.symbols),
                            self._linked, len(self._fn_entries)))

    def release(self) -> None:
        """Roll back to the matching :meth:`mark`: discard instructions,
        symbols, and install-map entries added since."""
        if not self._marks:
            raise LinkError("code segment: release without mark")
        length, names, linked, n_fns = self._marks.pop()
        del self.instructions[length:]
        self.symbols = {k: v for k, v in self.symbols.items() if k in names}
        self._linked = min(self._linked, linked)
        del self._fn_entries[n_fns:]
        del self._fn_names[n_fns:]
        self._notify_invalidation("rollback", length)

    def commit(self) -> None:
        """Drop the innermost checkpoint, keeping everything emitted."""
        if not self._marks:
            raise LinkError("code segment: commit without mark")
        self._marks.pop()

    def __repr__(self) -> str:
        return (f"<CodeSegment {len(self.instructions)} instructions, "
                f"{len(self.symbols)} symbols>")
