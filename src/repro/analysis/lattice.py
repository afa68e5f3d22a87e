"""Abstract domains for the ICODE dataflow analysis.

One :class:`AbstractValue` is a reduced product of four small domains,
all over the target's wrap32 integer semantics:

interval
    ``[lo, hi]`` bounds on the signed 32-bit value.  Arithmetic is done
    exactly in unbounded integers; if the exact result range leaves
    ``[INT_MIN, INT_MAX]`` the transfer gives up and returns TOP bounds
    rather than model wrapping (sound: the concrete op wraps, and a
    wrapped value is inside TOP).  Constancy is the point interval.

alignment
    The value is a multiple of ``align`` (a power of two, capped at 16
    — enough to discharge 4-byte access alignment with headroom).

nullness
    ``nonzero`` — the value is known to be != 0, even when the interval
    straddles zero (set by branch refinement on ``bnez``).

region
    Which arena the value derives from when used as a pointer: ``None``
    (unknown), or a small tag such as ``("param", k)``.  Joins of
    different regions go to ``None``.

Values also carry ``tags``: the frozen set of patch-hole origins
(``PatchImm.origin``) that fed the value.  Any optimization decision
justified by the interval of a tagged value must pin those origins on
the :class:`~repro.core.codecache.PatchRecorder`, so a Tier-2 template
clone with different hole values cannot inherit the decision.
"""

from __future__ import annotations

from repro.target.isa import Op

INT_MIN = -0x8000_0000
INT_MAX = 0x7FFF_FFFF

#: Alignment cap: tracking multiples beyond 16 buys nothing for 1/4/8
#: byte accesses.
_ALIGN_CAP = 16

_EMPTY = frozenset()


def _align_of_const(value: int) -> int:
    if value == 0:
        return _ALIGN_CAP
    return min(value & -value, _ALIGN_CAP)


class AbstractValue:
    """One lattice element: interval x alignment x nullness x region,
    plus the patch-hole provenance tags."""

    __slots__ = ("lo", "hi", "align", "nonzero", "region", "tags")

    def __init__(self, lo=INT_MIN, hi=INT_MAX, align=1, nonzero=False,
                 region=None, tags=_EMPTY):
        self.lo = lo
        self.hi = hi
        self.align = align
        self.nonzero = nonzero
        self.region = region
        self.tags = tags

    # -- factories -------------------------------------------------------

    @classmethod
    def top(cls) -> "AbstractValue":
        return cls()

    @classmethod
    def const(cls, value: int, tags=_EMPTY) -> "AbstractValue":
        return cls(value, value, _align_of_const(value), value != 0,
                   None, tags)

    @classmethod
    def opaque(cls, region=None) -> "AbstractValue":
        return cls(region=region)

    # -- predicates ------------------------------------------------------

    def is_const(self) -> bool:
        return self.lo == self.hi

    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def excludes_zero(self) -> bool:
        return self.nonzero or self.lo > 0 or self.hi < 0

    # -- lattice operations ----------------------------------------------

    def join(self, other: "AbstractValue") -> "AbstractValue":
        import math
        return AbstractValue(
            min(self.lo, other.lo), max(self.hi, other.hi),
            math.gcd(self.align, other.align),
            self.nonzero and other.nonzero,
            self.region if self.region == other.region else None,
            self.tags | other.tags,
        )

    def widen(self, other: "AbstractValue") -> "AbstractValue":
        """Standard interval widening against the previous state
        ``self``: any bound still moving jumps straight to its extreme,
        guaranteeing termination of the fixpoint."""
        joined = self.join(other)
        lo = self.lo if joined.lo >= self.lo else INT_MIN
        hi = self.hi if joined.hi <= self.hi else INT_MAX
        joined.lo, joined.hi = lo, hi
        return joined

    def same_as(self, other: "AbstractValue") -> bool:
        return (self.lo == other.lo and self.hi == other.hi
                and self.align == other.align
                and self.nonzero == other.nonzero
                and self.region == other.region
                and self.tags == other.tags)

    def __repr__(self) -> str:  # debugging aid only
        bits = [f"[{self.lo},{self.hi}]"]
        if self.align > 1:
            bits.append(f"%{self.align}")
        if self.nonzero:
            bits.append("nz")
        if self.region is not None:
            bits.append(str(self.region))
        return "<" + " ".join(bits) + ">"


TOP = AbstractValue.top()

#: 0/1 comparison result with undecided outcome.
_BOOL_TOP = AbstractValue(0, 1, 1, False, None, _EMPTY)


def _exact(lo: int, hi: int, align: int, tags) -> AbstractValue:
    """Interval result of an exact computation: kept if it fits in
    wrap32, dropped to TOP bounds if the concrete op could wrap."""
    if INT_MIN <= lo and hi <= INT_MAX:
        return AbstractValue(lo, hi, min(align, _ALIGN_CAP),
                             lo > 0 or hi < 0, None, tags)
    return AbstractValue(align=min(align, _ALIGN_CAP), tags=tags)


def _bool(outcome, tags) -> AbstractValue:
    if outcome is None:
        v = AbstractValue(0, 1, 1, False, None, tags)
    elif outcome:
        v = AbstractValue(1, 1, 1, True, None, tags)
    else:
        v = AbstractValue(0, 0, _ALIGN_CAP, False, None, tags)
    return v


def _mul_bounds(a: AbstractValue, b: AbstractValue, tags) -> AbstractValue:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _exact(min(products), max(products),
                  min(a.align * b.align, _ALIGN_CAP), tags)


def _shift_amount(b: AbstractValue):
    """Shift counts are masked to 5 bits by the target; only a known
    in-range count is usable."""
    if b.is_const() and 0 <= b.lo < 32:
        return b.lo
    return None


def transfer(op: Op, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Abstract result of ``op`` applied to operand values ``a`` and
    ``b`` (immediates are passed as point intervals).  Conservative:
    anything not modeled returns TOP bounds with joined tags."""
    tags = a.tags | b.tags
    if op in (Op.ADD, Op.ADDI):
        import math
        return _exact(a.lo + b.lo, a.hi + b.hi,
                      math.gcd(a.align, b.align), tags)
    if op in (Op.SUB, Op.SUBI):
        import math
        return _exact(a.lo - b.hi, a.hi - b.lo,
                      math.gcd(a.align, b.align), tags)
    if op in (Op.MUL, Op.MULI):
        return _mul_bounds(a, b, tags)
    if op in (Op.AND, Op.ANDI):
        # With a non-negative operand m, the result is in [0, m] and
        # inherits m's trailing-zero alignment (two's complement).
        if b.lo >= 0:
            align = b.lo & -b.lo if b.is_const() and b.lo else 1
            return AbstractValue(0, b.hi, max(min(align, _ALIGN_CAP), 1),
                                 False, None, tags)
        if a.lo >= 0:
            return AbstractValue(0, a.hi, 1, False, None, tags)
        return AbstractValue(tags=tags)
    if op in (Op.OR, Op.ORI, Op.XOR, Op.XORI):
        if a.lo >= 0 and b.lo >= 0:
            # Result is non-negative and below the next power of two
            # covering both operands.
            bound = 1
            while bound <= max(a.hi, b.hi):
                bound <<= 1
            return AbstractValue(0, bound - 1, 1, False, None, tags)
        return AbstractValue(tags=tags)
    if op in (Op.SLL, Op.SLLI):
        s = _shift_amount(b)
        if s is not None:
            return _exact(a.lo << s, a.hi << s,
                          min(a.align << s, _ALIGN_CAP), tags)
        return AbstractValue(tags=tags)
    if op in (Op.SRL, Op.SRLI):
        s = _shift_amount(b)
        if s is not None and a.lo >= 0:
            return _exact(a.lo >> s, a.hi >> s, 1, tags)
        if s == 0:
            return AbstractValue(a.lo, a.hi, a.align, a.nonzero,
                                 a.region, tags)
        return AbstractValue(tags=tags)
    if op in (Op.SRA, Op.SRAI):
        s = _shift_amount(b)
        if s is not None:
            return _exact(a.lo >> s, a.hi >> s, 1, tags)
        return AbstractValue(tags=tags)
    if op in (Op.SEQ, Op.SEQI):
        if a.is_const() and b.is_const():
            return _bool(a.lo == b.lo, tags)
        if a.hi < b.lo or a.lo > b.hi:
            return _bool(False, tags)
        return _bool(None, tags)
    if op in (Op.SNE, Op.SNEI):
        if a.is_const() and b.is_const():
            return _bool(a.lo != b.lo, tags)
        if a.hi < b.lo or a.lo > b.hi:
            return _bool(True, tags)
        if b.is_zero() and a.excludes_zero():
            return _bool(True, tags)
        return _bool(None, tags)
    if op in (Op.SLT, Op.SLTI):
        if a.hi < b.lo:
            return _bool(True, tags)
        if a.lo >= b.hi:
            return _bool(False, tags)
        return _bool(None, tags)
    if op in (Op.SLE, Op.SLEI):
        if a.hi <= b.lo:
            return _bool(True, tags)
        if a.lo > b.hi:
            return _bool(False, tags)
        return _bool(None, tags)
    if op in (Op.SGT, Op.SGTI):
        return transfer(Op.SLT, b, a)
    if op in (Op.SGE, Op.SGEI):
        return transfer(Op.SLE, b, a)
    if op is Op.SLTU:
        if a.lo >= 0 and b.lo >= 0:
            return transfer(Op.SLT, a, b)
        return _bool(None, tags)
    if op is Op.MOV:
        return AbstractValue(a.lo, a.hi, a.align, a.nonzero, a.region,
                             a.tags)
    if op is Op.NEG:
        return _exact(-a.hi, -a.lo, a.align, a.tags)
    if op is Op.NOT:
        return _exact(-a.hi - 1, -a.lo - 1, 1, a.tags)
    if op in (Op.DIVI, Op.MODI) and b.is_const() and b.lo > 0:
        if op is Op.DIVI:
            if a.lo >= 0:
                # Non-negative dividend: C and floor division agree.
                return _exact(a.lo // b.lo, a.hi // b.lo, 1, tags)
            return AbstractValue(tags=tags)
        # MODI with positive divisor: |result| < divisor, sign follows
        # the dividend.
        lo = 0 if a.lo >= 0 else -(b.lo - 1)
        hi = 0 if a.hi < 0 else b.lo - 1
        return _exact(lo, hi, 1, tags)
    return AbstractValue(tags=tags)
