"""Promotion policy knobs for the trace tier.

A :class:`TieringPolicy` is carried by :class:`repro.tiering.TieredEngine`
and controls when a superblock is promoted to a trace and how large the
formed trace may grow.  It is plain data — the engine interprets it.
Whether the trace tier runs at all is the machine's engine choice
(``"tiered"`` on, ``"block"`` off), not a policy field.
"""


class TieringPolicy:
    """Knobs governing trace promotion.

    ``hot_threshold``
        A superblock is promoted the moment its dispatch count reaches
        exactly this value.  Must be at least 2: trace formation follows
        *observed* successors, and the first dispatch of a block is what
        records its successor edge — promoting on the very first
        dispatch would always see an empty profile.
    ``max_trace_instructions``
        Upper bound on target instructions covered by one trace
        (loops unroll until they hit this cap, so it also bounds the
        watchdog-overshoot a trace can accrue between budget checks).
    ``max_trace_blocks``
        Safety valve on the number of superblocks linked into one trace;
        the instruction cap usually dominates.
    """

    __slots__ = ("hot_threshold", "max_trace_instructions",
                 "max_trace_blocks")

    def __init__(self, hot_threshold=8, max_trace_instructions=512,
                 max_trace_blocks=256):
        if not isinstance(hot_threshold, int) or hot_threshold < 2:
            raise ValueError(
                "hot_threshold must be an int >= 2 "
                "(the profile needs at least one observed successor edge)")
        if not isinstance(max_trace_instructions, int) or max_trace_instructions < 1:
            raise ValueError("max_trace_instructions must be a positive int")
        if not isinstance(max_trace_blocks, int) or max_trace_blocks < 1:
            raise ValueError("max_trace_blocks must be a positive int")
        self.hot_threshold = hot_threshold
        self.max_trace_instructions = max_trace_instructions
        self.max_trace_blocks = max_trace_blocks

    @classmethod
    def of(cls, value):
        """Normalize a user-supplied ``tiering=`` option.

        Accepts ``None`` (defaults), an existing policy, or a dict of
        constructor keywords.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"tiering must be None, a TieringPolicy, or a dict, "
            f"not {type(value).__name__}")

    def __repr__(self):
        return (f"TieringPolicy(hot_threshold={self.hot_threshold}, "
                f"max_trace_instructions={self.max_trace_instructions}, "
                f"max_trace_blocks={self.max_trace_blocks})")
