"""Live-variable analysis.

tcc uses "a traditional relaxation algorithm for computing exact live
variable information" whose result is then coarsened to live intervals
(section 5.2).  This is the standard backward iterative dataflow:

    live_out(b) = union of live_in(s) for s in succ(b)
    live_in(b)  = use(b) | (live_out(b) - def(b))

iterated to a fixpoint over the blocks in reverse order.
"""

from __future__ import annotations

from repro.runtime.costmodel import (
    LIVENESS_BLOCK_PASS,
    LIVENESS_INSTR_PASS,
    LIVENESS_SETOP,
)


def compute_liveness(fg, cost=None) -> int:
    """Fill in live_in/live_out on every block; return iteration count."""
    blocks = fg.blocks
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for block in reversed(blocks):
            live_out = set()
            for s in block.succs:
                live_out |= blocks[s].live_in
            live_in = block.use | (live_out - block.defs)
            if cost is not None:
                cost.charge(LIVENESS_BLOCK_PASS)
                cost.charge(LIVENESS_INSTR_PASS, block.end - block.start)
                cost.charge(
                    LIVENESS_SETOP,
                    len(live_out) + len(live_in) + len(block.use),
                )
            if live_out != block.live_out or live_in != block.live_in:
                block.live_out = live_out
                block.live_in = live_in
                changed = True
    return iterations
