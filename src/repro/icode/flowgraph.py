"""Flow-graph construction over the ICODE IR.

Mirrors tcc 5.2: the flow graph is built in one pass after all CGFs have
run; blocks live in a single array in instruction order; forward references
are collected and resolved once all blocks exist.  Each block records its
local ``use`` and ``def`` sets ("a minimal amount of local data flow
information").
"""

from __future__ import annotations

from repro.errors import CodegenError
from repro.runtime.costmodel import (
    FLOWGRAPH_BLOCK,
    FLOWGRAPH_EDGE,
    FLOWGRAPH_INSTR,
)


class BasicBlock:
    __slots__ = ("index", "start", "end", "succs", "preds", "use", "defs",
                 "live_in", "live_out")

    def __init__(self, index: int, start: int, end: int):
        self.index = index
        self.start = start  # first instruction index (inclusive)
        self.end = end      # last instruction index (exclusive)
        self.succs: list[int] = []
        self.preds: list[int] = []
        self.use: set = set()
        self.defs: set = set()
        self.live_in: set = set()
        self.live_out: set = set()

    def __repr__(self) -> str:
        return f"<BB{self.index} [{self.start}:{self.end}) -> {self.succs}>"


class FlowGraph:
    def __init__(self, blocks, label_block, instr_block):
        self.blocks: list[BasicBlock] = blocks
        self.label_block: dict = label_block  # id(Label) -> block index
        self.instr_block: list[int] = instr_block  # instr index -> block index


def block_bounds(instrs) -> list:
    """``(start, end)`` of every basic block of ``instrs``, in order."""
    n = len(instrs)
    leaders = {0} if n else set()
    for i, instr in enumerate(instrs):
        if instr.op == "label":
            leaders.add(i)
        if instr.ends_block() and i + 1 < n:
            leaders.add(i + 1)
    order = sorted(leaders)
    return list(zip(order, order[1:] + [n]))


def build_flowgraph(ir, cost=None) -> FlowGraph:
    """Build basic blocks, edges, and local def/use sets for ``ir``."""
    instrs = ir.instrs
    blocks: list[BasicBlock] = []
    instr_block = [0] * len(instrs)
    label_block: dict = {}
    for bi, (start, end) in enumerate(block_bounds(instrs)):
        block = BasicBlock(bi, start, end)
        blocks.append(block)
        for i in range(start, end):
            instr_block[i] = bi
            if instrs[i].op == "label":
                label_block[id(instrs[i].a)] = bi
        if cost is not None:
            cost.charge(FLOWGRAPH_BLOCK)
            cost.charge(FLOWGRAPH_INSTR, end - start)

    # Edges (forward references resolved after all blocks are built).
    pending = []
    for block in blocks:
        if block.end == 0:
            continue
        last = instrs[block.end - 1]
        target = last.branch_target()
        if target is not None:
            pending.append((block.index, target))
        falls_through = not (last.op == "ret" or (
            not isinstance(last.op, str) and last.branch_target() is not None
            and last.op.name == "JMP"
        ))
        if falls_through and block.index + 1 < len(blocks):
            _add_edge(blocks, block.index, block.index + 1, cost)
    for src, label in pending:
        dst = label_block.get(id(label))
        if dst is None:
            raise CodegenError(f"branch to unplaced label {label!r}")
        _add_edge(blocks, src, dst, cost)

    # Local def/use sets (upward-exposed uses).
    for block in blocks:
        use: set = set()
        defs: set = set()
        for i in range(block.start, block.end):
            d, u = instrs[i].defs_uses()
            for vr in u:
                if vr not in defs:
                    use.add(vr)
            defs.update(d)
        block.use = use
        block.defs = defs
    return FlowGraph(blocks, label_block, instr_block)


def _add_edge(blocks, src: int, dst: int, cost) -> None:
    if dst not in blocks[src].succs:
        blocks[src].succs.append(dst)
        blocks[dst].preds.append(src)
        if cost is not None:
            cost.charge(FLOWGRAPH_EDGE)
