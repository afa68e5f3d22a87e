"""The dispatch engine: superblock dispatch plus a profile-guided trace tier.

:class:`TieredEngine` runs installed code for every ``Machine`` not on
the reference stepper.  Its dispatch loop runs the superblocks that
:mod:`repro.target.dispatch` compiles, block-to-block, from a block
cache keyed by entry pc.  With the trace tier on (``engine="tiered"``,
the default) the loop also profiles every block dispatch (count + last
observed successor edge); when a block's count reaches the policy's
hotness threshold it is **promoted**: :func:`repro.tiering.trace.form_trace`
links the hot superblocks along the profile into one straight-line
trace, the trace compiler replays the superblock emitters over the
widened window, and the compiled trace is installed in a trace cache
probed *before* the block cache.  A trace call replaces many block
dispatches — the per-seam cache probe and watchdog check are paid once
per trace entry, with the same ``TAIL``-adjusted accounting blocks use.
With the trace tier off (``engine="block"``, or any machine with an
I-cache attached) the loop probes no trace cache and writes no profile.
Either way modeled cycles, machine state, and the trap taxonomy remain
bit-identical to the reference stepper.

Deopt paths (all land back on the always-correct block tier):

* **guard side exit** — a trace's speculated branch direction is wrong
  for this execution; the trace returns the off-trace pc and the
  dispatch loop continues on the block path.  Not an eviction.
* **invalidation** — whatever evicts code also drops its profile.
  Segment rollback evicts the blocks and traces reaching past the new
  length, with the profile at or past it; fault injection, an I-cache
  swap, and :meth:`TieredEngine.clear` (the serving exec-trust
  breaker's demotion hook) evict everything.
* **poison** — the deterministic chaos hook replaces a live trace with
  a stub raising :class:`_TracePoisoned` before touching any machine
  state; the dispatch loop evicts the trace, resets its hotness, and
  re-dispatches the same pc through the block tier.
"""

from __future__ import annotations

import math

from repro import report
from repro.errors import CycleBudgetExceeded, MachineError, SegmentationFault
from repro.target.dispatch import (
    _Gen,
    assemble,
    build_env,
    carve_block,
    compile_block,
)
from repro.target.isa import CYCLE_COST, disassemble_one
from repro.telemetry import trace as _trace
from repro.tiering.policy import TieringPolicy
from repro.tiering.trace import emit_trace, form_trace, trace_has_site


class _TracePoisoned(Exception):
    """Internal deopt signal: a poisoned trace refused to run.

    Deliberately *not* a :class:`MachineError` — poisoning must never
    surface as a guest trap; the dispatch loop catches it, evicts the
    trace, and resumes on the block tier with identical results.
    """


def _poisoned_trace():
    raise _TracePoisoned()


def _out_of_fuel(cpu, pc, budget):
    """The watchdog trap, raised when a unit finished past the limit."""
    if pc is not None:
        cpu.pc = pc
    raise CycleBudgetExceeded(
        f"cycle budget of {budget} exceeded: runaway "
        "execution halted by the watchdog"
    )


class TieredEngine:
    """The dispatch engine for one ``Machine``: the block cache, plus
    the profile-guided trace tier when the machine's engine is
    ``"tiered"``.  Registered as a code-segment invalidation listener
    (:meth:`on_segment_event`)."""

    def __init__(self, machine, policy=None, shared=None):
        self.machine = machine
        self.policy = TieringPolicy.of(policy)
        self.tracing = machine.engine == "tiered"
        self.shared = shared if self.tracing else None  # SharedHotness
        self._blocks: dict = {}          # entry pc -> compiled block fn
        self._block_end: dict = {}       # entry pc -> one-past-last pc
        self._traces: dict = {}          # entry pc -> compiled trace fn
        self._trace_info: dict = {}      # entry -> (end, blocks, n_ins, cost)
        self._counts: dict = {}          # unit entry -> dispatch count
        self._succ: dict = {}            # block entry -> last successor
        self._promoted: set = set()      # entries already considered
        self._seed = ({}, {})            # (counts, succ) read from shared
        self._poison_next = False        # chaos: poison the next trace
        self._tail = [0]                 # unchecked cycle tail, see run()
        self._env = build_env(machine, self._tail)
        self._env_icache = machine.icache
        self._seed_from_shared()

    # -- shared hotness ----------------------------------------------------------

    def _seed_from_shared(self) -> None:
        """Warm-start the profile from the cross-session rollup, capping
        counts at one below the threshold so an already-hot block is
        promoted on its first local dispatch (never before the loop can
        observe at least one local edge refreshing the profile)."""
        if self.shared is None:
            return
        counts, succ = self.shared.snapshot()
        cap = self.policy.hot_threshold - 1
        for pc, n in counts.items():
            if n > 0:
                self._counts[pc] = min(n, cap)
        self._succ.update(succ)
        self._seed = (dict(self._counts), succ)

    def publish_profile(self) -> None:
        """Fold what this engine dispatched into the shared rollup
        (called by the serving session on close).  The seed is
        subtracted: a session never re-publishes counts it only read."""
        if self.shared is None:
            return
        seed_counts, seed_succ = self._seed
        self.shared.absorb(
            {pc: n - seed_counts.get(pc, 0)
             for pc, n in self._counts.items()},
            {pc: s for pc, s in self._succ.items() if seed_succ.get(pc) != s})

    # -- cache maintenance -------------------------------------------------------

    def _evict(self, length: int) -> None:
        """Drop every block and trace reaching past ``length``, and the
        profile at or past it.  Whatever evicts code also drops its
        profile: promotion fires when a count *equals* the threshold,
        so a stale count would keep the code that replaces it from ever
        promoting.  ``length`` 0 drops everything."""
        blocks = [e for e, end in self._block_end.items() if end > length]
        traces = [e for e, info in self._trace_info.items()
                  if info[0] > length]
        for entry in blocks:
            del self._blocks[entry], self._block_end[entry]
        for entry in traces:
            del self._traces[entry], self._trace_info[entry]
        for table in (self._counts, self._succ, *self._seed):
            for pc in [p for p in table if p >= length]:
                del table[pc]
        self._promoted.difference_update(
            [p for p in self._promoted if p >= length])
        if blocks:
            report.record_block_invalidation(len(blocks))
        if traces:
            report.record_trace_invalidation(len(traces))

    def clear(self) -> None:
        """Drop every block, every trace, and the whole profile (units
        recompile lazily on demand).

        Public entry point for callers that stop trusting predecoded
        state without a segment event — the serving ladder's
        degrade-to-reference rung and exec-trust breaker (via
        ``Machine.distrust_block_cache``)."""
        self._evict(0)

    def on_segment_event(self, kind: str, length) -> None:
        """Code-segment invalidation: a rollback evicts what reaches past
        the new ``length``; a fault (or anything else) evicts all."""
        self._evict(length if kind == "rollback" and length is not None
                    else 0)

    # -- chaos / deopt -----------------------------------------------------------

    def poison_trace(self):
        """Deterministic chaos hook: poison one live trace (or arm the
        next one formed) so its next dispatch deopts to the block tier.
        Returns the poisoned entry pc, or None if armed for later."""
        for entry in self._traces:
            self._traces[entry] = _poisoned_trace
            return entry
        self._poison_next = True
        return None

    def _deopt(self, entry: int, reason: str) -> None:
        """Evict one trace and re-arm its promotion trigger."""
        self._traces.pop(entry, None)
        self._trace_info.pop(entry, None)
        self._promoted.discard(entry)
        self._counts[entry] = 0
        self._seed[0].pop(entry, None)
        report.record_deopt()
        _trace.active().instant("deopt", cat="event", entry=entry,
                                reason=reason)

    # -- promotion ---------------------------------------------------------------

    def _promote(self, entry: int) -> None:
        """Try to promote the superblock at ``entry`` to a trace."""
        if entry in self._promoted:
            return
        self._promoted.add(entry)
        segment = self.machine.code
        horizon = segment._linked
        if not (0 <= entry < horizon):
            return                       # only linked code is traceable
        tracer = _trace.active()
        span = tracer.begin("promote", cat="event", entry=entry)
        try:
            form = form_trace(segment.instructions, entry, self._succ,
                              horizon, self.policy)
            if len(form.block_entries) < 2:
                return                   # a trace of one block is a block
            has_site = trace_has_site(form)
            g = _Gen(entry, use_cy=has_site, has_site=has_site,
                     icache_on=False, inline_wrap=True, inline_mem=True)
            emit_trace(g, form)
            fn = assemble(g, self._env)
            if self._poison_next:
                self._poison_next = False
                fn = _poisoned_trace
            self._traces[entry] = fn
            self._trace_info[entry] = (form.end, tuple(form.block_entries),
                                       form.instructions, form.cost)
            report.record_promotion(len(form.block_entries),
                                    form.instructions)
        finally:
            info = self._trace_info.get(entry)
            blocks = len(info[1]) if info is not None else 0
            tracer.end(span, promoted=blocks >= 2, blocks=blocks)

    # -- dispatch ----------------------------------------------------------------

    def run(self, entry: int, budget, name) -> None:
        """Execute from ``entry`` until HALT, a trap, or fuel exhaustion.

        Blocks run from the block cache, compiled on first dispatch.
        With the trace tier on, the loop also (a) probes the trace cache
        first, (b) keeps the dispatch-count and successor-edge profile
        on the block path and fires promotion at the hotness threshold,
        and (c) deopts a :class:`_TracePoisoned` trace to the block path.

        The budget check compares ``cpu.cycles - TAIL[0]`` against the
        limit: ``TAIL[0]`` is whatever the finishing unit charged past
        the reference stepper's final per-instruction checkpoint (a
        taken-branch ``+1``, a HALT-fetch I-cache penalty), which the
        reference never checks either — so trap-vs-success agrees.
        """
        machine = self.machine
        cpu = machine.cpu
        code = machine.code.instructions
        if machine.icache is not self._env_icache:
            # The env closes over the I-cache (and generated code shape
            # depends on it), so a swap invalidates every unit.
            self._evict(0)
            self._env = build_env(machine, self._tail)
            self._env_icache = machine.icache
        blocks = self._blocks
        traces = self._traces
        counts = self._counts
        succ = self._succ
        tail = self._tail
        # Tracing is off under the I-cache: trace code emits no
        # per-fetch ic() charge, so only blocks keep its accounting.
        tracing = self.tracing and machine.icache is None
        hot = self.policy.hot_threshold
        limit = math.inf if budget is None else cpu.cycles + budget
        pc = entry
        prev = -1                        # previous block entry (edge profile)
        n = 0                            # its dispatch count
        hits = compiles = trace_runs = 0
        try:
            while True:
                if tracing:
                    if n == hot:
                        # Promote once the hot block's dispatch completed:
                        # the successor edge just observed is the freshest
                        # profile the trace former can use.
                        self._promote(prev)
                        n = 0
                    unit = traces.get(pc)
                    if unit is not None:
                        trace_runs += 1
                        tail[0] = 0
                        try:
                            nxt = unit()
                        except _TracePoisoned:
                            self._deopt(pc, "poisoned")
                            continue     # same pc, block path this time
                        counts[pc] = counts.get(pc, 0) + 1
                        prev = -1        # trace exits don't profile edges
                        pc = nxt
                        if cpu.cycles - tail[0] > limit:
                            _out_of_fuel(cpu, pc, budget)
                        if pc is None:
                            return
                        continue
                blk = blocks.get(pc)
                if blk is None:
                    if pc < 0 or pc >= len(code):
                        cpu.pc = pc
                        raise SegmentationFault(
                            f"pc {pc} is out of code range "
                            f"0..{len(code) - 1}"
                        )
                    blk, end = compile_block(machine, pc, self._env)
                    if end is not None:
                        blocks[pc] = blk
                        self._block_end[pc] = end
                    compiles += 1
                else:
                    hits += 1
                if tracing:
                    n = counts.get(pc, 0) + 1
                    counts[pc] = n
                    if prev >= 0:
                        succ[prev] = pc
                    prev = pc
                tail[0] = 0
                pc = blk()
                if cpu.cycles - tail[0] > limit:
                    _out_of_fuel(cpu, pc, budget)
                if pc is None:
                    return
        except MachineError as trap:
            p = cpu.pc
            text = None
            if isinstance(p, int) and 0 <= p < len(code):
                text = disassemble_one(code[p])
            trap.attach_context(pc=p, instr=text,
                                function=name or machine.code.function_at(p))
            raise
        finally:
            if hits or compiles:
                report.record_dispatch(hits + compiles, hits)
            if trace_runs:
                report.record_trace_dispatches(trace_runs)

    # -- reporting ---------------------------------------------------------------

    def hot_units(self, top: int = 10) -> list:
        """The top-N hottest units by dispatch count, with cumulative
        modeled-cycle attribution (static per-entry cost x dispatches).

        Traces report their formed shape; blocks are carved on demand.
        Used by the ``report hot`` CLI subcommand and the benchmarks.
        """
        code = self.machine.code.instructions
        rows = []
        for pc, n in self._counts.items():
            if n <= 0:
                continue
            info = self._trace_info.get(pc)
            if pc in self._traces and info is not None:
                kind = "trace"
                n_ins = info[2]
                unit_cost = info[3]
                blocks_spanned = len(info[1])
            else:
                kind = "block"
                blocks_spanned = 1
                if 0 <= pc < len(code):
                    instrs = carve_block(code, pc, len(code))
                else:
                    instrs = []
                n_ins = len(instrs)
                unit_cost = sum(CYCLE_COST.get(i.op, 0) for i in instrs)
            rows.append({
                "pc": pc,
                "kind": kind,
                "dispatches": n,
                "blocks": blocks_spanned,
                "instructions": n_ins,
                "cycles": n * unit_cost,
            })
        rows.sort(key=lambda r: (-r["dispatches"], -r["cycles"], r["pc"]))
        return rows[:top]
