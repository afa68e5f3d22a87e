"""The dispatch engine and its profile-guided trace tier.

:class:`TieredEngine` is the one engine behind every non-reference
``Machine``.  It dispatches superblocks block-to-block; with the trace
tier on (``engine="tiered"``, the default) it also counts how often
every superblock is dispatched, and when a block crosses a hotness
threshold it links the hot superblocks along their observed taken
branches into one widened straight-line **trace**, compiles it with
the superblock emitters, and hoists the per-block watchdog probe and
block-cache lookup out of the interior — paying them once per trace
entry instead of once per block.
``engine="block"`` is the same engine with the trace tier off: no trace
probe, no profile.  Modeled cycles, machine state, and the trap taxonomy
stay bit-identical to the reference stepper (``tests/test_engines.py``
proves it differentially, including mid-run promotions and deopts).

Layout:

``policy``
    :class:`TieringPolicy` — the promotion knobs (hotness threshold,
    trace size caps).
``trace``
    trace formation from the dispatch profile and trace code generation
    (reusing the superblock generator's per-instruction emitters).
``engine``
    :class:`TieredEngine` — the dispatch loop, the block and trace
    caches, the profile, promotion, invalidation, and deopt.
``hotness``
    :class:`SharedHotness` — the thread-safe cross-session profile the
    serving engine uses so one session's hot loops warm another's traces.
"""

from repro.tiering.engine import TieredEngine
from repro.tiering.hotness import SharedHotness
from repro.tiering.policy import TieringPolicy
from repro.tiering.trace import TraceForm, form_trace

__all__ = ["TieredEngine", "SharedHotness", "TieringPolicy", "TraceForm",
           "form_trace"]
