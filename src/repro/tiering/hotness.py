"""Cross-session hotness sharing for the serving engine.

Each serving session runs its own :class:`repro.tiering.TieredEngine`
with a private dispatch profile (empty when the trace tier is off).  The serving :class:`~repro.serving.engine.Engine`
owns one :class:`SharedHotness`; sessions seed their private profile
from it at open and publish their counts back on close, so one client's
hot loops warm the traces of the next client running the same program.
"""

import threading


class SharedHotness:
    """Thread-safe rollup of per-superblock dispatch profiles.

    ``counts`` maps block entry pc -> cumulative dispatch count;
    ``succ`` maps block entry pc -> last observed successor entry pc.
    Sessions are expected to call :meth:`snapshot` when they open and
    :meth:`absorb` when they close.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}
        self._succ = {}

    def absorb(self, counts, succ):
        """Fold one session's profile into the shared rollup."""
        with self._lock:
            mine = self._counts
            for pc, n in counts.items():
                if n > 0:
                    mine[pc] = mine.get(pc, 0) + n
            self._succ.update(succ)

    def snapshot(self):
        """Return ``(counts, succ)`` copies safe to mutate."""
        with self._lock:
            return dict(self._counts), dict(self._succ)

    def reset(self):
        with self._lock:
            self._counts.clear()
            self._succ.clear()

    def __len__(self):
        with self._lock:
            return len(self._counts)
