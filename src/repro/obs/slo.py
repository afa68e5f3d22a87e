"""Declarative latency/availability SLOs with burn-rate accounting.

An :class:`SloPolicy` is a set of :class:`SloObjective` rows — "99% of
``patched``-path requests finish within 3 000 modeled cycles", "99.5% of
all requests succeed" — and an :class:`SloEngine` evaluates one policy
incrementally over the serving request stream (:meth:`SloEngine.observe`
is fed every :class:`~repro.serving.engine.RequestOutcome`, runs and
calls alike; a call compiles nothing, so its path is None and only
availability objectives score it).

Error budgets and burn rates
----------------------------

An objective with target 99% tolerates a 1% violation fraction: its
*error budget*.  The engine keeps, per objective:

* a cumulative total/violations pair (budget accounting over the whole
  observation run), and
* two sliding request-count windows — **fast** (default 64 requests) and
  **slow** (default 512) — whose violation fractions, divided by the
  budget fraction, are the *burn rates*.  Burn 1.0 means "spending the
  budget exactly as fast as the objective allows"; burn 10 means the
  budget dies in a tenth of the accounting horizon.

Windows are request counts, not wall time, so the whole plane is
deterministic — the property every serving test in this repo leans on.
The alert ladder, mirroring the classic multi-window burn-rate rules:

``ok``
    neither window is burning abnormally.
``warn``
    the slow window's burn rate crossed ``slow_burn`` (default 2.0) —
    a sustained leak that will exhaust the budget well before the
    horizon.
``page``
    the fast window's burn rate crossed ``fast_burn`` (default 10.0)
    with at least ``min_samples`` observations — an acute storm.
``exhausted``
    the cumulative violation fraction has consumed the whole budget.

Protective degradation
----------------------

When a policy is built with ``protective=True`` the serving session
consults :meth:`SloEngine.protective_rung` *before* each request: an
availability objective at ``page`` floors the degradation ladder at rung
1 (templates bypassed — the conservative cold build), and an exhausted
availability budget floors it at rung 2 (the one-pass VCODE back end).
The point is to degrade while budget remains rather than after traps
storm; latency objectives never trigger protection (degrading raises
latency).  Default policies are monitor-only (``protective=False``).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.telemetry.metrics import COMPILE_PATHS

#: Alert severities, mildest first.
ALERT_LEVELS = ("ok", "warn", "page", "exhausted")

#: Ladder floors applied by protective policies (see module docstring).
PAGE_RUNG = 1
EXHAUSTED_RUNG = 2


class SloObjective:
    """One declarative objective row.

    ``kind``
        ``"latency"`` — a request is violating when its latency exceeds
        ``threshold`` (in ``unit``: ``"cycles"`` for modeled end-to-end
        cycles, ``"host_us"`` for host microseconds); only successful
        requests are scored (failures belong to availability).
        ``"availability"`` — a request is violating when it failed.
    ``path``
        restrict a latency objective to one serving path (``hit`` /
        ``patched`` / ``cold`` / ``degrade`` / ...); ``None`` scores
        every request.
    ``target``
        the promised good fraction (0 < target < 1); the error budget is
        ``1 - target``.
    """

    __slots__ = ("name", "kind", "path", "target", "threshold", "unit",
                 "fast_window", "slow_window", "fast_burn", "slow_burn",
                 "min_samples")

    def __init__(self, name: str, kind: str = "latency", path=None,
                 target: float = 0.99, threshold: int | None = None,
                 unit: str = "cycles", fast_window: int = 64,
                 slow_window: int = 512, fast_burn: float = 10.0,
                 slow_burn: float = 2.0, min_samples: int = 16):
        if kind not in ("latency", "availability"):
            raise ValueError(f"unknown objective kind {kind!r}")
        if kind == "latency" and threshold is None:
            raise ValueError("latency objectives need a threshold")
        if unit not in ("cycles", "host_us"):
            raise ValueError(f"unknown latency unit {unit!r}")
        if not 0 < target < 1:
            raise ValueError("target must be a fraction in (0, 1)")
        if path is not None and path not in COMPILE_PATHS:
            raise ValueError(f"unknown serving path {path!r}")
        if fast_window < 1 or slow_window < fast_window:
            raise ValueError("windows must satisfy 1 <= fast <= slow")
        self.name = name
        self.kind = kind
        self.path = path
        self.target = target
        self.threshold = threshold
        self.unit = unit
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.fast_burn = fast_burn
        self.slow_burn = slow_burn
        self.min_samples = min_samples

    @property
    def budget(self) -> float:
        """The tolerated violation fraction."""
        return 1.0 - self.target

    def to_dict(self) -> dict:
        return {
            "name": self.name, "kind": self.kind, "path": self.path,
            "target": self.target, "threshold": self.threshold,
            "unit": self.unit, "fast_window": self.fast_window,
            "slow_window": self.slow_window, "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
        }

    def __repr__(self) -> str:
        scope = self.path or "all"
        if self.kind == "latency":
            return (f"<SloObjective {self.name}: {self.target:.2%} of "
                    f"{scope} <= {self.threshold} {self.unit}>")
        return f"<SloObjective {self.name}: {self.target:.2%} {scope} ok>"


class SloPolicy:
    """A named, ordered set of objectives plus the protection switch."""

    def __init__(self, objectives, name: str = "slo",
                 protective: bool = False):
        self.name = name
        self.objectives = tuple(objectives)
        self.protective = protective
        seen = set()
        for obj in self.objectives:
            if obj.name in seen:
                raise ValueError(f"duplicate objective name {obj.name!r}")
            seen.add(obj.name)

    def __iter__(self):
        return iter(self.objectives)

    def __repr__(self) -> str:
        return (f"<SloPolicy {self.name} {len(self.objectives)} objectives"
                f"{' protective' if self.protective else ''}>")


def default_policy() -> SloPolicy:
    """The out-of-the-box serving policy: one modeled-cycle latency
    objective on end-to-end (compile + execute) request cycles for each
    path a served request can take, plus one availability objective.
    A degraded compile is a cold build on a lower rung, so ``degrade``
    shares the cold threshold.  Monitor-only: build an
    ``SloPolicy(..., protective=True)`` to let it floor the ladder."""
    return SloPolicy([
        SloObjective("hit-latency", path="hit", threshold=3_000),
        SloObjective("patched-latency", path="patched", threshold=10_000),
        SloObjective("cold-latency", path="cold", threshold=300_000),
        SloObjective("degrade-latency", path="degrade", threshold=300_000),
        SloObjective("availability", kind="availability", target=0.995),
    ], name="default")


class ObjectiveStatus:
    """The evaluated state of one objective (a plain value object)."""

    __slots__ = ("objective", "total", "violations", "burn_fast",
                 "burn_slow", "fast_n", "slow_n", "alert",
                 "budget_remaining")

    def __init__(self, objective, total, violations, burn_fast, burn_slow,
                 fast_n, slow_n, alert, budget_remaining):
        self.objective = objective
        self.total = total
        self.violations = violations
        self.burn_fast = burn_fast
        self.burn_slow = burn_slow
        self.fast_n = fast_n
        self.slow_n = slow_n
        self.alert = alert
        self.budget_remaining = budget_remaining

    @property
    def ok(self) -> bool:
        """Inside the objective: not paging and budget not exhausted
        (a ``warn`` is a trend signal, not a breach)."""
        return self.alert in ("ok", "warn")

    def to_dict(self) -> dict:
        return {
            "objective": self.objective.to_dict(),
            "total": self.total,
            "violations": self.violations,
            "burn_fast": round(self.burn_fast, 4),
            "burn_slow": round(self.burn_slow, 4),
            "alert": self.alert,
            "budget_remaining": round(self.budget_remaining, 4),
            "ok": self.ok,
        }

    def __repr__(self) -> str:
        return (f"<ObjectiveStatus {self.objective.name} {self.alert} "
                f"viol={self.violations}/{self.total} "
                f"burn={self.burn_fast:.1f}/{self.burn_slow:.1f}>")


class SloStatus:
    """The whole policy's evaluated state; what ``report_slo()``, the
    ``/slo`` endpoint, and the serving benchmark's verdict consume."""

    __slots__ = ("policy", "statuses", "observed")

    def __init__(self, policy, statuses, observed: int):
        self.policy = policy
        self.statuses = tuple(statuses)
        self.observed = observed

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.statuses)

    @property
    def exhausted(self):
        """Objective names whose error budget is fully spent."""
        return tuple(s.objective.name for s in self.statuses
                     if s.alert == "exhausted")

    def worst(self) -> str:
        worst = "ok"
        for s in self.statuses:
            if ALERT_LEVELS.index(s.alert) > ALERT_LEVELS.index(worst):
                worst = s.alert
        return worst

    def to_dict(self) -> dict:
        return {
            "policy": self.policy.name,
            "ok": self.ok,
            "worst_alert": self.worst(),
            "observed": self.observed,
            "exhausted": list(self.exhausted),
            "objectives": [s.to_dict() for s in self.statuses],
        }

    def __repr__(self) -> str:
        return (f"<SloStatus {self.policy.name} {self.worst()} "
                f"observed={self.observed}>")


class _ObjectiveState:
    """Streaming counters for one objective (windows + cumulative)."""

    __slots__ = ("objective", "total", "violations", "fast", "slow",
                 "fast_bad", "slow_bad")

    def __init__(self, objective: SloObjective):
        self.objective = objective
        self.total = 0
        self.violations = 0
        self.fast = deque(maxlen=objective.fast_window)
        self.slow = deque(maxlen=objective.slow_window)
        self.fast_bad = 0
        self.slow_bad = 0

    def push(self, bad: bool) -> None:
        self.total += 1
        self.violations += int(bad)
        if len(self.fast) == self.fast.maxlen and self.fast[0]:
            self.fast_bad -= 1
        if len(self.slow) == self.slow.maxlen and self.slow[0]:
            self.slow_bad -= 1
        self.fast.append(bad)
        self.slow.append(bad)
        self.fast_bad += int(bad)
        self.slow_bad += int(bad)

    def status(self) -> ObjectiveStatus:
        obj = self.objective
        budget = obj.budget
        fast_n, slow_n = len(self.fast), len(self.slow)
        burn_fast = (self.fast_bad / fast_n / budget) if fast_n else 0.0
        burn_slow = (self.slow_bad / slow_n / budget) if slow_n else 0.0
        fraction = self.violations / self.total if self.total else 0.0
        remaining = 1.0 - (fraction / budget) if budget else 0.0
        alert = "ok"
        if (self.total >= obj.min_samples and remaining <= 0.0
                and self.violations):
            alert = "exhausted"
        elif fast_n >= obj.min_samples and burn_fast >= obj.fast_burn:
            alert = "page"
        elif slow_n >= obj.min_samples and burn_slow >= obj.slow_burn:
            alert = "warn"
        return ObjectiveStatus(obj, self.total, self.violations,
                               burn_fast, burn_slow, fast_n, slow_n,
                               alert, remaining)

    def reset(self) -> None:
        self.total = self.violations = 0
        self.fast.clear()
        self.slow.clear()
        self.fast_bad = self.slow_bad = 0


class SloEngine:
    """Incremental policy evaluation over the request stream.

    One instance typically hangs off a serving
    :class:`~repro.serving.engine.Engine` and is fed by every session
    (thread-safe; one small lock, a few deque operations per request).
    """

    def __init__(self, policy: SloPolicy):
        self.policy = policy
        self._lock = threading.Lock()
        self._states = [_ObjectiveState(obj) for obj in policy]
        self.observed = 0
        from repro.obs import _track_for_reset
        _track_for_reset(self)

    def observe(self, path, cycles, ok: bool,
                host_us: float | None = None) -> None:
        """Score one finished request against every matching objective."""
        with self._lock:
            self.observed += 1
            for state in self._states:
                obj = state.objective
                if obj.kind == "availability":
                    state.push(not ok)
                    continue
                # Latency: score successes on the objective's path only —
                # a failed request has no meaningful latency class.
                if not ok:
                    continue
                if obj.path is not None and path != obj.path:
                    continue
                value = host_us if obj.unit == "host_us" else cycles
                if value is None:
                    continue
                state.push(value > obj.threshold)

    def status(self) -> SloStatus:
        with self._lock:
            return SloStatus(self.policy,
                             [s.status() for s in self._states],
                             self.observed)

    def protective_rung(self) -> int:
        """The degradation-ladder floor the policy asks for *right now*
        (0 = no protection).  Only availability objectives protect."""
        if not self.policy.protective:
            return 0
        rung = 0
        with self._lock:
            for state in self._states:
                if state.objective.kind != "availability":
                    continue
                alert = state.status().alert
                if alert == "exhausted":
                    rung = max(rung, EXHAUSTED_RUNG)
                elif alert == "page":
                    rung = max(rung, PAGE_RUNG)
        return rung

    def reset(self) -> None:
        """Zero every window and cumulative counter in place."""
        with self._lock:
            self.observed = 0
            for state in self._states:
                state.reset()

    def __repr__(self) -> str:
        return (f"<SloEngine {self.policy.name} "
                f"observed={self.observed}>")
