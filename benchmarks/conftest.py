"""Shared fixtures for the benchmark suite.

Measurements on the simulated machine are deterministic; the expensive part
is the Python-side compilation, so results are cached per session.
"""

from __future__ import annotations

import time

import pytest

from repro.apps import ALL_APPS
from repro.apps.harness import measure

_CACHE: dict = {}


def cached_measure(name, backend="icode", regalloc="linear",
                   static_opt="lcc", **extra):
    key = (name, backend, regalloc, static_opt, tuple(sorted(extra.items())))
    if key not in _CACHE:
        _CACHE[key] = measure(
            ALL_APPS[name], backend=backend, regalloc=regalloc,
            static_opt=static_opt, **extra,
        )
    return _CACHE[key]


@pytest.fixture(scope="session")
def measured():
    """measured(name, ...) -> MeasureResult with session-level caching."""
    return cached_measure


def interleaved_best(call_a, call_b, repeats=1, rounds=5, warmup=0):
    """Best-of-``rounds`` host seconds for ``repeats`` calls of each
    callable, after ``warmup`` untimed calls of each.  The two alternate
    inside one process so that frequency scaling and scheduler noise hit
    both sides alike."""
    for _ in range(warmup):
        call_a()
        call_b()
    best_a = best_b = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(repeats):
            call_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(repeats):
            call_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b
