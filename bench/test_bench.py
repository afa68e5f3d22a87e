"""Smoke tests of the benchmark itself: ``python -m pytest bench -q``.

Each workload runs in ``--scale smoke`` mode as a child process, exactly
as ``python -m bench run --workload ...`` does: twice untraced, once
traced.  The checks: every metric declared in ``BENCHMARK.json`` is
emitted with its unit, nothing failed, modeled metrics repeat bit for
bit, and every traced wrapper saw at least one call on the workload
meant to exercise it (a wrapper patched onto a stale import site would
see none).
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench import WORKLOADS
from bench.layers import BOUNDARIES

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics on the modeled clock: they must repeat exactly.
MODELED = ("op_cycles",)


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int, attempt: int) -> dict:
    cmd = [sys.executable, "-m", "bench", "run", "--workload", workload,
           "--seed", "1234", "--seconds", "0.4", "--trace", str(trace),
           "--scale", "smoke"]
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=120, check=False)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def _assert_declared(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_declared_and_correct(workload):
    result = _run(workload, 0, 1)
    _assert_declared(result, DECLARED["end_to_end"])
    assert result["correct"] and result["attempted"] > 0
    assert result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modeled_metrics_repeat_exactly(workload):
    first, second = _run(workload, 0, 1), _run(workload, 0, 2)
    for name in MODELED:
        assert first["metrics"][name] == second["metrics"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_its_layers(workload):
    result = _run(workload, 1, 1)
    _assert_declared(result, DECLARED["per_layer"])
    assert result["correct"] and result["failed"] == 0
    trace = json.loads(
        (ROOT / "bench" / "out" / f"trace-{workload}.json").read_text())
    assert trace["traceEvents"]
    calls = trace["otherData"]["wrapper_calls"]
    missed = [f"{module}:{attr}" for module, attr, _, exercised_by
              in BOUNDARIES if exercised_by == workload
              and not calls.get(f"{module}:{attr}")]
    assert not missed, f"wrappers never called on {workload}: {missed}"
