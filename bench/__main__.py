"""Command line of the benchmark.

    python -m bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python -m bench trace [--workload NAME] [--seed N] [--seconds S]

With ``--workload`` one workload runs in this process and the last line
of standard output is its JSON result: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it,
every workload runs in its own child process and a summary table
follows.  The exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from bench import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
EXPECTED = BENCH_DIR / "expected.json"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("command", choices=("run", "trace"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: three apps and short episodes "
                             "(the test suite's mode)")
    args = parser.parse_args(argv)
    if args.command == "trace":
        args.trace = 1
    return args


def _drift(workload: str, seed: int, metrics: dict) -> list:
    """Modeled metrics that differ from their pinned value: each one is
    paper-figure drift that the change making it must explain."""
    pins = json.loads(EXPECTED.read_text())[workload]
    pinned = {**pins.get("any", {}), **pins.get(f"seed={seed}", {})}
    out = []
    for name, expected in pinned.items():
        if name in metrics:
            got = metrics[name]["value"]
            if not math.isclose(got, expected, rel_tol=1e-9):
                out.append(f"drift: {workload} {name} = {got!r}, "
                           f"pinned {expected!r}")
    return out


def _run_one(args) -> int:
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC_DIR}", file=sys.stderr)
        return 2
    # Knobs from the environment would change what is measured (and the
    # disk tier would write outside the checkout): measure the defaults.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC_DIR))
    from bench import layers

    result = layers.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.scale,
                        out_dir=BENCH_DIR / "out")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:13s} {name:38s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    if args.scale == "full":
        for line in _drift(args.workload, args.seed, result["metrics"]):
            print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in a child process, as a single-workload run."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, "-m", "bench", "run", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        child = subprocess.run(cmd, cwd=BENCH_DIR.parent, text=True,
                               stdout=subprocess.PIPE, check=False)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except (IndexError, ValueError):
            result = {}
        print("\n".join(lines))
        correct = child.returncode == 0 and result.get("correct")
        print(f"{workload}: attempted {result.get('attempted')}, "
              f"failed {result.get('failed')}, "
              f"{'correct' if correct else 'WRONG OUTPUT OR ERROR'}\n")
        if not correct:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
