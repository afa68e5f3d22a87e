"""Trace one benchmark app end to end and export the result.

Usage::

    python -m repro.telemetry blur                    # summary to stdout
    python -m repro.telemetry blur -f chrome -o blur_trace.json
    python -m repro.telemetry pow -f jsonl -o pow.jsonl --backend vcode
    python -m repro.telemetry --list

The chrome output loads directly in Perfetto (https://ui.perfetto.dev)
or chrome://tracing; timestamps are modeled cycles (1 "us" = 1 cycle).
"""

from __future__ import annotations

import argparse
import sys


def run_traced(app, backend: str = "icode", regalloc: str = "linear",
               mode: str = "on", codecache: bool = False):
    """Compile + run ``app`` once with one shared tracer covering static
    compile, specification, instantiation, and execution; return the
    tracer (heavyweight imports stay local so ``--help`` is instant)."""
    from repro.core.driver import TccCompiler
    from repro.telemetry.trace import Tracer

    tracer = Tracer(mode)
    prog = TccCompiler(tracer=tracer).compile(app.source,
                                              filename=f"<{app.name}>")
    proc = prog.start(backend=backend, regalloc=regalloc, tracer=tracer,
                      codecache=codecache)
    ctx = app.setup(proc)
    entry = proc.run(app.builder, *app.builder_args(ctx))
    fn = proc.function(entry, app.dyn_signature, app.dyn_returns,
                       name=app.name)
    app.dyn_call(fn, ctx)
    return tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Trace one benchmark app and export spans + metrics.",
    )
    parser.add_argument("app", nargs="?", default="blur",
                        help="benchmark app name (default: blur)")
    parser.add_argument("-f", "--format", default="summary",
                        choices=("summary", "chrome", "jsonl"),
                        help="output format (default: summary)")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--backend", default="icode",
                        choices=("icode", "vcode"))
    parser.add_argument("--regalloc", default="linear",
                        choices=("linear", "color"))
    parser.add_argument("--telemetry", default="on",
                        help='"on" or "sample:N" (default: on)')
    parser.add_argument("--codecache", action="store_true",
                        help="leave the specialization cache enabled")
    parser.add_argument("--list", action="store_true",
                        help="list available app names and exit")
    args = parser.parse_args(argv)

    from repro.apps import ALL_APPS

    if args.list:
        for name, app in sorted(ALL_APPS.items()):
            print(f"{name:8s} {app.description}")
        return 0
    app = ALL_APPS.get(args.app)
    if app is None:
        print(f"unknown app {args.app!r}; choose from "
              f"{', '.join(sorted(ALL_APPS))}", file=sys.stderr)
        return 1

    from repro import report
    from repro.telemetry import export

    report.reset()
    tracer = run_traced(app, backend=args.backend, regalloc=args.regalloc,
                        mode=args.telemetry, codecache=args.codecache)

    if args.format == "summary":
        text = export.summary(tracer)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    elif args.format == "chrome":
        if args.output:
            export.write_chrome_trace(tracer, args.output,
                                      title=f"tcc repro: {app.name}")
            print(f"wrote {len(tracer.spans)} spans to {args.output} "
                  "(load in Perfetto or chrome://tracing)")
        else:
            import json

            json.dump(export.chrome_trace(tracer), sys.stdout, default=repr)
    else:
        if args.output:
            export.write_jsonl(tracer, args.output)
            print(f"wrote {len(tracer.spans)} spans to {args.output}")
        else:
            sys.stdout.write(export.to_jsonl(tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
