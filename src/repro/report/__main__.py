"""Regenerate the paper's tables and figures from the reproduction.

Usage::

    python -m repro.report table1     # Table 1: codegen cycles/instruction
    python -m repro.report fig4       # Figure 4: static/dynamic run ratios
    python -m repro.report fig5       # Figure 5: cross-over points
    python -m repro.report fig6       # Figure 6: VCODE cost breakdown
    python -m repro.report fig7       # Figure 7: ICODE breakdown, LS vs GC
    python -m repro.report blur       # section 6.2 xv Blur case study
    python -m repro.report usedops    # section 5.2 pruned-emitter sizes
    python -m repro.report trace      # one app traced end to end (below)
    python -m repro.report hot        # hottest traces/superblocks (tiered)
    python -m repro.report cache      # code-cache stats (memory + disk)
    python -m repro.report analysis   # guard elision + factcheck stats
    python -m repro.report all
    python -m repro.report scrape [--demo N]
    python -m repro.report serve [--host H] [--port P] [--demo N]

``trace [APP] [-f summary|chrome|jsonl] [-o PATH] [--backend B]
[--regalloc R] [--telemetry MODE] [--codecache] [--list]`` runs one app
(default blur) under one tracer over static compile, spec, compile and
exec.  Chrome output loads in Perfetto (https://ui.perfetto.dev) or
chrome://tracing; timestamps are modeled cycles (1 "us" = 1 cycle)::

    python -m repro.report trace blur -f chrome -o blur_trace.json
    python -m repro.report trace pow -f jsonl -o pow.jsonl --backend vcode

``scrape`` prints one OpenMetrics exposition of the process-wide
metrics registry and exits.  ``serve`` binds the stdlib status endpoint
(``/metrics`` ``/healthz`` ``/slo`` ``/blackbox``, default
127.0.0.1:9464) and blocks until interrupted.  ``--demo N`` first serves
N requests of the deterministic heavy-tailed workload
(:mod:`repro.obs.workload`) through a fresh serving engine, so there are
hit/patched/cold latency histograms, SLO state and a flight-recorder
ring to expose.  SLO state lives in a serving engine, so out of process
it is read from ``serve --demo N``'s ``/slo``; in process,
``report_slo()`` renders the attached engine's table.

Numbers are deterministic (simulated machine + modeled codegen cycles).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import analysis, persist, report
from repro.apps import ALL_APPS, FIGURE4_APPS, blur_app, harness, table1
from repro.core import driver
from repro.obs import openmetrics, server
from repro.telemetry import export
from repro.telemetry.metrics import REGISTRY

SERIES = [
    ("icode", "lcc"),
    ("icode", "gcc"),
    ("vcode", "lcc"),
    ("vcode", "gcc"),
]


def _series_results(app_names):
    out = {}
    for name in app_names:
        app = ALL_APPS[name]
        row = {}
        for backend, static_opt in SERIES:
            row[f"{backend}-{static_opt}"] = harness.measure(
                app, backend=backend, static_opt=static_opt
            )
        out[name] = row
    return out


def report_table1() -> str:
    lines = [
        "Table 1: code generation overhead, cycles per generated instruction",
        "(paper: VCODE 96.8-260.1, ICODE 1019.7-1261.9)",
        "",
        f"{'workload':40s} {'VCODE':>8s} {'ICODE':>9s} {'ratio':>6s}",
    ]
    for row, values in table1.table1().items():
        ratio = values["icode"] / values["vcode"]
        lines.append(
            f"{row:40s} {values['vcode']:8.1f} {values['icode']:9.1f} "
            f"{ratio:6.1f}"
        )
    return "\n".join(lines)


def report_fig4(results=None) -> str:
    results = results or _series_results(FIGURE4_APPS)
    names = list(results)
    lines = [
        "Figure 4: run-time ratio (static time / dynamic time); >1 means",
        "dynamic code generation produced faster code",
        "",
        f"{'benchmark':8s} " + " ".join(f"{b}-{s:>3s}".rjust(10)
                                        for b, s in SERIES),
    ]
    for name in names:
        row = results[name]
        cells = " ".join(
            f"{row[f'{b}-{s}'].speedup:10.2f}" for b, s in SERIES
        )
        lines.append(f"{name:8s} {cells}")
    return "\n".join(lines)


def report_fig5(results=None) -> str:
    results = results or _series_results(FIGURE4_APPS)
    lines = [
        "Figure 5: cross-over point (runs needed to amortize dynamic",
        "compilation); '-' means dynamic code never pays for itself",
        "",
        f"{'benchmark':8s} " + " ".join(f"{b}-{s:>3s}".rjust(10)
                                        for b, s in SERIES),
    ]
    for name, row in results.items():
        cells = []
        for b, s in SERIES:
            x = row[f"{b}-{s}"].crossover
            cells.append(f"{'-' if x is None else x:>10}")
        lines.append(f"{name:8s} " + " ".join(cells))
    return "\n".join(lines)


def report_fig6() -> str:
    lines = [
        "Figure 6: VCODE dynamic compilation cost breakdown",
        "(cycles per generated instruction; paper band: 100-500,",
        " emission dominant, closure cost negligible)",
        "",
        f"{'benchmark':8s} {'total':>7s} {'closure':>8s} {'emit':>7s} "
        f"{'link':>6s}",
    ]
    for name in FIGURE4_APPS:
        r = harness.measure(ALL_APPS[name], backend="vcode")
        pb = r.phase_breakdown
        lines.append(
            f"{name:8s} {r.cycles_per_instruction:7.1f} "
            f"{pb.get('closure', 0):8.1f} {pb.get('emit', 0):7.1f} "
            f"{pb.get('link', 0):6.1f}"
        )
    return "\n".join(lines)


def report_fig7() -> str:
    lines = [
        "Figure 7: ICODE cost breakdown, linear scan (LS) vs graph",
        "coloring (GC) register allocation (cycles per generated",
        "instruction; paper band: 1000-2500, 70-80% in allocation work)",
        "",
        f"{'benchmark':8s} {'alloc':>5s} {'total':>8s} {'closure':>8s} "
        f"{'ir':>7s} {'fg':>6s} {'live':>7s} {'intrv':>7s} {'alloc':>8s} "
        f"{'xlate':>7s}",
    ]
    for name in FIGURE4_APPS:
        for regalloc, tag in (("linear", "LS"), ("color", "GC")):
            r = harness.measure(ALL_APPS[name], backend="icode",
                                regalloc=regalloc)
            pb = r.phase_breakdown
            lines.append(
                f"{name:8s} {tag:>5s} {r.cycles_per_instruction:8.1f} "
                f"{pb.get('closure', 0):8.1f} {pb.get('ir', 0):7.1f} "
                f"{pb.get('flowgraph', 0):6.1f} {pb.get('liveness', 0):7.1f} "
                f"{pb.get('intervals', 0):7.1f} {pb.get('regalloc', 0):8.1f} "
                f"{pb.get('translate', 0):7.1f}"
            )
    return "\n".join(lines)


def report_blur() -> str:
    r_lcc = harness.measure(ALL_APPS["blur"], backend="icode",
                            static_opt="lcc")
    r_gcc = harness.measure(ALL_APPS["blur"], backend="icode",
                            static_opt="gcc")
    lines = [
        "xv Blur case study (section 6.2); paper: dynamic 1.08s vs lcc",
        "1.96s (1.8x) and gcc 1.04s (~1x), codegen 0.01s",
        "",
        f"image {blur_app.WIDTH}x{blur_app.HEIGHT}, kernel "
        f"{blur_app.KSIZE}x{blur_app.KSIZE}",
        f"dynamic (ICODE):       {r_lcc.dynamic_cycles:>12d} cycles",
        f"static lcc-level:      {r_lcc.static_cycles:>12d} cycles "
        f"(ratio {r_lcc.speedup:.2f})",
        f"static gcc-level:      {r_gcc.static_cycles:>12d} cycles "
        f"(ratio {r_gcc.speedup:.2f})",
        f"dynamic compile cost:  {r_lcc.codegen_cycles:>12d} cycles "
        f"({100 * r_lcc.codegen_cycles / max(r_lcc.dynamic_cycles, 1):.1f}% "
        "of one run)",
    ]
    return "\n".join(lines)


def report_usedops() -> str:
    tcc = driver.TccCompiler()
    lines = [
        "Link-time ICODE-emitter pruning (section 5.2); paper: 'cuts the",
        "size of the ICODE library by up to an order of magnitude'",
        "",
        f"{'program':8s} {'used ops':>9s} {'full size':>10s} "
        f"{'pruned':>8s} {'factor':>7s}",
    ]
    for name, app in ALL_APPS.items():
        used = analysis.collect_used_ops(tcc.compile(app.source))
        lines.append(
            f"{name:8s} {used.used_count:9d} {used.full_size:10d} "
            f"{used.pruned_size:8d} {used.reduction_factor:6.1f}x"
        )
    return "\n".join(lines)


def _trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report trace",
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
    return parser


def report_trace(argv=()) -> str:
    """One app traced end to end, rendered as ``-f`` asks; with ``-o``
    the rendering goes to that file and a one-line note comes back.
    Raises ValueError for an unknown app."""
    args = _trace_parser().parse_args(list(argv))
    if args.list:
        return "\n".join(f"{name:8s} {app.description}"
                         for name, app in sorted(ALL_APPS.items()))
    app = ALL_APPS.get(args.app)
    if app is None:
        raise ValueError(f"unknown app {args.app!r}; choose from "
                         f"{', '.join(sorted(ALL_APPS))}")
    report.reset()
    tracer = harness.run_traced(app, backend=args.backend,
                                regalloc=args.regalloc,
                                telemetry=args.telemetry,
                                codecache=args.codecache)
    if args.format == "chrome":
        text = json.dumps(export.chrome_trace(tracer,
                                              f"tcc repro: {app.name}"),
                          indent=1, default=repr)
    elif args.format == "jsonl":
        text = export.to_jsonl(tracer).rstrip("\n")
    else:
        text = export.summary(tracer)
    if args.output is None:
        return text
    with open(args.output, "w") as fh:
        fh.write(text + "\n")
    return f"wrote {len(tracer.spans)} spans to {args.output}"


def report_hot(top: int = 10) -> str:
    report.reset()
    result = harness.measure(ALL_APPS["blur"], backend="icode",
                             engine="tiered")
    rows = result.hot_profile or []
    lines = [
        "Hottest execution units (tiered engine, one blur run): traces",
        "formed by profile-guided promotion plus remaining superblocks,",
        "ranked by dispatch count and cumulative modeled cycles",
        "",
        f"{'rank':>4s} {'pc':>6s} {'kind':6s} {'dispatches':>10s} "
        f"{'blocks':>6s} {'instrs':>6s} {'cycles':>12s}",
    ]
    for rank, row in enumerate(rows[:top], start=1):
        lines.append(
            f"{rank:4d} {row['pc']:6d} {row['kind']:6s} "
            f"{row['dispatches']:10d} {row['blocks']:6d} "
            f"{row['instructions']:6d} {row['cycles']:12d}"
        )
    if not rows:
        lines.append("(no units dispatched)")
    stats = report.tiering_stats()
    lines.append("")
    lines.append(
        f"promotions {stats['promotions']}, trace dispatches "
        f"{stats['trace_dispatches']}, deopts {stats['deopts']}"
    )
    return "\n".join(lines)


def report_cache() -> str:
    """Code cache stats: the in-memory tiers plus the persistent disk
    tier (entries/bytes/hit ratios/evictions).  Reads live counters
    only — safe to run inside a serving process or after the fact."""
    stats = report.cache_stats()
    reuse = stats["hits"] + stats["patched"]
    probes = reuse + stats["misses"]
    mem_ratio = reuse / probes if probes else 0.0
    poisoned = REGISTRY.counter("cache.poisoned_evictions").value
    invalidated = REGISTRY.counter("cache.invalidated").value
    disk = {key: REGISTRY.counter(f"cache.disk.{key}").value
            for key in ("hits", "misses", "loads", "evictions", "rejects")}
    disk_probes = disk["hits"] + disk["misses"]
    disk_ratio = disk["hits"] / disk_probes if disk_probes else 0.0
    lines = [
        "Code cache: in-memory tiers (Tier-1 memo + Tier-2 templates)",
        "plus the persistent disk tier (repro.persist)",
        "",
        f"{'tier':10s} {'hits':>8s} {'misses':>8s} {'evictions':>9s} "
        f"{'hit ratio':>9s}",
        f"{'in-memory':10s} {reuse:8d} {stats['misses']:8d} "
        f"{invalidated + poisoned:9d} {mem_ratio:9.2f}",
        f"{'disk':10s} {disk['hits']:8d} {disk['misses']:8d} "
        f"{disk['evictions']:9d} {disk_ratio:9.2f}",
        "",
        f"in-memory: {stats['hits']} memo hits, {stats['patched']} template "
        f"clones ({stats['patched_bytes']} bytes patched), "
        f"{stats['cycles_saved']} modeled cycles saved, "
        f"{poisoned} poisoned evictions",
        f"disk: {disk['loads']} templates deserialized, "
        f"{disk['rejects']} rejected (corrupt/tampered)",
    ]
    hist = REGISTRY.get("cache.disk.load_us")
    if hist is not None and hist.count:
        lines.append(
            f"disk load latency: p50 {hist.percentile(0.5):.0f} us, "
            f"p99 {hist.percentile(0.99):.0f} us over {hist.count} loads"
        )
    root = os.environ.get("REPRO_CODECACHE_DIR")
    if root:
        entries, total = persist.scan_dir(root)
        lines.append(f"disk dir {root}: {entries} entries, {total} bytes")
    return "\n".join(lines)


def report_analysis() -> str:
    """Static-analysis stats: checks elided per fact kind, branches
    folded by dataflow verdicts, guards discharged at template-store
    time, clone-time fact demotions, and the factcheck layer's
    pass/fail totals.  Reads live counters only."""
    stats = report.analysis_stats()
    elided = {kind: stats.get(f"elided_{kind}", 0)
              for kind in ("frame", "dup", "const")}
    verify = report.verify_stats()
    fact_diags = verify["diagnostics"].get("factcheck", 0)
    lines = [
        "Static analysis: proof-carrying guard elision "
        "(repro.analysis.dataflow)",
        "",
        f"{'fact kind':10s} {'checks elided':>13s}",
        f"{'frame':10s} {elided['frame']:13d}",
        f"{'dup':10s} {elided['dup']:13d}",
        f"{'const':10s} {elided['const']:13d}",
        f"{'total':10s} {sum(elided.values()):13d}",
        "",
        f"facts exported to factcheck: {stats.get('facts_exported', 0)}",
        f"branches folded by interval verdicts: "
        f"{stats.get('branches_folded', 0)}",
        f"template guards discharged at store: "
        f"{stats.get('guards_discharged', 0)}",
        f"facts demoted on clone revalidation: "
        f"{stats.get('facts_demoted', 0)}",
        "",
        f"factcheck: {verify['checks_run']} verifier checks run "
        f"(all layers), {fact_diags} factcheck diagnostics",
    ]
    if not any(stats.values()):
        lines.append("(analysis off — set REPRO_ANALYSIS=1 or "
                     "options={'analysis': 'on'})")
    return "\n".join(lines)


def report_slo() -> str:
    """The attached engine's live SLO status from
    :func:`repro.obs.server.slo_status`, the same view the ``/slo``
    endpoint serves, as text.  In-process only: a fresh process has no
    engine attached."""
    status = server.slo_status()
    if status is None:
        return "Serving SLOs: no serving engine with an SLO policy is attached"
    lines = [
        "Serving SLOs: error budgets and multi-window burn rates",
        f"policy: {status.policy.name}",
        "",
        f"verdict: {'OK' if status.ok else 'BREACHED'} "
        f"(worst alert: {status.worst()}, observed {status.observed})",
        "",
        f"{'objective':18s} {'alert':>9s} {'viol':>6s} {'total':>7s} "
        f"{'burn fast':>9s} {'burn slow':>9s} {'budget left':>11s}",
    ]
    for s in status.statuses:
        lines.append(
            f"{s.objective.name:18s} {s.alert:>9s} {s.violations:6d} "
            f"{s.total:7d} {s.burn_fast:9.2f} {s.burn_slow:9.2f} "
            f"{s.budget_remaining:10.1%}"
        )
    if status.exhausted:
        lines.append("")
        lines.append("(!) budget exhausted: " + ", ".join(status.exhausted))
    return "\n".join(lines)


def _plane_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.report {command}",
        description="serving observability: scrape or serve the metrics "
                    "registry, SLO status, and flight-recorder bundles")
    if command == "serve":
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--port", type=int, default=9464)
    parser.add_argument("--demo", type=int, default=0, metavar="N",
                        help="serve N demo requests first")
    return parser


def _demo(n: int):
    """Serve ``n`` demo requests through a fresh engine and return it
    (it stays attached to the endpoint while the caller holds it)."""
    from repro.obs import workload
    from repro.serving.engine import Engine

    engine = Engine(workload.PROGRAM)
    with engine.session("demo") as session:
        workload.replay(session, workload.generate(n))
    return engine


def scrape(argv=()) -> str:
    """One OpenMetrics exposition of the registry (after ``--demo N``)."""
    args = _plane_parser("scrape").parse_args(list(argv))
    if args.demo:
        _demo(args.demo)
    return openmetrics.render()


def serve(argv=()) -> int:
    """Run the HTTP status endpoint until interrupted."""
    args = _plane_parser("serve").parse_args(list(argv))
    # Attachment is a weak reference: this local keeps the demo engine
    # behind /slo and /blackbox alive for as long as the server runs.
    engine = _demo(args.demo) if args.demo else None
    endpoint = server.ObsServer(args.host, args.port)
    print(f"serving on {endpoint.url} "
          f"(/metrics /healthz /slo /blackbox); Ctrl-C stops",
          file=sys.stderr)
    if engine is not None:
        print(f"demo engine attached: {args.demo} requests served",
              file=sys.stderr)
    try:
        endpoint.serve_forever()
    except KeyboardInterrupt:
        endpoint.stop()
    return 0


def report_paper_figures() -> str:
    """The paper's tables and figures, as ``all`` prints them first:
    Table 1, Figures 4-7, blur and section 5.2.  ``RESULTS.txt`` holds
    exactly this text."""
    shared = _series_results(FIGURE4_APPS)
    return "\n\n".join((
        report_table1(), report_fig4(shared), report_fig5(shared),
        report_fig6(), report_fig7(), report_blur(), report_usedops(),
    ))


REPORTS = {
    "table1": report_table1,
    "fig4": report_fig4,
    "fig5": report_fig5,
    "fig6": report_fig6,
    "fig7": report_fig7,
    "blur": report_blur,
    "usedops": report_usedops,
    "trace": report_trace,
    "hot": report_hot,
    "cache": report_cache,
    "analysis": report_analysis,
}


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if argv and argv[0] == "scrape":
        sys.stdout.write(scrape(argv[1:]))
        return 0
    if argv and argv[0] == "serve":
        return serve(argv[1:])
    if not argv or argv[0] not in set(REPORTS) | {"all"}:
        print(__doc__)
        return 1
    if argv[0] == "all":
        print("\n\n".join((report_paper_figures(), report_trace(),
                             report_hot(), report_cache())))
        return 0
    if argv[0] == "trace":
        try:
            print(report_trace(argv[1:]))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        return 0
    print(REPORTS[argv[0]]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
