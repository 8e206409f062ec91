"""CLI entry point: ``python -m repro.report [name ...]``.

Besides the table/figure experiments, two analysis subcommands ride
here: ``python -m repro.report trend`` walks the benchmark history
records (``benchmarks/history/*.jsonl``) and flags wall-clock
regressions between commits (see :mod:`repro.report.trend`), and
``python -m repro.report postmortem <file>`` renders a service
flight-recorder dump (see :mod:`repro.report.postmortem`).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import EXPERIMENTS, run_captured, run_captured_traced, run_counted


def _diagnostics(counters: dict, wall_phases: dict) -> None:
    """Host-side counters: the unified registry table plus wall-clock.

    Diagnostics only — these describe how fast the *simulator* ran, not the
    simulated-time numbers in the tables, which are independent of caching.
    Every cache (crossing, movement plans, charge memos) reports through
    the one shared :data:`repro.trace.registry.REGISTRY`; ``counters`` and
    ``wall_phases`` are what the experiment runs added, summed over
    worker processes, so ``--jobs N`` reports what the workers counted.
    """
    from ..trace.registry import REGISTRY

    print()
    print(REGISTRY.render_table({
        **REGISTRY.snapshot(),
        **dict.fromkeys(REGISTRY.counter_values(), 0),
        **counters,
    }))
    phases = sorted(wall_phases.items(), key=lambda kv: -kv[1])
    if phases:
        print("wall-clock by phase: "
              + ", ".join(f"{k}={v:.3f}s" for k, v in phases))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["trend"]:
        # The trend analyser has its own flags (threshold, history dir)
        # that the experiment parser would reject — dispatch before it.
        from .trend import main as trend_main
        return trend_main(argv[1:])
    if argv[:1] == ["postmortem"]:
        from .postmortem import main as postmortem_main
        return postmortem_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all), or the "
                             "'trend' subcommand (see --help after it)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print host-side diagnostics (crossing/"
                             "plan cache hit rates, per-phase wall-clock)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="generate experiments in N worker processes "
                             "(0 or negative: one per host core); output "
                             "order and content are unchanged")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record spans while generating and write a "
                             "Chrome trace_event JSON (one experiment span "
                             "per experiment, merged in request order)")
    args = parser.parse_args(argv)
    if args.list:
        for name, mod in EXPERIMENTS.items():
            print(f"{name:10s} {mod.TITLE}")
        return 0
    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; "
              f"choose from {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    from ..parallel import parallel_map

    worker = run_captured_traced if args.trace else run_captured
    results = []
    counters: dict = {}
    wall_phases: dict = {}
    for result, added, wall in parallel_map(
            partial(run_counted, worker), names, jobs=args.jobs,
            chunk_size=1):
        results.append(result)
        for total, part in ((counters, added), (wall_phases, wall)):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
    if args.trace:
        spans: list[dict] = []
        for text, forest in results:
            print(text)
            spans.extend(forest)
        _export_report_trace(args, names, spans)
    else:
        for text in results:
            print(text)
    if args.verbose:
        _diagnostics(counters, wall_phases)
    return 0


def _export_report_trace(args, names: list[str], spans: list[dict]) -> None:
    from ..trace.export import write_chrome_trace
    from ..trace.provenance import provenance_manifest
    from ..trace.registry import registry_snapshot

    totals = {
        s["name"]: (s.get("sim") or {}).get("time") for s in spans
    }
    provenance = provenance_manifest(config={
        "mode": "report", "experiments": names, "jobs": args.jobs,
    })
    path = write_chrome_trace(args.trace, spans, provenance=provenance,
                              totals=totals, counters=registry_snapshot())
    print(f"trace written: {path} ({len(spans)} experiment spans); "
          f"summarize with: python -m repro.trace summarize {path}")


if __name__ == "__main__":
    raise SystemExit(main())
