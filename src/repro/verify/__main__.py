"""``python -m repro.verify`` — fuzz campaign, corpus replay, golden update.

Modes (positional, or the equivalent legacy flags):

* default               — differential-oracle campaign (50 seeded instances
                          per algorithm) followed by the golden Theta-scaling
                          check; nonzero exit on any divergence or drift.
* ``campaign``          — campaign only (legacy: ``--oracle``).
* ``scaling``           — scaling check only (legacy: ``--scaling``).
* ``incremental``       — byte-parity fuzzing of the incremental update
                          engine against cold serial recomputes.
* ``replay FILE..``     — re-run serialized corpus instances, no RNG
                          (legacy: ``--replay FILE..``).
* ``--update-golden``   — re-measure and re-pin ``golden_scaling.json``
                          (combine with ``--targets`` for a subset).

``campaign --trace PATH`` additionally records a per-instance span forest
(inside each worker) and exports one Chrome ``trace_event`` JSON whose
per-algorithm simulated totals equal the campaign's reported totals
exactly; inspect it with ``python -m repro.trace summarize PATH`` or load
it in Perfetto.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..ops import EXECUTORS, set_executor
from .incremental import replay_update, update_campaign
from .oracle import ALGORITHMS, DEFAULT_CORPUS_DIR, campaign, replay
from .scaling import DEFAULT_GOLDEN_PATH, SCALING_TARGETS, check_scaling, update_golden


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential oracle + Theta-scaling conformance harness.",
    )
    p.add_argument("mode", nargs="?",
                   choices=["campaign", "scaling", "incremental", "replay"],
                   help="what to run (default: campaign then scaling)")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="corpus files for the replay mode")
    p.add_argument("--oracle", action="store_true",
                   help="run only the differential-oracle campaign")
    p.add_argument("--scaling", dest="scaling_only", action="store_true",
                   help="run only the golden scaling check")
    p.add_argument("--replay", nargs="+", metavar="FILE",
                   help="re-run serialized corpus instance(s) and exit")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record spans during the campaign and write a "
                        "Chrome trace_event JSON (Perfetto-loadable; "
                        "summarize with python -m repro.trace summarize)")
    p.add_argument("--update-golden", action="store_true",
                   help="re-measure and rewrite the golden scaling file")
    p.add_argument("--instances", type=int, default=50,
                   help="seeded instances per algorithm (default: 50)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="campaign worker processes (0 or negative: one per "
                        "host core; default: 1 = serial). Results are "
                        "identical for every value — only wall-clock moves")
    p.add_argument("--seed0", type=int, default=0,
                   help="first seed of the campaign (default: 0)")
    p.add_argument("--algorithms", nargs="+", metavar="NAME",
                   choices=sorted(ALGORITHMS),
                   help="restrict the campaign to these algorithms")
    p.add_argument("--targets", nargs="+", metavar="NAME",
                   choices=sorted(SCALING_TARGETS),
                   help="restrict the scaling check/update to these targets")
    p.add_argument("--tol", type=float, default=None,
                   help="override the output comparison tolerance")
    p.add_argument("--corpus-dir", default=str(DEFAULT_CORPUS_DIR),
                   help="where divergent instances are serialized")
    p.add_argument("--no-corpus", action="store_true",
                   help="do not serialize divergent instances")
    p.add_argument("--golden", default=str(DEFAULT_GOLDEN_PATH),
                   help="path of the golden scaling JSON")
    p.add_argument("--executor", metavar="{" + ",".join(EXECUTORS) + "}",
                   default=None,
                   help="data-movement executor for the whole run "
                        "(default: the REPRO_EXECUTOR env var, else "
                        "vectorized). Outputs and simulated time are "
                        "identical for every choice — only wall-clock "
                        "moves")
    return p


def _run_replay(args) -> int:
    import json as _json

    rc = 0
    for path in args.replay:
        if _json.loads(open(path).read()).get("algorithm") == "incremental":
            report = replay_update(path)
            if report.ok:
                print(f"{path}: OK (incremental/{report.kind} "
                      f"seed={report.seed})")
            else:
                rc = 1
                print(f"{path}: DIVERGENT (incremental/{report.kind} "
                      f"seed={report.seed} step={report.failed_step})")
                print(f"  {report.mismatch}")
            continue
        kwargs = {} if args.tol is None else {"tol": args.tol}
        report = replay(path, **kwargs)
        if report.ok:
            print(f"{path}: OK ({report.algorithm}/{report.kind} "
                  f"seed={report.seed})")
        else:
            rc = 1
            print(f"{path}: DIVERGENT ({report.algorithm}/{report.kind} "
                  f"seed={report.seed})")
            for d in report.divergences:
                where = (f"backend={d.backend} fast_combine={d.fast_combine}"
                         if d.fast_combine is not None else
                         f"backend={d.backend} metrics fast-combine on/off")
                for m in d.mismatches:
                    print(f"  {where}: {m}")
    return rc


def _run_oracle(args) -> int:
    kwargs = {} if args.tol is None else {"tol": args.tol}
    result = campaign(
        algorithms=args.algorithms,
        instances=args.instances,
        seed0=args.seed0,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        progress=lambda line: print(f"  {line}"),
        jobs=args.jobs,
        trace=bool(args.trace),
        **kwargs,
    )
    total = len(result.reports)
    failed = len(result.failures)
    print(f"oracle: {total - failed}/{total} instances equivalent across "
          f"serial/mesh/hypercube/PRAM x fast-combine on/off")
    for path in result.corpus_files:
        print(f"  divergence serialized: {path}")
        print(f"  replay with: python -m repro.verify --replay {path}")
    if args.trace:
        _export_campaign_trace(args, result)
    return 0 if result.ok else 1


def _export_campaign_trace(args, result) -> None:
    from ..trace.export import write_chrome_trace
    from ..trace.provenance import provenance_manifest
    from ..trace.registry import registry_snapshot

    totals = result.sim_totals()
    provenance = provenance_manifest(seed=args.seed0, config={
        "mode": "campaign",
        "instances": args.instances,
        "seed0": args.seed0,
        "jobs": args.jobs,
        "algorithms": args.algorithms or sorted(ALGORITHMS),
        "tol": args.tol,
    })
    path = write_chrome_trace(args.trace, result.algorithm_spans or [],
                              provenance=provenance, totals=totals,
                              counters=registry_snapshot())
    print(f"trace written: {path} "
          f"({len(result.algorithm_spans or [])} algorithm spans)")
    for name, t in totals.items():
        print(f"  {name}: simulated time {t:g}")
    print(f"  summarize with: python -m repro.trace summarize {path}")


def _run_incremental(args) -> int:
    result = update_campaign(
        instances=args.instances,
        seed0=args.seed0,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        progress=lambda line: print(f"  {line}"),
        jobs=args.jobs,
    )
    total = len(result.reports)
    failed = len(result.failures)
    checks = sum(r.steps + 1 for r in result.reports)
    print(f"incremental: {total - failed}/{total} update scripts "
          f"byte-identical to cold recomputes ({checks} parity checks)")
    for path in result.corpus_files:
        print(f"  divergence serialized: {path}")
        print(f"  replay with: python -m repro.verify --replay {path}")
    return 0 if result.ok else 1


def _run_scaling(args) -> int:
    if args.update_golden:
        doc = update_golden(args.golden, args.targets,
                            progress=lambda line: print(f"  {line}"))
        print(f"golden scaling re-pinned: {args.golden} "
              f"({len(doc['targets'])} targets)")
        return 0
    ok, _, rendered = check_scaling(args.golden, args.targets,
                                    progress=lambda line: print(f"  {line}"))
    print(rendered)
    return 0 if ok else 1


def _select_executor(args) -> int:
    """Apply --executor / REPRO_EXECUTOR; configuration enters here only.

    RPR002 confines environment reads to CLI entry points: library code
    never consults ``os.environ``, so the executor a run uses is decided
    exactly once, at this edge.  The flag wins over the variable.
    """
    name = args.executor or os.environ.get("REPRO_EXECUTOR")
    if name is None:
        return 0
    try:
        set_executor(name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    rc = _select_executor(args)
    if rc:
        return rc
    if args.mode == "replay" or args.replay:
        args.replay = list(args.replay or []) + list(args.files)
        if not args.replay:
            print("replay mode needs at least one corpus file",
                  file=sys.stderr)
            return 2
        return _run_replay(args)
    if args.files:
        print(f"unexpected arguments: {' '.join(args.files)}",
              file=sys.stderr)
        return 2
    if args.update_golden or args.scaling_only or args.mode == "scaling":
        return _run_scaling(args)
    if args.mode == "incremental":
        return _run_incremental(args)
    if args.oracle or args.mode == "campaign":
        return _run_oracle(args)
    rc = _run_oracle(args)
    return rc or _run_scaling(args)


if __name__ == "__main__":
    sys.exit(main())
