"""``python -m repro.service`` — smoke replay + live stats surface.

Two subcommands share one synthetic workload (zipf-skewed repeats over a
few families, all three algorithms):

* ``smoke`` (the default — bare flags still work) replays the stream
  through a live :class:`QueryService` and prints the serving counters;
  ``--stats`` embeds the full ``repro.obs/1`` snapshot, and ``--fault``
  arms an injected worker fault so the degradation path (structured
  error + flight-recorder postmortem dump) can be demoed end to end;
* ``stats`` replays the stream and prints the ``repro.obs/1`` snapshot
  itself — as JSON, or as the Prometheus-style text exposition with
  ``--prom`` (see :mod:`repro.obs.prom`).

Load measurement is ``python benchmarks/perf/run.py --workload
served_zipf``; this entry point exists to demo the service and
smoke-test an installation in seconds.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from ..obs import render_prometheus
from .model import QueryRequest, request
from .server import QueryService


def build_stream(n_queries: int, n_families: int, seed: int,
                 skew: float = 1.1) -> list[QueryRequest]:
    """A zipf-skewed request stream over a deterministic family universe."""
    rng = np.random.default_rng(seed)
    universe = []
    for i in range(n_families):
        alg = ("envelope", "hull_membership", "steady_hull")[i % 3]
        if alg == "envelope":
            universe.append(request(
                "envelope", kind=("random", "tangent", "tie")[i % 3],
                seed=100 + i, n=4 + i % 5,
                op="min" if i % 2 == 0 else "max"))
        elif alg == "hull_membership":
            universe.append(request(
                "hull_membership", kind=("random", "symmetric")[i % 2],
                seed=200 + i, n=5 + i % 3))
        else:
            universe.append(request(
                "steady_hull", kind=("random", "converging")[i % 2],
                seed=300 + i, n=5 + i % 4))
    weights = (np.arange(1, n_families + 1, dtype=float)) ** (-skew)
    weights /= weights.sum()
    picks = rng.choice(n_families, size=n_queries, p=weights)
    return [universe[int(i)] for i in picks]


async def _serve(stream: list[QueryRequest], args: argparse.Namespace,
                 *, fault: str | None = None,
                 postmortem_dir: str | None = None,
                 ) -> tuple[QueryService, int]:
    """Replay ``stream``; returns the (stopped) service and error count."""
    svc = QueryService(shards=args.shards, workers=args.workers,
                      cache_capacity=args.cache, max_batch=args.max_batch,
                      # No retry budget under injected faults: concurrent
                      # units would otherwise absorb the one-shot faults
                      # across their retries and never degrade.
                      retries=0 if fault else 1,
                      postmortem_dir=postmortem_dir)
    errors = 0
    async with svc:
        if fault:
            svc.inject_fault(fault)
        for start in range(0, len(stream), args.wave):
            wave = stream[start:start + args.wave]
            results = await asyncio.gather(
                *(svc.submit(r) for r in wave), return_exceptions=True)
            errors += sum(isinstance(r, BaseException) for r in results)
    return svc, errors


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--families", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--workers", choices=("thread", "process"),
                        default="thread")
    parser.add_argument("--cache", type=int, default=128,
                        help="total cache capacity (0 disables)")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--wave", type=int, default=64,
                        help="concurrent submissions per wave")


def _smoke(args: argparse.Namespace) -> int:
    postmortem_dir = args.postmortem_dir
    if args.fault and postmortem_dir is None:
        postmortem_dir = "."
    stream = build_stream(args.queries, args.families, args.seed)
    svc, errors = asyncio.run(
        _serve(stream, args, fault=args.fault,
               postmortem_dir=postmortem_dir))
    out = svc.stats_dict()
    if args.fault:
        out["errors"] = errors
        out["postmortem"] = (str(svc.last_postmortem)
                             if svc.last_postmortem else None)
    if args.stats:
        out["stats"] = svc.stats()
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    responses = out["service"]["responses"]
    ok = responses + errors == args.queries
    if args.fault:
        ok = ok and errors > 0 and out["postmortem"] is not None
    return 0 if ok else 1


def _stats(args: argparse.Namespace) -> int:
    stream = build_stream(args.queries, args.families, args.seed)
    svc, errors = asyncio.run(_serve(stream, args))
    snapshot = svc.stats()
    if args.prom:
        sys.stdout.write(render_prometheus(snapshot))
    else:
        json.dump(snapshot, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if not errors else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Backward compatibility: bare flags mean the smoke replay.
    if not argv or argv[0].startswith("-"):
        argv = ["smoke", *argv]
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="smoke-replay a synthetic query stream and inspect "
                    "the serving telemetry")
    sub = parser.add_subparsers(dest="command", required=True)
    smoke = sub.add_parser(
        "smoke", help="replay the stream and print serving counters")
    _add_serve_args(smoke)
    smoke.add_argument("--stats", action="store_true",
                       help="embed the full repro.obs/1 stats snapshot")
    smoke.add_argument("--fault", choices=("raise",), default=None,
                       help="inject a worker fault past the retry budget "
                            "(demos degradation + the postmortem dump)")
    smoke.add_argument("--postmortem-dir", default=None, metavar="DIR",
                       help="where --fault postmortems land "
                            "(default: current directory)")
    smoke.set_defaults(fn=_smoke)
    stats = sub.add_parser(
        "stats", help="replay the stream and print the repro.obs/1 "
                      "stats snapshot")
    _add_serve_args(stats)
    stats.add_argument("--prom", action="store_true",
                       help="Prometheus-style text exposition instead "
                            "of JSON")
    stats.set_defaults(fn=_stats)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
