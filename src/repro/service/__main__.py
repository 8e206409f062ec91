"""``python -m repro.service`` — smoke replay + live stats surface.

Replays a synthetic workload (zipf-skewed repeats over a few families,
all three algorithms) through a live :class:`QueryService` and prints
its ``repro.obs/2`` snapshot (:meth:`QueryService.stats`) — as JSON, or
as the Prometheus-style text exposition with ``--prom`` (see
:mod:`repro.obs.prom`).  ``--fault raise`` arms an injected worker fault
past the retry budget so the degradation path (structured error +
postmortem dump) can be demoed end to end.

Exit status: 0 when every request was answered or errored (and, under
``--fault``, at least one errored and a postmortem was written), else 1.

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
                 postmortem_dir: str | None) -> tuple[QueryService, int]:
    """Replay ``stream``; returns the (stopped) service and error count."""
    svc = QueryService(shards=args.shards, workers=args.workers,
                      cache_capacity=args.cache, max_batch=args.max_batch,
                      # No retry budget under injected faults: concurrent
                      # units would otherwise absorb the one-shot faults
                      # across their retries and never degrade.
                      retries=0 if args.fault else 1,
                      postmortem_dir=postmortem_dir)
    errors = 0
    async with svc:
        if args.fault:
            svc.inject_fault(args.fault)
        for start in range(0, len(stream), args.wave):
            wave = stream[start:start + args.wave]
            results = await asyncio.gather(
                *(svc.submit(r) for r in wave), return_exceptions=True)
            errors += sum(isinstance(r, BaseException) for r in results)
    return svc, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="replay a synthetic query stream and print the "
                    "service's repro.obs/2 stats snapshot")
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
    parser.add_argument("--prom", action="store_true",
                        help="Prometheus-style text exposition instead "
                             "of JSON")
    parser.add_argument("--fault", choices=("raise",), default=None,
                        help="inject a worker fault past the retry budget "
                             "(demos degradation + the postmortem dump)")
    parser.add_argument("--postmortem-dir", default=None, metavar="DIR",
                        help="where --fault postmortems land "
                             "(default: current directory)")
    args = parser.parse_args(argv)
    postmortem_dir = args.postmortem_dir
    if args.fault and postmortem_dir is None:
        postmortem_dir = "."
    stream = build_stream(args.queries, args.families, args.seed)
    svc, errors = asyncio.run(_serve(stream, args, postmortem_dir))
    snapshot = svc.stats()
    if args.prom:
        sys.stdout.write(render_prometheus(snapshot))
    else:
        json.dump(snapshot, sys.stdout, indent=2)
        sys.stdout.write("\n")
    ok = snapshot["counters"]["responses"] + errors == args.queries
    if args.fault:
        ok = ok and errors > 0 and svc.last_postmortem is not None
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
