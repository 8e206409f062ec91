"""Service load harness — zipf-skewed replay against the query service.

Every other bench in this directory drives the simulators directly; this
one drives the serving layer (``repro.service``): a synthetic client
population replays a zipf-skewed query stream (repeat-heavy traffic over
a family universe drawn from the ``repro.verify.generators`` kinds)
through a live :class:`~repro.service.QueryService`, and the harness
records the serving numbers — p50/p90/p99 request latency, sustained
throughput, cache hit rate, batching/dedupe counters — plus a
correctness spot-check: a sample of unique requests is recomputed
per-query through the campaign engine
(:func:`repro.parallel.parallel_map` over
:func:`repro.service.workers.direct_item`) and must match the served
payloads byte-for-byte.

Latency percentiles come from the service's own
``request_latency_s`` :class:`~repro.obs.hist.Log2Histogram` — the same
buckets the live ``stats()`` endpoint serves — not from a private sorted
array.  Every run asserts parity between the histogram-derived quantiles
and the sorted-sample percentiles (within one bucket's resolution), and
both the bucket array and the full ``repro.obs/1`` stats snapshot ride
along in the artifacts.

CLI runs write ``BENCH_service.json`` at the repo root and append one
JSON line (provenance included) to ``benchmarks/history/service.jsonl``;
pytest entry points write to a temp dir and never append — the committed
artifacts record deliberate benchmark invocations only.  The committed
full-tier run replays 10^5 queries (the PR acceptance floor).

Run directly (``python benchmarks/bench_service.py [--tier smoke]``) or
via pytest (``test_service_report`` runs the smoke tier).
"""

from __future__ import annotations

import asyncio
import json
import math
import pathlib
import time

import numpy as np

from repro.parallel import parallel_map
from repro.service import QueryService, request
from repro.service.workers import direct_item
from repro.trace import provenance_manifest
from repro.verify.generators import CURVE_KINDS, SYSTEM_KINDS

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_service.json"
HISTORY_PATH = (pathlib.Path(__file__).resolve().parent
                / "history" / "service.jsonl")

#: Replay parameters per tier.  ``queries`` is the stream length (the
#: full tier carries the 1e5 acceptance floor), ``families`` the universe
#: size the zipf law ranks, ``wave`` the number of concurrently
#: outstanding clients, ``skew`` the zipf exponent (1.1 ~ web-like
#: repeat-heavy traffic).
PARAMS = {
    "smoke": {"queries": 400, "families": 12, "wave": 64, "skew": 1.1},
    "full": {"queries": 100_000, "families": 64, "wave": 512, "skew": 1.1},
}

#: Service configuration under test (one shard per worker thread; the
#: bounded cache sized well below the universe so eviction is exercised
#: by the tail families).
SERVICE = {
    "smoke": {"shards": 2, "cache_capacity": 64, "max_batch": 64},
    "full": {"shards": 4, "cache_capacity": 128, "max_batch": 64},
}

#: Unique requests recomputed per-query through the campaign engine and
#: compared byte-for-byte against served payloads.
CORRECTNESS_SAMPLE = 24


def build_universe(n_families: int, seed: int) -> list:
    """A deterministic request universe over the generator kinds.

    Cycles the three algorithms across the verification layer's curve and
    system kinds, mixing backends, run parameters (envelope op, hull
    query index) and derived queries (``value_at``/``member_at``/
    ``is_extreme``) — the shapes production traffic would mix.
    """
    curve_kinds = sorted(CURVE_KINDS)
    system_kinds = sorted(SYSTEM_KINDS)
    backends = ("mesh", "hypercube", "serial")
    universe = []
    for i in range(n_families):
        backend = backends[i % len(backends)]
        if i % 3 == 0:
            req = request("envelope", kind=curve_kinds[i % len(curve_kinds)],
                          seed=1000 + i, n=4 + i % 5, backend=backend,
                          op="min" if i % 2 == 0 else "max")
            if i % 6 == 0:
                req = request("envelope",
                              kind=curve_kinds[i % len(curve_kinds)],
                              seed=1000 + i, n=4 + i % 5, backend=backend,
                              op="min" if i % 2 == 0 else "max",
                              q="value_at", t=0.5 * (i % 4))
        elif i % 3 == 1:
            kind = system_kinds[i % len(system_kinds)]
            if i % 4 == 1:
                req = request("hull_membership", kind=kind, seed=2000 + i,
                              n=5 + i % 4, backend=backend,
                              q="member_at", t=1.0)
            else:
                req = request("hull_membership", kind=kind, seed=2000 + i,
                              n=5 + i % 4, backend=backend, query=i % 3)
        else:
            kind = system_kinds[(i + 3) % len(system_kinds)]
            if i % 4 == 2:
                req = request("steady_hull", kind=kind, seed=3000 + i,
                              n=5 + i % 4, backend=backend,
                              q="is_extreme", i=i % 5)
            else:
                req = request("steady_hull", kind=kind, seed=3000 + i,
                              n=5 + i % 4, backend=backend)
        universe.append(req)
    return universe


def zipf_stream(universe: list, n_queries: int, seed: int,
                skew: float) -> list:
    """``n_queries`` requests drawn zipf(``skew``) over the universe."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, len(universe) + 1, dtype=float) ** (-skew)
    weights /= weights.sum()
    picks = rng.choice(len(universe), size=n_queries, p=weights)
    return [universe[int(i)] for i in picks]


async def _replay(stream: list, wave: int, service_kwargs: dict,
                  sample_keys: set) -> dict:
    """Replay ``stream`` in waves; aggregate latency without keeping
    every response alive (10^5 responses would be pure ballast)."""
    latencies = np.empty(len(stream), dtype=float)
    sampled: dict = {}
    pos = 0
    async with QueryService(**service_kwargs) as svc:
        t0 = time.perf_counter()
        for start in range(0, len(stream), wave):
            chunk = stream[start:start + wave]
            resps = await svc.submit_many(chunk)
            for req, resp in zip(chunk, resps):
                latencies[pos] = resp.meta["latency_s"]
                pos += 1
                key = req.key()
                if key in sample_keys and key not in sampled:
                    sampled[key] = resp.payload
        wall = time.perf_counter() - t0
    return {"latencies": latencies[:pos], "wall": wall,
            "sampled": sampled, "service": svc}


def hist_latency(hist, lat: np.ndarray) -> dict:
    """Histogram-derived latency percentiles + the one-run parity check.

    p50/p90/p99 are read from the service's shared
    :class:`repro.obs.hist.Log2Histogram` (upper bucket edges).  For each
    quantile the run asserts the histogram's answer is exactly the upper
    edge of the bucket holding the same-rank sorted sample — i.e. within
    one bucket's resolution (a factor of two) of the exact sorted-sample
    percentile.  A drifted histogram (missed observation, wrong bucket
    arithmetic) fails the benchmark rather than misreporting latency.
    """
    assert hist.count == len(lat), (
        f"histogram saw {hist.count} samples, harness saw {len(lat)}")
    ordered = np.sort(lat)
    out = {}
    for q in (0.50, 0.90, 0.99):
        bound = hist.quantile(q)
        rank = max(1, math.ceil(q * len(ordered)))
        sample = float(ordered[rank - 1])
        assert bound == hist.upper_bound(hist.bucket_of(sample)), (
            f"p{q * 100:g}: histogram bound {bound} disagrees with the "
            f"bucket of the rank-{rank} sample {sample}")
        assert sample <= bound <= max(2.0 * sample, hist.lo), (
            f"p{q * 100:g}: bound {bound} not within one bucket "
            f"of the sorted-sample percentile {sample}")
        out[f"p{q * 100:g}"] = round(bound, 9)
    out["max"] = round(float(hist.vmax), 6)
    return out


def check_correctness(sampled: dict, universe: list,
                      machine_size: int) -> int:
    """Recompute sampled requests per-query via the campaign engine.

    Served payloads must equal the ``parallel_map`` baselines exactly
    (the same contract ``tests/service/test_equivalence.py`` pins, here
    asserted on the real replay's own traffic).  Returns the number of
    requests checked.
    """
    reqs = [r for r in universe if r.key() in sampled]
    baselines = parallel_map(direct_item,
                             [(r, machine_size) for r in reqs],
                             jobs=2)
    for req, baseline in zip(reqs, baselines):
        served = sampled[req.key()]
        if json.dumps(served, sort_keys=True) != \
                json.dumps(baseline, sort_keys=True):
            raise AssertionError(
                f"served payload diverged from the per-query driver run "
                f"for {req.to_dict()!r}")
    return len(reqs)


def run_service_bench(mode: str = "full",
                      queries: int | None = None,
                      json_path: pathlib.Path | None = JSON_PATH,
                      history_path: pathlib.Path | None = None) -> dict:
    """Replay one tier; return (and write) the serving numbers."""
    params = dict(PARAMS[mode])
    if queries is not None:
        params["queries"] = int(queries)
    service_kwargs = dict(SERVICE[mode])
    provenance = provenance_manifest(config={
        "harness": "bench_service", "mode": mode, **params,
        **service_kwargs,
    })
    universe = build_universe(params["families"], seed=0)
    stream = zipf_stream(universe, params["queries"], seed=1,
                         skew=params["skew"])
    sample_keys = {r.key() for r in universe[:CORRECTNESS_SAMPLE]}
    replay = asyncio.run(_replay(stream, params["wave"], service_kwargs,
                                 sample_keys))
    svc = replay["service"]
    lat = replay["latencies"]
    assert len(lat) == params["queries"], "stream not fully served"
    counters = svc.counters
    cache = svc.cache.stats()
    hist = svc.obs.hists["request_latency_s"]
    checked = check_correctness(replay["sampled"], universe,
                                svc.machine_size)
    results = {
        "mode": mode,
        "params": params,
        "service": service_kwargs,
        "provenance": provenance,
        "queries": params["queries"],
        "wall_seconds": round(replay["wall"], 4),
        "throughput_qps": round(params["queries"] / replay["wall"], 1),
        "latency_s": hist_latency(hist, lat),
        "latency_hist": hist.to_dict(),
        "cache": {
            "hit_rate": round(cache["hit_rate"], 4),
            "hits": cache["hits"],
            "misses": cache["misses"],
            "evictions": cache["evictions"],
            "request_hit_rate":
                round(counters.cache_hit_requests / counters.responses, 4),
        },
        "batching": {
            "batches": counters.batches,
            "batch_max": counters.batch_max,
            "mean_batch_size":
                round(counters.batched_requests / counters.batches, 2),
            "dedup_hits": counters.dedup_hits,
            "coalesced_requests": counters.coalesced_requests,
        },
        "counters": {
            "requests": counters.requests,
            "responses": counters.responses,
            "errors": counters.errors,
            "pool_restarts": svc.stats_dict()["pool_restarts"],
            "spans_recorded": len(svc.span_forest()),
            "spans_dropped": counters.spans_dropped,
        },
        "correctness_checked": checked,
        # The live-endpoint view of the same run: the versioned
        # ``repro.obs/1`` snapshot (histograms, event/recorder
        # accounting) as ``QueryService.stats()`` would serve it.
        "stats": svc.stats(),
    }
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2) + "\n")
    if history_path is not None:
        append_history(results, history_path)
    return results


def append_history(results: dict,
                   path: pathlib.Path = HISTORY_PATH) -> pathlib.Path:
    """Append one compact JSON line for this run to the history log.

    ``latency_hist`` carries the full bucket array so later runs can be
    merged or re-quantiled offline; the trend analyser skips histogram
    subtrees when diffing scalar metrics and ``--slo`` reads them for
    percentile gating.
    """
    line = {k: results[k] for k in
            ("mode", "queries", "wall_seconds", "throughput_qps",
             "latency_s", "latency_hist", "cache", "batching",
             "provenance")}
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def _print_results(results: dict) -> None:
    lat = results["latency_s"]
    print(f"\nservice replay ({results['mode']} tier, "
          f"{results['queries']} queries):")
    print(f"  wall {results['wall_seconds']:.2f}s   "
          f"throughput {results['throughput_qps']:.0f} q/s")
    print(f"  latency p50 {lat['p50'] * 1e3:.2f}ms   "
          f"p90 {lat['p90'] * 1e3:.2f}ms   p99 {lat['p99'] * 1e3:.2f}ms")
    print(f"  cache hit rate {results['cache']['hit_rate']:.2%} "
          f"(request-level {results['cache']['request_hit_rate']:.2%}, "
          f"{results['cache']['evictions']} evictions)")
    print(f"  batches {results['batching']['batches']} "
          f"(mean {results['batching']['mean_batch_size']:.2f}, "
          f"max {results['batching']['batch_max']}, "
          f"dedup {results['batching']['dedup_hits']})")
    print(f"  correctness: {results['correctness_checked']} unique "
          f"requests matched per-query driver runs byte-for-byte")


def test_service_report(tmp_path):
    # Report to a pytest temp dir: the repo-root BENCH_service.json is
    # reserved for explicit CLI runs (it holds the committed 1e5-query
    # acceptance numbers, which a pytest side effect must never clobber).
    results = run_service_bench("smoke",
                                json_path=tmp_path / "BENCH_service.json")
    _print_results(results)
    assert results["counters"]["responses"] == results["queries"]
    assert results["counters"]["errors"] == 0
    # zipf repeat traffic must actually hit the cache, and the harness
    # must have byte-checked a real sample against the driver oracle.
    assert results["cache"]["request_hit_rate"] > 0.3
    assert results["correctness_checked"] >= 5
    assert results["latency_s"]["p50"] <= results["latency_s"]["p99"]
    # Every served request must be in the histogram the percentiles came
    # from, and the embedded live-endpoint snapshot must be versioned.
    assert results["latency_hist"]["count"] == results["queries"]
    assert results["stats"]["schema"] == "repro.obs/1"
    assert (tmp_path / "BENCH_service.json").exists()


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tier", choices=sorted(PARAMS), default="full")
    ap.add_argument("--queries", type=int, default=None,
                    help="override the tier's stream length")
    ap.add_argument("--no-json", action="store_true",
                    help="measure and print without rewriting the JSON")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append this run to benchmarks/history/")
    args = ap.parse_args()
    _print_results(run_service_bench(
        args.tier, queries=args.queries,
        json_path=None if args.no_json else JSON_PATH,
        history_path=None if args.no_history else HISTORY_PATH,
    ))
