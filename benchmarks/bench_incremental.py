"""Incremental-update engine vs full recompute — the amortized story.

The incremental engine (``repro.incremental``) exists for one reason: a
mutation against a live family should cost amortized per-update work,
not a full envelope recompute.  This harness measures that claim.  Per
family size ``n`` it builds a seeded base family, replays a seeded
script of insert/delete/retarget updates against the maintained
envelope, and records:

* **amortized update cost** — wall-clock for the whole script divided
  by the number of updates;
* **full recompute cost** — a cold ``envelope_serial`` run (fresh
  family, cold crossing cache) over the surviving curves, the price a
  recompute-per-mutation design would pay every time;
* **speedup** — recompute cost over amortized update cost, and the
  **crossover** family size where the incremental engine starts
  winning;
* **parity** — the maintained envelope must be *byte-identical* to the
  cold recompute at the end of the script, asserted in the same run
  (``repro.incremental.envelope_bytes``); a speedup with broken parity
  is not a result;
* **per-update latency distribution** — every update is observed into a
  per-size :class:`repro.obs.hist.Log2Histogram`; p50/p99 per size come
  from the shared histogram implementation (parity-checked each run
  against the sorted samples, within one bucket's resolution), and the
  per-size histograms are bucket-wise merged into one run-level
  histogram — the merge is exact and grouping-invariant, asserted by
  merging in both orders.

CLI runs write ``BENCH_incremental.json`` at the repo root and append
one JSON line (provenance included) to
``benchmarks/history/incremental.jsonl``; the pytest entry point runs
the smoke tier against a temp dir and never appends.  The committed
full-tier run carries the acceptance floor: >=10x amortized speedup at
the largest benched size, parity true at every size.

Run directly (``python benchmarks/bench_incremental.py [--tier smoke]``)
or via pytest (``test_incremental_report``).
"""

from __future__ import annotations

import json
import math
import pathlib
import time

import numpy as np

from repro.core.envelope import envelope_serial
from repro.core.family import PolynomialFamily
from repro.incremental import IncrementalEnvelope, envelope_bytes
from repro.obs.hist import Log2Histogram
from repro.trace import provenance_manifest
from repro.verify.generators import make_curves

JSON_PATH = (pathlib.Path(__file__).resolve().parents[1]
             / "BENCH_incremental.json")
HISTORY_PATH = (pathlib.Path(__file__).resolve().parent
                / "history" / "incremental.jsonl")

#: Family sizes per tier.  Small sizes bracket the crossover (full
#: recompute wins only while the whole family is a handful of curves);
#: the top size carries the >=10x acceptance floor.
PARAMS = {
    "smoke": {"sizes": (8, 32, 128), "updates": 12, "recompute_reps": 3},
    "full": {"sizes": (8, 16, 32, 64, 256, 1024, 4096), "updates": 32,
             "recompute_reps": 3},
}

_ACTIONS = ("insert", "delete", "retarget")

#: Shared bucket range for every per-update latency histogram: base
#: resolution ~60ns (one bucket per power of two) saturating at 2s.
#: Identical declared ranges are what make the per-size histograms
#: exactly mergeable into the run-level one.
UPDATE_HIST_LO = 2.0 ** -24
UPDATE_HIST_HI = 2.0


def hist_percentiles(hist: Log2Histogram, samples: list[float]) -> dict:
    """p50/p99 from the shared histogram + the one-run parity check.

    Each quantile must be exactly the upper edge of the bucket holding
    the same-rank sorted sample — within one bucket's resolution (a
    factor of two) of the exact sorted-sample percentile.
    """
    assert hist.count == len(samples)
    ordered = sorted(samples)
    out = {}
    for q in (0.50, 0.99):
        bound = hist.quantile(q)
        rank = max(1, math.ceil(q * len(ordered)))
        sample = ordered[rank - 1]
        alone = Log2Histogram("", lo=hist.lo, hi=hist.hi)
        alone.observe(sample)
        assert bound == alone.quantile(1.0), (
            f"p{q * 100:g}: histogram bound {bound} disagrees with the "
            f"bucket of the rank-{rank} sample {sample}")
        out[f"p{q * 100:g}"] = bound
    return out


def make_updates(seed: int, n0: int, count: int, s: int = 2) -> list[dict]:
    """A seeded script of ``count`` updates for a family starting at
    ``n0`` curves: a deterministic mix of insert/delete/retarget with
    position-addressed targets (replayable against any engine)."""
    rng = np.random.default_rng(seed)
    updates = []
    live = n0
    fresh = 0
    for _ in range(count):
        action = _ACTIONS[int(rng.integers(0, 3))] if live > 1 else "insert"
        if action == "insert":
            fresh += 1
            curve = make_curves("random", seed * 10_000 + fresh, n=1, s=s)[0]
            updates.append({"action": "insert",
                            "coeffs": [float(c) for c in curve._cl]})
            live += 1
        elif action == "delete":
            updates.append({"action": "delete",
                            "pos": int(rng.integers(0, live))})
            live -= 1
        else:
            fresh += 1
            curve = make_curves("random", seed * 10_000 + fresh, n=1, s=s)[0]
            updates.append({"action": "retarget",
                            "pos": int(rng.integers(0, live)),
                            "coeffs": [float(c) for c in curve._cl]})
    return updates


def _apply(engine: IncrementalEnvelope, update: dict) -> None:
    if update["action"] == "insert":
        engine.insert(update["coeffs"])
        return
    ids = engine.ids()
    if update["action"] == "delete":
        engine.delete(ids[update["pos"]])
    else:
        engine.retarget(ids[update["pos"]], update["coeffs"])


def bench_size(n: int, updates: int, recompute_reps: int,
               seed: int = 0, s: int = 2) -> dict:
    """One family size: replay the update script, then price the
    alternative (a cold full recompute) and check byte parity."""
    base = make_curves("random", seed + n, n=n, s=s)
    degree = max([s] + [c.degree for c in base])
    engine = IncrementalEnvelope(s=degree, op="min")
    engine.reset(base)
    script = make_updates(seed + n, n, updates, s=s)

    hist = Log2Histogram(f"update_latency_s[n={n}]", lo=UPDATE_HIST_LO,
                         hi=UPDATE_HIST_HI, unit="s")
    samples: list[float] = []
    t0 = time.perf_counter()
    for update in script:
        u0 = time.perf_counter()
        _apply(engine, update)
        dt = time.perf_counter() - u0
        hist.observe(dt)
        samples.append(dt)
    update_wall = time.perf_counter() - t0
    amortized = update_wall / len(script)
    pcts = hist_percentiles(hist, samples)

    # The alternative: a recompute-per-mutation design pays this on
    # every update.  Fresh family each rep = genuinely cold crossing
    # cache, exactly what that design would see.
    survivors = engine.reference_curves()
    recompute_wall = []
    reference = None
    for _ in range(recompute_reps):
        family = PolynomialFamily(degree)
        t0 = time.perf_counter()
        reference = envelope_serial(survivors, family, op=engine.op)
        recompute_wall.append(time.perf_counter() - t0)
    recompute = min(recompute_wall)

    parity = engine.canonical_bytes() == envelope_bytes(reference)
    return {
        "n": n,
        "updates": len(script),
        "final_n": len(engine),
        "pieces": len(engine.envelope.pieces),
        "amortized_update_s": round(amortized, 8),
        "update_p50_s": pcts["p50"],
        "update_p99_s": pcts["p99"],
        "update_hist": hist.to_dict(),
        "full_recompute_s": round(recompute, 8),
        "speedup": round(recompute / amortized, 2),
        "parity": parity,
        "engine_stats": dict(engine.stats),
    }


def _merged_update_hist(rows: list[dict]) -> dict:
    """Merge the per-size histograms into one run-level distribution.

    The merge is exact bucket-wise integer addition over identical
    declared ranges; grouping-invariance is asserted by merging the same
    snapshots in both orders and demanding identical bucket state.
    """
    hists = [Log2Histogram.from_dict(r["update_hist"]) for r in rows]
    merged = Log2Histogram("update_latency_s", lo=UPDATE_HIST_LO,
                           hi=UPDATE_HIST_HI, unit="s")
    for h in hists:
        merged.merge(h)
    backwards = Log2Histogram("update_latency_s", lo=UPDATE_HIST_LO,
                              hi=UPDATE_HIST_HI, unit="s")
    for h in reversed(hists):
        backwards.merge(h)
    assert (merged.buckets, merged.count, merged.vmin, merged.vmax) == \
        (backwards.buckets, backwards.count, backwards.vmin,
         backwards.vmax), "histogram merge is not grouping-invariant"
    assert merged.count == sum(r["updates"] for r in rows)
    return merged.to_dict()


def run_incremental_bench(mode: str = "full",
                          json_path: pathlib.Path | None = JSON_PATH,
                          history_path: pathlib.Path | None = None) -> dict:
    params = PARAMS[mode]
    provenance = provenance_manifest(config={
        "harness": "bench_incremental", "mode": mode,
        "sizes": list(params["sizes"]), "updates": params["updates"],
    })
    rows = [bench_size(n, params["updates"], params["recompute_reps"])
            for n in params["sizes"]]
    crossover = next((r["n"] for r in rows if r["speedup"] >= 1.0), None)
    results = {
        "mode": mode,
        "provenance": provenance,
        "rows": rows,
        "crossover_n": crossover,
        "max_speedup": max(r["speedup"] for r in rows),
        "top_size_speedup": rows[-1]["speedup"],
        "all_parity": all(r["parity"] for r in rows),
        "update_hist": _merged_update_hist(rows),
    }
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2) + "\n")
    if history_path is not None:
        append_history(results, history_path)
    return results


def append_history(results: dict,
                   path: pathlib.Path = HISTORY_PATH) -> pathlib.Path:
    """Append one compact JSON line for this run to the history log.

    Per-size amortized/recompute seconds and histogram-derived p50/p99
    ride along (keyed by ``n``) so ``python -m repro.report trend`` can
    flag wall-clock regressions between commits at every benched size;
    the run-level merged bucket array rides along for offline re-merge
    and ``--slo`` gating (the trend analyser skips histogram subtrees
    when diffing scalars).
    """
    line = {
        "mode": results["mode"],
        "crossover_n": results["crossover_n"],
        "top_size_speedup": results["top_size_speedup"],
        "all_parity": results["all_parity"],
        "update_hist": results["update_hist"],
        "sizes": {
            str(r["n"]): {
                "amortized_update_seconds": r["amortized_update_s"],
                "update_p50_seconds": r["update_p50_s"],
                "update_p99_seconds": r["update_p99_s"],
                "full_recompute_seconds": r["full_recompute_s"],
                "speedup": r["speedup"],
            }
            for r in results["rows"]
        },
        "provenance": results["provenance"],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def _print_results(results: dict) -> None:
    print(f"\nincremental engine vs full recompute "
          f"({results['mode']} tier):")
    print(f"  {'n':>6} {'updates':>8} {'amortized':>12} {'p50':>10} "
          f"{'p99':>10} {'recompute':>12} {'speedup':>9} {'parity':>7}")
    for r in results["rows"]:
        print(f"  {r['n']:>6} {r['updates']:>8} "
              f"{r['amortized_update_s'] * 1e6:>10.1f}us "
              f"{r['update_p50_s'] * 1e6:>8.1f}us "
              f"{r['update_p99_s'] * 1e6:>8.1f}us "
              f"{r['full_recompute_s'] * 1e3:>10.2f}ms "
              f"{r['speedup']:>8.1f}x {str(r['parity']):>7}")
    cx = results["crossover_n"]
    print(f"  crossover: incremental wins from n={cx} "
          f"(speedup at top size: {results['top_size_speedup']:.0f}x, "
          f"parity everywhere: {results['all_parity']})")


def test_incremental_report(tmp_path):
    # Report to a pytest temp dir: the repo-root BENCH_incremental.json
    # holds the committed full-tier acceptance numbers, which a pytest
    # side effect must never clobber.
    results = run_incremental_bench(
        "smoke", json_path=tmp_path / "BENCH_incremental.json")
    _print_results(results)
    assert results["all_parity"], "maintained envelope diverged from recompute"
    assert results["top_size_speedup"] >= 2.0
    # The run-level histogram must cover every update of every size, and
    # the per-size percentiles must be ordered.
    total = sum(r["updates"] for r in results["rows"])
    assert results["update_hist"]["count"] == total
    for r in results["rows"]:
        assert r["update_p50_s"] <= r["update_p99_s"]
    assert (tmp_path / "BENCH_incremental.json").exists()


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tier", choices=sorted(PARAMS), default="full")
    ap.add_argument("--no-json", action="store_true",
                    help="measure and print without rewriting the JSON")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append this run to benchmarks/history/")
    args = ap.parse_args()
    _print_results(run_incremental_bench(
        args.tier,
        json_path=None if args.no_json else JSON_PATH,
        history_path=None if args.no_history else HISTORY_PATH,
    ))
