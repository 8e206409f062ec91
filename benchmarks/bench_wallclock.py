"""Wall-clock benchmark — real seconds, not simulated charges.

Every other bench in this directory reports *simulated parallel time*, which
is pure accounting and must stay bit-identical across host-side
optimisations.  This bench measures the other axis: how long the simulator
itself takes to run, in seconds, per tier:

* ``smoke`` / ``full`` — the three end-to-end workloads (envelope
  construction, hull membership, steady-state hull), timed under both
  data-movement executors (``vectorized``/``reference``).
* ``large`` — ops-level sort/merge workloads at Table-1 scale
  (n up to 2^20 PEs) with object/tuple keys, timed under the vectorized
  executor only: the interpreted reference executor is skipped at this
  tier (hours).

CLI runs write ``BENCH_wallclock.json`` at the repo root (pytest entry
points write to a temp dir instead — the committed artifact records
deliberate benchmark invocations only), with speedups
against the seed revision's numbers where a seed baseline exists
(``SEED_SECONDS``, measured with this same harness on the pre-optimisation
tree, min of 3 runs).  The simulated time charged by every measured
executor is asserted bit-identical.

CLI runs additionally append one JSON line per run (provenance included)
to ``benchmarks/history/wallclock.jsonl`` so regressions are visible
across revisions, not just against the static seed constants.  Pytest
runs never append: the tier-1 suite must not grow a committed file on
every invocation.

A campaign-scaling section times ``repro.verify`` campaigns at ``--jobs``
1/2/4 and records ``host_cores`` alongside, since jobs beyond the
physical core count cannot speed anything up.

Run directly (``python benchmarks/bench_wallclock.py [--tier large]``) or
via pytest, where ``test_wallclock_report`` runs the full tier.  Smoke
mode shrinks every workload so the whole sweep finishes in a few seconds;
the tier-1 suite uses it through ``tests/test_wallclock_smoke.py``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import numpy as np

from repro.core.envelope import envelope
from repro.core.family import PolynomialFamily
from repro.core.hull_membership import hull_membership_intervals
from repro.core.steady import steady_hull
from repro.kinetics.motion import divergent_system, random_system
from repro.kinetics.polynomial import Polynomial
from repro.machines.machine import mesh_machine
from repro.ops import bitonic_merge, bitonic_sort, set_executor
from repro.trace import Tracer, provenance_manifest, write_chrome_trace
from repro.trace.registry import registry_snapshot
from repro.verify.oracle import campaign

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_wallclock.json"
HISTORY_PATH = pathlib.Path(__file__).resolve().parent / "history" / "wallclock.jsonl"

#: Seconds for the seed revision (commit d9f28b7), same harness, same
#: parameters, min of 3 — the "before" of every ``speedup`` in the JSON.
#: The large tier has no entry: its workloads postdate the seed.
SEED_SECONDS = {
    "full": {"envelope": 0.1507, "hull_membership": 0.0906,
             "steady_hull": 1.1540},
    "smoke": {"envelope": 0.0480, "hull_membership": 0.0287,
              "steady_hull": 0.1608},
}

#: Workload parameters per tier.  ``envelope`` is the PR 4 acceptance
#: workload (n >= 256, k = 2).  The large tier drives the data-movement
#: ops directly: an object-float sort on the full 2^20-PE mesh, tuple
#: keys at n = 2^16, and a 2^20-slot record merge — the regime the
#: vectorized executor exists for.
PARAMS = {
    "full": {
        "envelope": {"n": 256, "k": 2, "n_pe": 1024},
        "hull_membership": {"n": 32, "n_pe": 1024},
        "steady_hull": {"n": 256, "n_pe": 256},
    },
    "smoke": {
        "envelope": {"n": 64, "k": 2, "n_pe": 256},
        "hull_membership": {"n": 12, "n_pe": 256},
        "steady_hull": {"n": 48, "n_pe": 64},
    },
    "large": {
        "sort_object_keys": {"n": 1 << 20, "n_pe": 1 << 20},
        "sort_tuple_keys": {"n": 1 << 16, "n_pe": 1 << 16},
        "merge_record_keys": {"n": 1 << 20, "n_pe": 1 << 20},
    },
}

#: Executors measured per tier, fastest first (the first entry is the
#: headline ``seconds`` and the sim-parity anchor).  The interpreted
#: reference executor is only affordable at smoke/full sizes.
EXECUTOR_TIERS = {
    "smoke": ("vectorized", "reference"),
    "full": ("vectorized", "reference"),
    "large": ("vectorized",),
}

#: Per-tier default repeats: the large tier's runs take seconds each, so
#: one timed pass (after an untimed plan-cache warm-up) is the budget.
DEFAULT_REPEATS = {"smoke": 3, "full": 3, "large": 1}

#: Campaign-scaling parameters: a small oracle campaign timed at each jobs
#: value.  Results are identical for every jobs value (the engine merges
#: by item index); only wall-clock moves, and only when the host has the
#: cores to back it — hence ``host_cores`` in the recorded section.
CAMPAIGN_PARAMS = {
    "full": {"algorithms": ["closest_pair", "envelope"], "instances": 12},
    "smoke": {"algorithms": ["closest_pair"], "instances": 4},
    "large": {"algorithms": ["closest_pair", "envelope"], "instances": 12},
}

CAMPAIGN_JOBS = (1, 2, 4)


def within_noise(fast: float, slow: float) -> bool:
    """True when ``fast`` is no worse than ``slow`` modulo timing noise.

    The relative margin absorbs scheduler jitter on real workloads; the
    absolute 10 ms floor keeps millisecond-scale smoke workloads from
    flagging a "regression" that is pure measurement grain (the old
    plain-ratio guard read 0.98x at n_pe = 256 as a signal).
    """
    return fast <= 1.25 * slow + 0.010


# ----------------------------------------------------------------------
# Workloads: each builder returns a zero-argument callable that runs one
# full pass on a fresh machine and returns that machine.  Inputs are built
# once per workload (outside the timed region); machines and families are
# fresh per repeat so the crossing cache never carries over between runs.
# ----------------------------------------------------------------------
def _envelope_workload(n: int, k: int, n_pe: int):
    rng = np.random.default_rng(0)
    polys = [Polynomial(rng.normal(size=k + 1)) for _ in range(n)]

    def run():
        machine = mesh_machine(n_pe)
        envelope(machine, polys, PolynomialFamily(k))
        return machine

    return run


def _hull_workload(n: int, n_pe: int):
    system = random_system(n, 2, 1, seed=3)

    def run():
        machine = mesh_machine(n_pe)
        hull_membership_intervals(machine, system)
        return machine

    return run


def _steady_hull_workload(n: int, n_pe: int):
    system = divergent_system(n, 2, 1, seed=1)

    def run():
        machine = mesh_machine(n_pe)
        steady_hull(machine, system)
        return machine

    return run


def _sort_object_workload(n: int, n_pe: int):
    rng = np.random.default_rng(5)
    keys = np.empty(n, dtype=object)
    keys[:] = rng.uniform(-1.0, 1.0, n).tolist()
    payload = np.arange(n, dtype=np.int64)

    def run():
        machine = mesh_machine(n_pe)
        bitonic_sort(machine, keys, [payload])
        return machine

    return run


def _sort_tuple_workload(n: int, n_pe: int):
    rng = np.random.default_rng(7)
    keys = np.empty(n, dtype=object)
    keys[:] = list(zip(rng.integers(0, 64, n).tolist(),
                       rng.uniform(size=n).tolist()))
    payload = np.arange(n, dtype=np.int64)

    def run():
        machine = mesh_machine(n_pe)
        bitonic_sort(machine, keys, [payload])
        return machine

    return run


def _merge_record_workload(n: int, n_pe: int):
    rng = np.random.default_rng(9)

    def sorted_records(m: int) -> list:
        ranks = rng.integers(0, 1 << 20, size=m)
        coords = rng.uniform(size=m)
        return sorted(zip(ranks.tolist(), coords.tolist()))

    keys = np.empty(n, dtype=object)
    keys[:n // 2] = sorted_records(n // 2)
    keys[n // 2:] = sorted_records(n // 2)
    # Object payload column: the geometry layers merge python objects
    # (curves, event records) alongside their keys, so the payload cost
    # is part of what the executors differ on.
    payload = np.empty(n, dtype=object)
    payload[:] = rng.uniform(size=n).tolist()

    def run():
        machine = mesh_machine(n_pe)
        bitonic_merge(machine, keys, [payload])
        return machine

    return run


_BUILDERS = {
    "envelope": _envelope_workload,
    "hull_membership": _hull_workload,
    "steady_hull": _steady_hull_workload,
    "sort_object_keys": _sort_object_workload,
    "sort_tuple_keys": _sort_tuple_workload,
    "merge_record_keys": _merge_record_workload,
}


def _measure(run, repeats: int):
    """Min/mean wall seconds over ``repeats`` runs, plus the last machine."""
    seconds = []
    machine = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        machine = run()
        seconds.append(time.perf_counter() - t0)
    return min(seconds), sum(seconds) / len(seconds), machine


def _measure_executors(run, repeats: int, executors):
    """Time ``run`` under each executor; assert simulated-time parity."""
    out = {}
    for name in executors:
        prev = set_executor(name)
        try:
            out[name] = _measure(run, repeats)
        finally:
            set_executor(prev)
    sims = {name: measured[2].metrics.time for name, measured in out.items()}
    anchor = sims[executors[0]]
    assert all(sim == anchor for sim in sims.values()), (
        f"simulated time moved with the executor: {sims!r}"
    )
    return out


def run_campaign_scaling(mode: str = "full") -> dict:
    """Time the oracle campaign at each jobs value; results are identical."""
    params = CAMPAIGN_PARAMS[mode]
    section: dict = {
        "params": params,
        "host_cores": os.cpu_count(),
        "jobs": {},
    }
    base = None
    for jobs in CAMPAIGN_JOBS:
        t0 = time.perf_counter()
        result = campaign(jobs=jobs, **params)
        dt = time.perf_counter() - t0
        if base is None:
            base = dt
        section["jobs"][str(jobs)] = {
            "seconds": round(dt, 4),
            "speedup_vs_serial": round(base / dt, 2) if dt > 0 else math.inf,
            "ok": result.ok,
        }
    return section


def run_traced_pass(mode: str, expected_sim: dict) -> list[dict]:
    """One extra traced run per workload, after all timing is done.

    Returns the span forest (one ``workload`` span per workload).  The
    traced run's simulated time is asserted equal to the timed runs' —
    tracing reads the accumulators, it never charges them.
    """
    forests: list[dict] = []
    for name, params in PARAMS[mode].items():
        run = _BUILDERS[name](**params)
        tracer = Tracer(name)
        with tracer:
            with tracer.span(name, category="workload", **params):
                machine = run()
        assert machine.metrics.time == expected_sim[name], (
            f"{name}: traced sim time {machine.metrics.time!r} differs "
            f"from untraced {expected_sim[name]!r}"
        )
        forests.extend(tracer.to_dicts())
    return forests


def append_history(results: dict,
                   path: pathlib.Path = HISTORY_PATH) -> pathlib.Path:
    """Append one compact JSON line for this run to the history log.

    The line keeps the run-level provenance manifest (git revision, host,
    package versions) and per-workload numbers, and drops the per-entry
    provenance duplicates and wall-phase breakdowns — history answers
    "when did this number move", the full JSON answers "why".
    """
    line = {
        "mode": results["mode"],
        "repeats": results["repeats"],
        "provenance": results["provenance"],
        "workloads": {
            name: {k: v for k, v in entry.items()
                   if k not in ("provenance", "wall_phases")}
            for name, entry in results["workloads"].items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def run_wallclock(mode: str = "full", repeats: int | None = None,
                  json_path: pathlib.Path | None = JSON_PATH,
                  campaign_scaling: bool = True,
                  trace_path=None,
                  history_path: pathlib.Path | None = None) -> dict:
    """Measure every workload of ``mode``; return (and write) the results.

    Each workload entry records measured seconds (min and mean of
    ``repeats``) under the tier's executors (``EXECUTOR_TIERS``), the seed
    baseline and speedup where one exists, the *simulated* time the run
    charged (asserted identical
    across all measured executors — the number that must never move),
    per-phase wall-clock, and the run's provenance manifest (git revision,
    seed inputs, host info, package versions).

    ``trace_path`` additionally runs one traced pass per workload (after
    the timed runs, so tracing overhead never contaminates the numbers)
    and writes a Chrome ``trace_event`` JSON.  ``history_path`` appends
    one line per run (see :func:`append_history`); the CLI passes it, the
    pytest entry points never do.
    """
    executors = EXECUTOR_TIERS[mode]
    if repeats is None:
        repeats = DEFAULT_REPEATS[mode]
    provenance = provenance_manifest(config={
        "harness": "bench_wallclock", "mode": mode, "repeats": repeats,
        "executors": list(executors),
    })
    results: dict = {"mode": mode, "repeats": repeats,
                     "executors": list(executors),
                     "provenance": provenance, "workloads": {}}
    for name, params in PARAMS[mode].items():
        run = _BUILDERS[name](**params)
        if mode == "large":
            run()  # untimed warm-up: compiles the shared movement plan
        measured = _measure_executors(run, repeats, executors)
        best, mean, machine = measured["vectorized"]
        entry = {
            "params": params,
            "seconds": round(best, 4),
            "mean_seconds": round(mean, 4),
            "sim_time": machine.metrics.time,
            "provenance": provenance,
        }
        if "reference" in measured:
            off_best, off_mean, _ = measured["reference"]
            entry["plan_off_seconds"] = round(off_best, 4)
            entry["plan_off_mean_seconds"] = round(off_mean, 4)
        seed = SEED_SECONDS.get(mode, {}).get(name)
        if seed is not None:
            entry["seed_seconds"] = seed
            entry["speedup"] = round(seed / best, 2) if best > 0 else math.inf
        wall_phases = getattr(machine.metrics, "wall_phases", None)
        if wall_phases:
            entry["wall_phases"] = {
                k: round(v, 4) for k, v in sorted(wall_phases.items())
            }
        results["workloads"][name] = entry
    if campaign_scaling:
        results["campaign_scaling"] = run_campaign_scaling(mode)
    if trace_path is not None:
        spans = run_traced_pass(mode, {
            name: entry["sim_time"]
            for name, entry in results["workloads"].items()
        })
        totals = {
            s["name"]: (s.get("sim") or {}).get("time") for s in spans
        }
        write_chrome_trace(trace_path, spans, provenance=provenance,
                           totals=totals, counters=registry_snapshot())
        results["trace_path"] = str(trace_path)
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2) + "\n")
    if history_path is not None:
        append_history(results, history_path)
    return results


def _print_results(results: dict) -> None:
    print(f"\nwall-clock sweep ({results['mode']} tier, "
          f"min of {results['repeats']}):")
    for name, entry in results["workloads"].items():
        line = f"  {name:18s} {entry['seconds']:8.4f}s"
        if "plan_off_seconds" in entry:
            line += f"   interpreted {entry['plan_off_seconds']:.4f}s"
        if "seed_seconds" in entry:
            line += (f"   seed {entry['seed_seconds']:.4f}s "
                     f"({entry['speedup']:.2f}x)")
        print(line + f"   sim_time {entry['sim_time']:g}")
    scaling = results.get("campaign_scaling")
    if scaling:
        print(f"  campaign scaling (host cores: {scaling['host_cores']}):")
        for jobs, entry in scaling["jobs"].items():
            print(f"    jobs={jobs:3s} {entry['seconds']:8.4f}s   "
                  f"{entry['speedup_vs_serial']:.2f}x vs serial")


def test_wallclock_report(tmp_path):
    # Report to a pytest temp dir: the repo-root BENCH_wallclock.json is
    # reserved for explicit CLI runs (it holds the committed large-tier
    # acceptance numbers, which a pytest side effect must never clobber).
    results = run_wallclock("full", json_path=tmp_path / "BENCH_wallclock.json")
    _print_results(results)
    for name, entry in results["workloads"].items():
        assert entry["seconds"] < 10.0, f"{name} runaway: {entry}"
        # The vectorized executor may not be a pessimisation vs the
        # interpreted reference (noise-aware: see within_noise).
        assert within_noise(entry["seconds"], entry["plan_off_seconds"]), (
            f"{name}: vectorized {entry['seconds']:.4f}s slower than "
            f"interpreted {entry['plan_off_seconds']:.4f}s"
        )
    # The acceptance workload: host-side batching + caching must keep the
    # envelope sweep well clear of the seed's wall-clock (3x required;
    # assert with a margin for machine noise).
    assert results["workloads"]["envelope"]["speedup"] >= 2.5


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tier", choices=sorted(PARAMS), default=None,
                    help="workload tier (default: full; large = ops-level "
                         "sort/merge up to 2^20 PEs, vectorized only)")
    ap.add_argument("--smoke", action="store_true",
                    help="alias for --tier smoke")

    def _positive(value):
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("--repeats must be >= 1")
        return n

    ap.add_argument("--repeats", type=_positive, default=None,
                    help="timed runs per executor (default: 3, large: 1)")
    ap.add_argument("--no-json", action="store_true",
                    help="measure and print without rewriting the JSON")
    ap.add_argument("--no-campaign", action="store_true",
                    help="skip the campaign jobs-scaling section")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append this run to benchmarks/history/")
    ap.add_argument("--trace", metavar="PATH", default=None,
                    help="also run one traced pass per workload (after the "
                         "timed runs) and write a Chrome trace_event JSON")
    args = ap.parse_args()
    if args.tier and args.smoke and args.tier != "smoke":
        ap.error("--smoke contradicts --tier " + args.tier)
    tier = args.tier or ("smoke" if args.smoke else "full")
    _print_results(run_wallclock(
        tier, repeats=args.repeats,
        json_path=None if args.no_json else JSON_PATH,
        campaign_scaling=not args.no_campaign,
        trace_path=args.trace,
        history_path=None if args.no_history else HISTORY_PATH,
    ))
