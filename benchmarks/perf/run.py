"""The repository benchmark: served traffic and report regeneration.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload served_cold --seed 3
    python3 benchmarks/perf/run.py --workload served_zipf --trace 1
    python3 benchmarks/perf/run.py --seed 1 --out set-a.json   # every workload
    python3 benchmarks/perf/run.py compare set-a.json set-b.json

Each workload runs in fresh child processes (``child.py``): set-up is
timed from spawn to the child's ``ready`` line, three times per run, and
reported as the median.  With ``--trace 0`` the run prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it prints
every per-layer metric (and, given ``--trace-dir``, writes the spans as
a Chrome trace).  Each metric prints as ``workload metric value unit
(n=samples)``; the last line of stdout is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  Its ``metrics`` are flat for one
workload and keyed by workload when every workload ran.  The exit code
is 0 only when every correctness gate passed and no operation failed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import select
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import percentile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden"
RESULTS = ROOT / "benchmarks" / "results"

#: The report experiments a smoke run regenerates: the four that take
#: well under a second.  A full run regenerates all of them.
SMOKE_EXPERIMENTS = ("table1", "table4", "ablations", "validation")

#: Set-up is sampled in this many fresh processes per run.
SETUP_SAMPLES = 3

#: An offline run makes at least this many report passes, and starts
#: another while less than ``--seconds`` has passed.
MIN_PASSES = 2

#: A run must end well inside the 180 s a caller may wait for it.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A child process failed, timed out or broke the protocol."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    # Fixed interpreter and BLAS settings keep runs comparable; git (for
    # provenance) must not look above the checkout.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _lines(proc: subprocess.Popen, deadline: float):
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        remaining = deadline - perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise BenchError("child timed out")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line


def run_child(role: str, workload: str, seed: int, seconds: float,
              deadline: float, *, trace: int = 0, smoke: bool = False,
              trace_out: str = "", experiments=()) -> tuple[float, dict]:
    """One child process; returns (set-up seconds, result message)."""
    cmd = [sys.executable, str(CHILD), "--role", role, "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if experiments:
        cmd += ["--experiments", ",".join(experiments)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    setup_s, result = None, {}
    try:
        for line in _lines(proc, deadline):
            msg = json.loads(line)
            if msg["event"] == "ready":
                setup_s = perf_counter() - t0
            elif msg["event"] == "result":
                result = msg
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("child did not exit in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or (role != "setup" and not result):
        raise BenchError(f"{role} child for {workload} exited with {code}")
    return setup_s, result


# ----------------------------------------------------------------------
# Report text gates
# ----------------------------------------------------------------------
def blocks(text: str) -> dict[str, str]:
    """``=== title ===`` blocks of rendered tables, trailing spaces cut."""
    out: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("=== ") and line.endswith(" ==="):
            current = line
            out[current] = [line]
        elif current is not None and line.strip():
            out[current].append(line.rstrip())
        else:
            current = None
    return {title: "\n".join(lines) for title, lines in out.items()}


def report_checks(texts: dict[str, str]) -> list[tuple[bool, str]]:
    """Each experiment's text against the golden captured when this
    benchmark was defined, and each block that has a committed
    ``benchmarks/results`` counterpart against it."""
    committed: dict[str, str] = {}
    for path in sorted(RESULTS.glob("*.txt")):
        committed.update(blocks(path.read_text()))
    checks = []
    for name, text in texts.items():
        golden = (GOLDEN / f"{name}.txt").read_text()
        checks.append((text + "\n" == golden, f"{name} golden text"))
        for title, block in blocks(text).items():
            if title in committed:
                checks.append((block == committed[title],
                               f"{name} results block {title}"))
    return checks


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def run_served(workload, seed, seconds, trace, smoke, deadline, trace_out):
    if trace:
        _, res = run_child("run", workload, seed, seconds, deadline,
                           trace=1, smoke=smoke, trace_out=trace_out)
        return res, res["layer"]
    samples = [run_child("setup", workload, seed, seconds, deadline,
                         smoke=smoke)[0]
               for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = run_child("run", workload, seed, seconds, deadline,
                             smoke=smoke)
    samples.append(setup_s)
    metrics = dict(res["metrics"])
    metrics["setup_s"] = (statistics.median(samples), len(samples))
    metrics["peak_rss_mb"] = (res["rss_mb"], 1)
    return res, metrics


def run_offline(workload, seed, seconds, trace, smoke, deadline, trace_out):
    common = dict(experiments=SMOKE_EXPERIMENTS if smoke else ())
    passes, samples = [], []
    if trace:
        # One untraced pass, then one traced pass: the overhead is the
        # difference between the two.
        for flag in (0, 1):
            setup_s, res = run_child("pass", workload, seed, seconds,
                                     deadline, trace=flag,
                                     trace_out=trace_out, **common)
            passes.append(res)
    else:
        # Passes are never warmed: each pays plan compilation, as a user
        # regenerating the report does.
        t_begin = perf_counter()
        while (len(passes) < MIN_PASSES
               or perf_counter() - t_begin < seconds):
            setup_s, res = run_child("pass", workload, seed, seconds,
                                     deadline, **common)
            passes.append(res)
            samples.append(setup_s)
        while len(samples) < SETUP_SAMPLES:
            samples.append(run_child("setup", workload, seed, seconds,
                                     deadline, **common)[0])
    checks = [c for p in passes for c in report_checks(p["texts"])]
    # The operation a user waits for is a whole regeneration; one short
    # experiment's time is too easily swung by a host stall.
    walls_ms = [p["wall"] * 1e3 for p in passes]
    res = {"attempted": len(checks) + len(passes),
           "failed": sum(1 for ok, _ in checks if not ok),
           "checks": [[ok, what] for ok, what in checks],
           "errors": {},
           "exact": {"report_sha256": hashlib.sha256(json.dumps(
               passes[0]["texts"], sort_keys=True).encode()).hexdigest()}}
    if trace:
        untraced, traced = passes
        m = dict(traced["layer"])
        overhead = (traced["wall"] / untraced["wall"] - 1.0) * 100.0
        m["trace.overhead.throughput_pct"] = (overhead, 2)
        m["trace.overhead.latency_p50_pct"] = (overhead, 2)
        for name in ("client.read_latency_ms.p99",
                     "client.write_latency_ms.p50",
                     "client.write_latency_ms.p99"):
            m[name] = (0.0, 0)
        return res, m
    metrics = {
        "throughput_ops": (len(passes) / sum(p["wall"] for p in passes),
                           len(passes)),
        "latency_p50_ms": (percentile(walls_ms, 0.50), len(walls_ms)),
        "latency_p99_ms": (percentile(walls_ms, 0.99), len(walls_ms)),
        "setup_s": (statistics.median(samples), len(samples)),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), len(passes)),
    }
    return res, metrics


def run_one(spec, workload, seed, seconds, trace, smoke, trace_dir) -> dict:
    deadline = perf_counter() + max(RUN_BUDGET_S, 4 * seconds + 60)
    trace_out = (str(pathlib.Path(trace_dir).resolve()
                     / f"trace-{workload}-{seed}.json")
                 if trace and trace_dir else "")
    runner = run_offline if workload == "offline_report" else run_served
    res, metrics = runner(workload, seed, seconds, trace, smoke, deadline,
                          trace_out)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload} did not measure {missing}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "correct": res["failed"] == 0,
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"],
                                "n": metrics[m["name"]][1]}
                    for m in declared},
        "exact": res["exact"], "checks": res["checks"],
        "errors": res["errors"], "trace_file": trace_out or None,
    }


def append_record(path: pathlib.Path, record: dict) -> None:
    """Add one run to a set file (created with provenance on first use)."""
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.trace.provenance import provenance_manifest

        # As in child_env: git must not look above the checkout.
        os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
        doc = {"schema": "perfbench.set/1", "runs": [],
               "provenance": provenance_manifest(seed=record["seed"], config={
                   "benchmark": load_spec()["command"],
                   "seconds": record["seconds"], "smoke": record["smoke"]})}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def print_record(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']} {name} {m['value']:.6g} {m['unit']} "
              f"(n={m['n']})")
    for ok, what in record["checks"]:
        if not ok:
            print(f"{record['workload']} GATE FAILED: {what}")
    for err, count in record["errors"].items():
        print(f"{record['workload']} FAILED x{count}: {err}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, dict]:
    """Judge B against A on one metric.

    ``WORSE`` when B's median is worse than A's by more than the bound;
    ``unresolved`` when either side's spread (quartile distance over the
    median) exceeds the bound, unless every run of B reads better than
    every run of A; ``ok`` otherwise.
    """
    (qa1, ma, qa3), (qb1, mb, qb3) = _quartiles(a), _quartiles(b)
    sa, sb = (qa3 - qa1) / ma, (qb3 - qb1) / mb
    change = (mb - ma) / ma
    if better == "lower":
        worse, all_better = change, max(b) < min(a)
    else:
        worse, all_better = -change, min(b) > max(a)
    if max(sa, sb) > bound and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "WORSE"
    else:
        word = "ok"
    return word, {"median_a": ma, "q1_a": qa1, "q3_a": qa3, "spread_a": sa,
                  "median_b": mb, "q1_b": qb1, "q3_b": qb3, "spread_b": sb,
                  "change": change, "verdict": word}


def compare(path_a: str, path_b: str, baseline: str | None) -> int:
    """Medians, quartiles and spread of two sets; bound and exact checks.

    Exits 0 only when every metric reads ``ok`` on every workload and
    every exact count matches on every shared seed.
    """
    spec = load_spec()
    sets = [json.loads(pathlib.Path(p).read_text())["runs"]
            for p in (path_a, path_b)]
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0
    summary: dict = {"bounds": {}, "seeds": {}, "workloads": {}}
    for wl in workloads:
        runs = [[r for r in s if r["workload"] == wl and not r["trace"]]
                for s in sets]
        if not all(runs):
            continue
        summary["seeds"][wl] = [sorted(r["seed"] for r in side)
                                for side in runs]
        print(f"== {wl} (runs: {len(runs[0])} vs {len(runs[1])})")
        rows = summary["workloads"][wl] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            word, row = verdict(
                *([r["metrics"][name]["value"] for r in side]
                  for side in runs), m["better"], bound)
            bad += word != "ok"
            print(f"  {name:16s} A {row['median_a']:12.6g} "
                  f"[{row['q1_a']:.6g}, {row['q3_a']:.6g}] spread "
                  f"{row['spread_a']:6.1%} | B {row['median_b']:12.6g} "
                  f"[{row['q1_b']:.6g}, {row['q3_b']:.6g}] spread "
                  f"{row['spread_b']:6.1%} | change {row['change']:+7.2%} "
                  f"bound {bound:.0%} {word}")
            rows[name] = {"unit": m["unit"], **row}
        by_seed = [{r["seed"]: r["exact"] for r in side} for side in runs]
        for seed in sorted(set(by_seed[0]) & set(by_seed[1])):
            a, b = by_seed[0][seed], by_seed[1][seed]
            if a != b:
                bad += 1
                keys = sorted(k for k in set(a) | set(b)
                              if a.get(k) != b.get(k))
                print(f"  exact counts differ at seed {seed}: {keys}")
        print(f"  exact counts compared on "
              f"{len(set(by_seed[0]) & set(by_seed[1]))} shared seeds")
    for m in spec["end_to_end"]:
        summary["bounds"][m["name"]] = m["bound"]
    if baseline:
        first = json.loads(pathlib.Path(path_a).read_text())
        summary["provenance"] = first.get("provenance")
        pathlib.Path(baseline).write_text(json.dumps(summary, indent=1)
                                          + "\n")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        parser.add_argument("--baseline", default=None,
                            help="also write the medians and spreads here")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, args.baseline)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append each run's record to this set file")
    parser.add_argument("--trace-dir", default=None,
                        help="with --trace 1, also write Chrome trace "
                             "files here")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/50 of the set-up work, for tests")
    args = parser.parse_args(argv)
    records = []
    try:
        for wl in [args.workload] if args.workload else names:
            record = run_one(spec, wl, args.seed, args.seconds, args.trace,
                             args.smoke, args.trace_dir)
            print_record(record)
            if args.out:
                append_record(pathlib.Path(args.out), record)
            records.append(record)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    metrics = {r["workload"]: {name: {"value": m["value"], "unit": m["unit"]}
                               for name, m in r["metrics"].items()}
               for r in records}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics[args.workload] if args.workload else metrics,
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
