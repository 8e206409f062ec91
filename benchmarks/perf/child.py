"""One workload in one fresh process: set-up, warm-up, timed run, gates.

``run.py`` starts this file; it is not meant to be run by hand.  It
speaks JSON lines on the stdout it was started with: ``ready`` once
set-up is done (the parent times set-up from its own spawn to this
line), then ``result``.  Anything the program itself prints goes to
stderr.

Roles: ``setup`` stops after ``ready`` (extra set-up samples), ``run``
measures a served workload, ``pass`` regenerates the report once.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import resource
import sys
from array import array
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.service import (  # noqa: E402
    QueryService,
    direct_response,
    mutation,
    request,
)
from repro.service.model import answer_query  # noqa: E402
from repro.verify.generators import SYSTEM_KINDS  # noqa: E402
from tracing import percentile  # noqa: E402

#: The service under test: 2 shards = 2 worker threads = the host's
#: 2 cores; every served workload uses the same configuration.
SERVICE = dict(shards=2, workers="thread", cache_capacity=128, max_batch=64,
               machine_size=64)

#: Curve kinds on which every backend and the incremental engine emit
#: the same bytes (``tie``/``near_degenerate`` agree only by value).
ROBUST_CURVES = ("random", "tangent", "duplicate", "degree_boundary")
SYSTEMS = tuple(sorted(SYSTEM_KINDS))
ALGORITHMS = ("envelope", "hull_membership", "steady_hull")
BACKENDS = ("serial", "mesh", "hypercube")
T_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)

#: Sampled requests checked byte for byte against a direct, unbatched run.
GATE_SAMPLES = 24

#: Timed segments of an untraced run; a traced run alternates
#: untraced/traced segments so the overhead is measured in one process.
SEGMENTS = 5
TRACE_PLAN = (False, True, False, True)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Workloads: inputs from the seed, one operation, correctness gates
# ----------------------------------------------------------------------
class Zipf:
    """Repeat-heavy reads over a fixed 64-family universe."""

    clients = 64
    warmup = 20_000
    stride = 101  # every 101st timed request is a gate candidate
    yield_each = False

    def __init__(self, seed: int, smoke: bool) -> None:
        if smoke:
            self.warmup //= 50
        rng = np.random.default_rng([seed, 1])
        self.universe = [self._family(rank, rng) for rank in range(64)]
        weights = np.arange(1, 65, dtype=float) ** -1.1
        self.weights = weights / weights.sum()
        self.rng = np.random.default_rng([seed, 2])
        self.samples: dict = {}

    @staticmethod
    def _family(rank: int, rng) -> list:
        """Eight request variants sharing one run key.

        The rank fixes the family's shape (algorithm, backend, kind, n),
        so every seed puts the same shapes on the hot ranks; the seed
        draws the family's data and run parameters.
        """
        alg = ALGORITHMS[rank % 3]
        backend = BACKENDS[(rank // 3) % 3]
        n = 4 + rank % 5
        fam_seed = int(rng.integers(0, 2**31))
        if alg == "envelope":
            kw = dict(kind=ROBUST_CURVES[rank % 4], seed=fam_seed, n=n,
                      backend=backend,
                      op=("min", "max")[int(rng.integers(2))])
            return [request(alg, **kw)] + [
                request(alg, q="value_at", t=t, **kw) for t in T_GRID]
        kw = dict(kind=SYSTEMS[rank % len(SYSTEMS)], seed=fam_seed, n=n,
                  backend=backend)
        if alg == "hull_membership":
            kw["query"] = int(rng.integers(0, n))
            return [request(alg, **kw)] + [
                request(alg, q="member_at", t=t, **kw) for t in T_GRID]
        return [request(alg, **kw)] + [
            request(alg, q="is_extreme", i=i, **kw) for i in range(7)]

    def items(self):
        idx = 0
        while True:
            fams = self.rng.choice(64, size=4096, p=self.weights).tolist()
            variants = self.rng.integers(0, 8, size=4096).tolist()
            for f, v in zip(fams, variants):
                yield idx, self.universe[f][v]
                idx += 1

    async def setup(self, svc) -> None:
        pass

    async def do(self, svc, item):
        return await svc.submit(item[1])

    def span_name(self, item) -> str:
        return "client.submit"

    def is_write(self, item) -> bool:
        return False

    def on_ok(self, item, resp, timed: bool) -> None:
        idx, req = item
        if (timed and idx % self.stride == 0
                and len(self.samples) < GATE_SAMPLES
                and req.key() not in self.samples):
            self.samples[req.key()] = (req, resp.payload_bytes())

    def exact(self, svc) -> dict:
        return {}

    async def gates(self, svc) -> tuple[list, float]:
        """Sampled responses against a direct, unbatched, uncached run."""
        checks, sim = [], 0.0
        for req, served in self.samples.values():
            direct = direct_response(req, machine_size=SERVICE["machine_size"])
            sim += float(direct["sim_time"])
            same = json.dumps(direct, sort_keys=True).encode() == served
            checks.append((same, f"{req.algorithm}/{req.backend} "
                                 f"{req.family.kind} n={req.family.n}"))
        return checks, sim


class Cold(Zipf):
    """Every request names a fresh family: no hits, dedupe or coalescing."""

    clients = 4
    warmup = 27  # one block of every request shape: fixed set-up work
    stride = 7
    #: algorithm -> family sizes; with three backends, 27 request shapes.
    SIZES = {"envelope": (32, 128, 512), "hull_membership": (8, 16, 32),
             "steady_hull": (16, 32, 64)}

    def __init__(self, seed: int, smoke: bool) -> None:
        self.warmup = 2 if smoke else self.warmup
        self.seed = seed
        self.samples = {}

    def items(self):
        """Each block of 27 requests holds every shape once, in a seeded
        order, so runs differ in data and order but not in mix."""
        rng = np.random.default_rng([self.seed, 3])
        shapes = [(alg, n, backend) for alg in ALGORITHMS
                  for n in self.SIZES[alg] for backend in BACKENDS]
        idx = 0
        while True:
            for k in rng.permutation(len(shapes)).tolist():
                alg, n, backend = shapes[k]
                kw = dict(seed=self.seed * 1_000_000_007 + idx, n=n,
                          backend=backend)
                if alg == "envelope":
                    req = request(alg, kind=ROBUST_CURVES[idx % 4],
                                  op=("min", "max")[int(rng.integers(2))],
                                  **kw)
                elif alg == "hull_membership":
                    req = request(alg, kind=SYSTEMS[idx % len(SYSTEMS)],
                                  query=int(rng.integers(0, n)), **kw)
                else:
                    req = request(alg, kind=SYSTEMS[idx % len(SYSTEMS)],
                                  **kw)
                yield idx, req
                idx += 1

    def exact(self, svc) -> dict:
        cache = svc.cache.stats()
        return {"cache_hits": cache["hits"], "cache_misses": cache["misses"],
                "batches": svc.counters.batches,
                "sim_time_served": svc.counters.sim_time_served}


class Mutating:
    """Writes beside reads on four dynamic families of growing size."""

    clients = 8
    warmup = 2_000
    sizes = (64, 256, 1024, 4096)
    write_share = 0.2
    yield_each = True  # every operation completes without suspending

    def __init__(self, seed: int, smoke: bool) -> None:
        if smoke:
            self.warmup //= 50
            self.sizes = (16, 32, 64, 128)
        self.seed = seed
        self.names = [f"fam{n}" for n in self.sizes]
        self.ids: dict[str, list[int]] = {}
        self.engines: list = []

    async def setup(self, svc) -> None:
        for k, (name, n) in enumerate(zip(self.names, self.sizes)):
            resp = await svc.mutate(mutation(
                name, "create", op="min", kind="random",
                seed=self.seed * 16 + k, n=n))
            self.ids[name] = list(range(resp.payload["result"]["seeded"]))
        self.engines = [svc.dynamic.engine(name) for name in self.names]

    def items(self):
        rng = np.random.default_rng([self.seed, 4])
        idx = 0
        while True:
            k = int(rng.integers(len(self.names)))
            if rng.random() < self.write_share:
                item = {"name": self.names[k], "base": self.sizes[k],
                        "action": ("insert", "delete",
                                   "retarget")[int(rng.integers(3))],
                        "u": float(rng.random()),
                        "coeffs": rng.uniform(-10.0, 10.0, 3).tolist()}
            else:
                item = {"name": self.names[k],
                        "q": "value_at" if rng.random() < 0.8 else "full",
                        "t": float(rng.uniform(0.0, 8.0))}
            yield idx, item
            idx += 1

    async def do(self, svc, item):
        op = item[1]
        name = op["name"]
        if "q" in op:
            if op["q"] == "full":
                return await svc.submit_dynamic(name, q="full")
            return await svc.submit_dynamic(name, q="value_at", t=op["t"])
        ids = self.ids[name]
        action = op["action"]
        # Keep every family between half and twice its seeded size.
        if action == "delete" and len(ids) <= op["base"] // 2:
            action = "insert"
        elif action == "insert" and len(ids) >= 2 * op["base"]:
            action = "delete"
        op["applied"] = action
        if action == "insert":
            return await svc.mutate(mutation(name, "insert",
                                             coeffs=op["coeffs"]))
        op["pos"] = int(op["u"] * len(ids))
        if action == "delete":
            return await svc.mutate(mutation(name, "delete",
                                             curve_id=ids[op["pos"]]))
        return await svc.mutate(mutation(name, "retarget",
                                         curve_id=ids[op["pos"]],
                                         coeffs=op["coeffs"]))

    def span_name(self, item) -> str:
        return ("client.submit_dynamic" if "q" in item[1]
                else "client.mutate")

    def is_write(self, item) -> bool:
        return "q" not in item[1]

    def on_ok(self, item, resp, timed: bool) -> None:
        op = item[1]
        applied = op.get("applied")
        if applied == "insert":
            self.ids[op["name"]].append(resp.payload["result"]["curve_id"])
        elif applied == "delete":
            self.ids[op["name"]].pop(op["pos"])

    def exact(self, svc) -> dict:
        cache = svc.cache.stats()
        out = {"cache_hits": cache["hits"], "cache_misses": cache["misses"],
               "cache_invalidations": cache["invalidations"],
               "dynamic_cache_hits": svc.counters.dynamic_cache_hits}
        for key in ("certificates", "events", "windows"):
            out[key] = sum(e.stats[key] for e in self.engines)
        return out

    async def gates(self, svc) -> tuple[list, float]:
        """Each family against a cold serial recompute of its survivors."""
        from repro.core.envelope import envelope_serial
        from repro.core.family import PolynomialFamily
        from repro.incremental import encode_envelope, envelope_bytes

        checks = []
        for name, engine in zip(self.names, self.engines):
            cold = envelope_serial(engine.reference_curves(),
                                   PolynomialFamily(2), op=engine.op)
            checks.append((engine.canonical_bytes() == envelope_bytes(cold),
                           f"{name} envelope bytes"))
            result = encode_envelope(cold)
            for query in ({"q": "full"}, *({"q": "value_at", "t": t}
                                             for t in T_GRID[:5])):
                resp = await svc.submit_dynamic(name, **query)
                want = answer_query("envelope", result, query)
                same = (json.dumps(resp.payload["answer"], sort_keys=True)
                        == json.dumps(want, sort_keys=True))
                checks.append((same, f"{name} read {query}"))
        return checks, 0.0


WORKLOADS = {"served_zipf": Zipf, "served_cold": Cold,
             "served_mutating": Mutating}


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------
class Log:
    """Latency, completion time and kind of each timed operation.

    Compact float32 arrays, reduced with numpy: the log's own memory
    must stay small next to the program's, since ``peak_rss_mb`` is read
    from the same process.
    """

    def __init__(self) -> None:
        self.start = perf_counter()
        self.lat = array("f")   # ms; +inf when the operation failed
        self.end = array("f")   # completion, seconds after ``start``
        self.write = array("b")
        self.errors: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.lat)

    def add(self, t0: float, t1: float, write: bool, ok: bool) -> None:
        self.lat.append((t1 - t0) * 1e3 if ok else float("inf"))
        self.end.append(t1 - self.start)
        self.write.append(write)

    def fail(self, exc: Exception) -> None:
        key = (f"{type(exc).__name__}: "
               f"{getattr(exc, 'code', None) or exc}")[:200]
        self.errors[key] = self.errors.get(key, 0) + 1

    def failed(self) -> int:
        return int(np.isinf(np.frombuffer(self.lat, np.float32)).sum())

    def latencies_ms(self, ranges=None, write: bool | None = None):
        """Latencies of the ops in ``ranges`` (all ops by default)."""
        lat = np.frombuffer(self.lat, np.float32)
        mask = np.zeros(len(lat), bool)
        for lo, hi in ranges or [(0, len(lat))]:
            mask[lo:hi] = True
        if write is not None:
            mask &= np.frombuffer(self.write, np.int8) == int(write)
        return lat[mask]

    def completed_in(self, lo: float, hi: float) -> int:
        """Operations completed in ``[lo, hi)`` (perf_counter seconds)."""
        end = np.frombuffer(self.end, np.float32)
        return int(((end >= lo - self.start) & (end < hi - self.start)).sum())


async def drive(wl, svc, items, log: Log | None, *, count: int | None = None,
                deadline: float | None = None, rec=None,
                timed: bool = False) -> None:
    """Run ``wl.clients`` closed-loop clients until ``count`` operations
    have been issued or ``deadline`` has passed."""
    issued = 0

    def take():
        nonlocal issued
        if count is not None and issued >= count:
            return None
        if deadline is not None and perf_counter() >= deadline:
            return None
        issued += 1
        return next(items)

    async def client() -> None:
        while True:
            item = take()
            if item is None:
                return
            t0 = perf_counter()
            try:
                resp = await wl.do(svc, item)
            except Exception as exc:  # a failed request is a result, not a crash
                t1 = perf_counter()
                if log is not None:
                    log.add(t0, t1, wl.is_write(item), False)
                    log.fail(exc)
                else:
                    raise
            else:
                t1 = perf_counter()
                if log is not None:
                    log.add(t0, t1, wl.is_write(item), True)
                wl.on_ok(item, resp, timed)
                if rec is not None:
                    rec.client_span(wl.span_name(item), t0, t1,
                                    resp.meta.get("cid"))
            if wl.yield_each:
                await asyncio.sleep(0)

    await asyncio.gather(*(client() for _ in range(wl.clients)))


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
async def served(args, send) -> None:
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    items = wl.items()
    async with QueryService(**SERVICE) as svc:
        await wl.setup(svc)
        await drive(wl, svc, items, None, count=wl.warmup)
        exact = wl.exact(svc)
        send({"event": "ready"})
        if args.role == "setup":
            return
        log = Log()
        if args.trace:
            layer = await traced_segments(wl, svc, items, log, args)
        else:
            t_start = perf_counter()
            await drive(wl, svc, items, log, deadline=t_start + args.seconds,
                        timed=True)
            seg = args.seconds / SEGMENTS
            rates = [log.completed_in(t_start + k * seg,
                                      t_start + (k + 1) * seg) / seg
                     for k in range(SEGMENTS)]
            lat = log.latencies_ms()
            layer = {}
        checks, sim = await wl.gates(svc)
    result = {"event": "result", "exact": {**exact, "gate_sim_time": sim},
              "attempted": len(log) + len(checks),
              "failed": log.failed() + sum(1 for ok, _ in checks if not ok),
              "checks": [[ok, what] for ok, what in checks],
              "errors": log.errors, "rss_mb": rss_mb()}
    if args.trace:
        layer["machines.sim_time_total"] = (sim, len(checks))
        result["layer"] = layer
    else:
        result["metrics"] = {
            "throughput_ops": (float(np.median(rates)), len(rates)),
            "latency_p50_ms": (percentile(lat, 0.50), len(lat)),
            "latency_p99_ms": (percentile(lat, 0.99), len(lat)),
        }
    send(result)


async def traced_segments(wl, svc, items, log: Log, args) -> dict:
    """Alternate untraced and traced segments; per-layer metrics come
    from the traced ones, the overhead from comparing the two kinds."""
    import layers
    import tracing

    hooks = layers.Hooks()
    rec = tracing.SpanRecorder(sampled=layers.SAMPLED)
    engines = getattr(wl, "engines", ())
    seg = args.seconds / len(TRACE_PLAN)
    d: dict = {}
    # traced? -> [(first op, end op, completions in window, seconds)]
    spans: dict[bool, list] = {False: [], True: []}
    for traced in TRACE_PLAN:
        lo = len(log)
        undo = []
        if traced:
            before = layers.counters(svc, engines)
            undo = tracing.install(rec, layers.targets(hooks))
        t0 = perf_counter()
        try:
            await drive(wl, svc, items, log, deadline=t0 + seg,
                        rec=rec if traced else None, timed=True)
        finally:
            tracing.uninstall(undo)
        t1 = perf_counter()
        if traced:
            layers.delta(before, layers.counters(svc, engines), d)
            hooks.end_segment()
        spans[traced].append((lo, len(log), log.completed_in(t0, t0 + seg),
                              seg))
    m = layers.layer_metrics(
        rec, hooks, d, ops=sum(s[2] for s in spans[True]),
        wall=sum(s[3] for s in spans[True]), shards=SERVICE["shards"])

    def rate(kind: bool) -> float:
        return (sum(s[2] for s in spans[kind])
                / sum(s[3] for s in spans[kind]))

    def ranges(kind: bool) -> list[tuple[int, int]]:
        return [(lo, hi) for lo, hi, _, _ in spans[kind]]

    def p50(kind: bool) -> float:
        return percentile(log.latencies_ms(ranges(kind)), 0.50)

    m["trace.overhead.throughput_pct"] = (
        (rate(False) / rate(True) - 1.0) * 100.0, len(TRACE_PLAN))
    m["trace.overhead.latency_p50_pct"] = (
        (p50(True) / p50(False) - 1.0) * 100.0, len(log))
    for kind, flag in (("read", False), ("write", True)):
        lat = log.latencies_ms(ranges(False), write=flag)
        if kind == "write":
            m["client.write_latency_ms.p50"] = (percentile(lat, 0.50),
                                                len(lat))
        m[f"client.{kind}_latency_ms.p99"] = (percentile(lat, 0.99),
                                              len(lat))
    write_trace(args, rec)
    return m


def write_trace(args, rec) -> None:
    """Spans to a Chrome trace file, with provenance and counters, when
    the run was given a file to write."""
    from repro.trace.export import write_chrome_trace
    from repro.trace.provenance import provenance_manifest
    from repro.trace.registry import registry_snapshot

    if not args.trace_out:
        return
    path = pathlib.Path(args.trace_out)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(path, rec.forest(), provenance=provenance_manifest(
        seed=args.seed, config={"workload": args.workload,
                                "seconds": args.seconds, "role": args.role}),
        counters=registry_snapshot())


# ----------------------------------------------------------------------
# Offline report pass
# ----------------------------------------------------------------------
def report_pass(args, send) -> None:
    import repro.report as report

    send({"event": "ready"})
    if args.role == "setup":
        return
    names = (args.experiments.split(",") if args.experiments
             else list(report.EXPERIMENTS))
    texts = {}
    if args.trace:
        import layers
        import tracing

        hooks = layers.Hooks()
        rec = tracing.SpanRecorder(sampled=layers.SAMPLED)
        before = layers.counters()
        undo = tracing.install(rec, layers.targets(hooks))
        undo += hooks.patch_machines()
    t_start = perf_counter()
    try:
        for name in names:
            texts[name] = report.run_captured(name)
    finally:
        if args.trace:
            tracing.uninstall(undo)
    wall = perf_counter() - t_start
    result = {"event": "result", "texts": texts, "wall": wall,
              "rss_mb": rss_mb()}
    if args.trace:
        d: dict = {}
        layers.delta(before, layers.counters(), d)
        # The operation is the whole pass.
        m = layers.layer_metrics(rec, hooks, d, ops=1, wall=wall,
                                 shards=SERVICE["shards"])
        m["machines.sim_time_total"] = (
            float(sum(metrics.time for metrics in hooks.machine_metrics)),
            len(hooks.machine_metrics))
        result["layer"] = m
        write_trace(args, rec)
    send(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run", "pass"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--experiments", default="")
    args = parser.parse_args(argv)

    # The protocol keeps the original stdout; the program's own output
    # (fd 1 included) goes to stderr.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(msg: dict) -> None:
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    if args.workload == "offline_report":
        report_pass(args, send)
    else:
        asyncio.run(served(args, send))
    proto.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
