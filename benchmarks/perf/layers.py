"""Which layer boundaries a traced run wraps, and the per-layer metrics.

Every target is a public function of one layer, wrapped at the name its
caller looks up (see :func:`tracing.install`).  The metrics combine the
spans with counters the program already keeps: ``svc.counters``,
``cache.stats()``, the incremental engines' ``stats``,
``registry_snapshot()`` and ``global_wall_phases()``.  All of them are
read as deltas over the traced segments only.
"""

from __future__ import annotations

import repro.report as report
from repro.incremental import IncrementalEnvelope
from repro.kinetics import batch as kinetics_batch
from repro.machines.machine import Machine
from repro.machines.metrics import global_wall_phases
from repro.obs.telemetry import ServiceTelemetry
from repro.service import model, planner, workers
from repro.service.cache import ShardedResultCache
from repro.service.dynamic import DynamicFamilyStore
from repro.trace.registry import registry_snapshot

from tracing import layer_of, percentile

__all__ = ["Hooks", "targets", "counters", "delta", "layer_metrics",
           "PHASES", "SAMPLED", "LAYERS"]

#: Every ``Metrics.phase`` label some workload reaches
#: (``ops.phase_s.<label>``).  ``angular-sort`` and ``gap-check`` belong
#: to ``steady_is_extreme_angular``, which neither the service nor the
#: report calls.
PHASES = ("merge", "scan", "cross", "pack", "fuse", "sort", "hull-merge",
          "cp-merge", "antipodal", "broadcast", "semigroup", "steady-max",
          "steady-min")

#: Layers whose self time is reported (``selftime.<layer>.us_per_op``).
LAYERS = ("planner", "model", "workers", "cache", "obs", "core", "kinetics",
          "dynamic", "incremental", "report")

#: Span names whose individual durations feed percentiles.
SAMPLED = frozenset({"workers.execute_batch", "dynamic.apply",
                     "dynamic.entry", "incremental.insert",
                     "incremental.delete", "incremental.retarget"})


def _pending_cids(args, kwargs):
    return tuple(p.cid for p in args[0])


def _payload_cids(args, kwargs):
    return tuple(args[0].get("cids") or ())


def _emit_cids(args, kwargs):
    cid = args[2] if len(args) > 2 else kwargs.get("cid")
    return tuple(kwargs.get("cids") or ()) + ((cid,) if cid else ())


class Hooks:
    """Timing taken at call boundaries that spans alone cannot give."""

    def __init__(self) -> None:
        self.queue_wait: list[float] = []
        self.worker_wait: list[float] = []
        self.experiment_s: dict[str, list[float]] = {}
        self.machine_metrics: list = []
        self._handoff: dict[str, float] = {}

    def plan_before(self, t0, args, kwargs) -> None:
        # pending.t0 is stamped at submit on the same perf_counter clock.
        self.queue_wait.extend(t0 - p.t0 for p in args[0])

    def plan_after(self, t0, t1, args, kwargs) -> None:
        for p in args[0]:
            self._handoff[p.cid] = t1

    def execute_before(self, t0, args, kwargs) -> None:
        cids = args[0].get("cids") or ()
        t_planned = self._handoff.pop(cids[0], None) if cids else None
        if t_planned is not None:
            self.worker_wait.append(t0 - t_planned)

    def experiment_after(self, t0, t1, args, kwargs) -> None:
        self.experiment_s.setdefault(args[0], []).append(t1 - t0)

    def end_segment(self) -> None:
        self._handoff.clear()

    def patch_machines(self) -> list[tuple]:
        """Record every machine built while traced (offline sim total)."""
        original = Machine.__init__
        sink = self.machine_metrics

        def init(machine, *args, **kwargs):
            original(machine, *args, **kwargs)
            sink.append(machine.metrics)

        Machine.__init__ = init
        return [(Machine, "__init__", original)]


def targets(hooks: Hooks) -> list[tuple]:
    """``(owner, attr, span name, cids_of, before, after)`` per boundary."""
    return [
        (planner, "plan_batches", "planner.plan_batches", _pending_cids,
         hooks.plan_before, hooks.plan_after),
        (model, "validate_request", "model.validate_request", None, None,
         None),
        (model, "response_payload", "model.response_payload", None, None,
         None),
        (model.FamilySpec, "build", "model.build", None, None, None),
        (workers, "execute_batch", "workers.execute_batch", _payload_cids,
         hooks.execute_before, None),
        (ShardedResultCache, "get", "cache.get", None, None, None),
        (ShardedResultCache, "put", "cache.put", None, None, None),
        (ShardedResultCache, "invalidate", "cache.invalidate", None, None,
         None),
        (ServiceTelemetry, "emit", "obs.emit", _emit_cids, None, None),
        (ServiceTelemetry, "observe", "obs.observe", None, None, None),
        (model, "envelope", "core.envelope", None, None, None),
        (model, "envelope_serial", "core.envelope_serial", None, None, None),
        (model, "hull_membership_intervals", "core.hull_membership", None,
         None, None),
        (model, "steady_hull", "core.steady_hull", None, None, None),
        (kinetics_batch, "batch_real_roots", "kinetics.batch_real_roots",
         None, None, None),
        (kinetics_batch, "warm_root_candidates",
         "kinetics.warm_root_candidates", None, None, None),
        (DynamicFamilyStore, "apply", "dynamic.apply", None, None, None),
        (DynamicFamilyStore, "entry", "dynamic.entry", None, None, None),
        (IncrementalEnvelope, "insert", "incremental.insert", None, None,
         None),
        (IncrementalEnvelope, "delete", "incremental.delete", None, None,
         None),
        (IncrementalEnvelope, "retarget", "incremental.retarget", None, None,
         None),
        (report, "run_captured", "report.run_captured", None, None,
         hooks.experiment_after),
    ]


def counters(svc=None, engines=()) -> dict[str, float]:
    """One flat snapshot of every counter the layer metrics read."""
    snap: dict[str, float] = {}
    for name, value in registry_snapshot().items():
        if isinstance(value, (int, float)):
            snap[f"reg.{name}"] = value
    for label, seconds in global_wall_phases().items():
        snap[f"phase.{label}"] = seconds
    if svc is not None:
        for name, value in svc.counters.to_dict().items():
            snap[f"svc.{name}"] = value
        for name, value in svc.cache.stats().items():
            snap[f"cache.{name}"] = value
    for engine in engines:
        for name, value in engine.stats.items():
            snap[f"eng.{name}"] = snap.get(f"eng.{name}", 0) + value
    return snap


def delta(before: dict, after: dict, into: dict) -> None:
    """Accumulate ``after - before`` into ``into``."""
    for key, value in after.items():
        into[key] = into.get(key, 0) + value - before.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, hooks: Hooks, d: dict, ops: int, wall: float,
                  shards: int) -> dict[str, tuple[float, int]]:
    """``metric -> (value, samples)`` for one workload's traced segments.

    ``d`` holds counter deltas, ``ops`` the client operations completed
    while traced, ``wall`` the traced seconds.  A layer the workload
    never reaches reads 0.
    """
    tot = rec.totals()

    def count(name: str) -> int:
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return tot.get(name, (0, 0.0, 0.0))[1]

    def mean(name: str) -> float:
        return _ratio(total(name), count(name))

    m: dict[str, tuple[float, int]] = {}
    qw = [w * 1e3 for w in hooks.queue_wait]
    m["server.queue_wait_ms.p50"] = (percentile(qw, 0.50), len(qw))
    m["server.queue_wait_ms.p99"] = (percentile(qw, 0.99), len(qw))
    batches = d.get("svc.batches", 0)
    batched = d.get("svc.batched_requests", 0)
    m["server.batch_size.mean"] = (_ratio(batched, batches), batches)
    m["server.dedup_ratio"] = (_ratio(d.get("svc.dedup_hits", 0), batched),
                               batched)
    m["server.coalesced"] = (d.get("svc.coalesced_requests", 0), 1)
    m["server.errors"] = (d.get("svc.errors", 0), 1)

    requests = d.get("svc.requests", 0)
    responses = d.get("svc.responses", 0)
    m["planner.busy_us_per_req"] = (
        _ratio(total("planner.plan_batches"), requests) * 1e6, requests)
    m["model.validate_us_per_req"] = (
        mean("model.validate_request") * 1e6, count("model.validate_request"))
    m["model.payload_us_per_resp"] = (
        _ratio(total("model.response_payload"), responses) * 1e6, responses)
    m["model.build_ms_per_run"] = (mean("model.build") * 1e3,
                                   count("model.build"))

    hits, misses = d.get("cache.hits", 0), d.get("cache.misses", 0)
    m["cache.hit_rate"] = (_ratio(hits, hits + misses), hits + misses)
    m["cache.lookup_us"] = (mean("cache.get") * 1e6, count("cache.get"))
    m["cache.evictions"] = (d.get("cache.evictions", 0), 1)
    m["cache.invalidations"] = (d.get("cache.invalidations", 0), 1)

    m["obs.emit_us_per_req"] = (_ratio(total("obs.emit"), ops) * 1e6, ops)
    m["obs.events_per_req"] = (_ratio(count("obs.emit"), ops), ops)

    busy = [s * 1e3 for s in rec.samples("workers.execute_batch")]
    wait = [s * 1e3 for s in hooks.worker_wait]
    runs = count("workers.execute_batch")
    run_s = total("workers.execute_batch")
    run_self = tot.get("workers.execute_batch", (0, 0.0, 0.0))[2]
    m["workers.runs"] = (runs, 1)
    m["workers.busy_ms.p50"] = (percentile(busy, 0.50), len(busy))
    m["workers.busy_ms.p99"] = (percentile(busy, 0.99), len(busy))
    m["workers.wait_ms.p50"] = (percentile(wait, 0.50), len(wait))
    m["workers.wait_ms.p99"] = (percentile(wait, 0.99), len(wait))
    m["workers.utilization"] = (_ratio(run_s, wall * shards), runs)
    m["workers.retries"] = (d.get("svc.retries", 0), 1)
    m["workers.core_coverage"] = (_ratio(run_s - run_self, run_s), runs)

    for metric, span in (("envelope", "core.envelope"),
                         ("envelope_serial", "core.envelope_serial"),
                         ("hull_membership", "core.hull_membership"),
                         ("steady_hull", "core.steady_hull")):
        m[f"core.{metric}_ms_per_call"] = (mean(span) * 1e3, count(span))
    xh = d.get("reg.crossing_cache.hits", 0)
    xm = d.get("reg.crossing_cache.misses", 0)
    m["core.crossing_cache.hit_rate"] = (_ratio(xh, xh + xm), xh + xm)

    kin = [name for name in tot if layer_of(name) == "kinetics"]
    m["kinetics.roots_ms"] = (sum(tot[n][2] for n in kin) * 1e3,
                              sum(tot[n][0] for n in kin))
    m["kinetics.roots_calls"] = (count("kinetics.warm_root_candidates"), 1)

    for label in PHASES:
        m[f"ops.phase_s.{label}"] = (d.get(f"phase.{label}", 0.0), 1)
    ph = d.get("reg.movement_plans.hits", 0)
    pm = d.get("reg.movement_plans.misses", 0)
    m["ops.plan.hit_rate"] = (_ratio(ph, ph + pm), ph + pm)
    m["ops.plan.compile_s"] = (d.get("reg.movement_plans.compile_seconds",
                                     0.0), pm)
    low = d.get("reg.vexec.lowered", 0)
    fb = d.get("reg.vexec.fallbacks", 0)
    m["ops.vexec.fallback_ratio"] = (_ratio(fb, low + fb), low + fb)

    apply_us = [s * 1e6 for s in rec.samples("dynamic.apply")]
    entry_us = [s * 1e6 for s in rec.samples("dynamic.entry")]
    m["dynamic.apply_us.p50"] = (percentile(apply_us, 0.50), len(apply_us))
    m["dynamic.apply_us.p99"] = (percentile(apply_us, 0.99), len(apply_us))
    m["dynamic.entry_us.p50"] = (percentile(entry_us, 0.50), len(entry_us))
    m["dynamic.entry_us.p99"] = (percentile(entry_us, 0.99), len(entry_us))
    for action in ("insert", "delete", "retarget"):
        us = [s * 1e6 for s in rec.samples(f"incremental.{action}")]
        m[f"incremental.{action}_us.p50"] = (percentile(us, 0.50), len(us))
    updates = sum(d.get(f"eng.{k}", 0)
                  for k in ("inserts", "deletes", "retargets"))
    m["incremental.certificates_per_update"] = (
        _ratio(d.get("eng.certificates", 0), updates), updates)
    m["incremental.events_per_update"] = (
        _ratio(d.get("eng.events", 0), updates), updates)
    dq = d.get("svc.dynamic_queries", 0)
    m["dynamic.read_hit_rate"] = (_ratio(d.get("svc.dynamic_cache_hits", 0),
                                         dq), dq)

    exp_total = 0.0
    for name in report.EXPERIMENTS:
        runs_s = hooks.experiment_s.get(name, [])
        exp_total += sum(runs_s)
        m[f"report.experiment_s.{name}"] = (
            _ratio(sum(runs_s), len(runs_s)), len(runs_s))
    n_exp = sum(len(v) for v in hooks.experiment_s.values())
    m["report.coverage"] = (_ratio(exp_total, wall) if n_exp else 0.0,
                            n_exp)

    for layer in LAYERS:
        self_s = sum(cell[2] for name, cell in tot.items()
                     if layer_of(name) == layer)
        m[f"selftime.{layer}.us_per_op"] = (_ratio(self_s, ops) * 1e6, ops)
    m["trace.spans"] = (sum(cell[0] for cell in tot.values()), 1)
    return m
