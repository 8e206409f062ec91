"""Envelope-as-a-service: the asyncio batching/caching query server.

:class:`QueryService` is the long-running front end (``docs/service.md``):
clients ``await submit(request)`` with a ``(curve-family, query)``
request; a batching loop collects concurrent arrivals, the planner
(:mod:`repro.service.planner`) collapses compatible queries into batch
units backed by a single simulated run each, units are sharded
deterministically across worker pools, and repeat traffic is served from
the sharded bounded cache (:mod:`repro.service.cache`).

Serving discipline:

* **event-loop purity** — the loop only plans, keys, caches, and
  evaluates encoded answers; every simulated run crosses into a shard
  worker via ``pool.submit`` (RPR007 enforces this statically: async
  handlers must not call blocking driver code);
* **determinism** — a response payload is a pure function of the request
  and the service configuration.  Batching, dedupe, caching, shard
  count, worker mode, and arrival order can change only *metadata*
  (latency, cache flags), never a payload byte;
* **degradation** — a failed worker (killed process, raised fault) is
  retried on a fresh pool up to ``retries`` times, then the batch's
  waiters receive a structured :class:`~repro.service.model.ServiceError`
  — the service itself keeps serving;
* **observability** — every served batch appends a ``batch`` span (with
  the run's simulated charges) carrying per-request child spans to the
  bounded span ring, and exact hit/miss/batch-size counters land in the
  instance's :class:`ServiceStats`.  Responses carry a
  ``repro.provenance/1`` manifest.

Operational telemetry (:mod:`repro.obs`, docs/operations.md) rides every
serving path: a correlation id (``cid``) is minted at submit time and
propagated through planner batches (``bid``), worker payloads, retries,
spans, and the structured lifecycle event log, so one grep reconstructs
any request's path; latency/size/depth distributions land in
deterministic log2 histograms; :meth:`QueryService.stats` returns the
versioned ``repro.obs/2`` snapshot; and the flight recorder dumps the
tails of the event log and the span ring as a ``repro.postmortem/2``
file on degradation or worker death.  Each signal is kept once.  All of it
is host-clock-only — with telemetry fully enabled, response payloads and
simulated charges are bit-identical to an untelemetered run.
"""

from __future__ import annotations

import asyncio
import pathlib
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable

from ..obs.recorder import FlightRecorder
from ..obs.telemetry import STATS_SCHEMA, ServiceTelemetry
from ..trace.provenance import provenance_manifest
from .cache import ShardedResultCache
from .dynamic import DynamicFamilyStore
from .model import (
    MutationRequest,
    QueryRequest,
    QueryResponse,
    ServiceError,
    _QUERY_SHAPES,
    answer_query,
    response_payload,
    validate_mutation,
    validate_request,
)
from .planner import BatchUnit, plan_batches
from .workers import ShardPools, execute_batch

__all__ = ["QueryService", "ServiceStats"]


@dataclass
class _Pending:
    """One submitted request awaiting its response."""

    request: QueryRequest
    future: asyncio.Future
    t0: float
    #: Correlation id minted at submit time (`q-...`), carried through
    #: events, batch payloads, spans, and the response metadata.
    cid: str = ""


@dataclass
class ServiceStats:
    """Exact instance counters for one service's lifetime."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    cancelled: int = 0
    batches: int = 0
    batched_requests: int = 0
    batch_max: int = 0
    dedup_hits: int = 0
    cache_hit_requests: int = 0
    cold_requests: int = 0
    coalesced_requests: int = 0
    retries: int = 0
    spans_dropped: int = 0
    mutations: int = 0
    dynamic_queries: int = 0
    dynamic_cache_hits: int = 0
    invalidated_keys: int = 0
    postmortems: int = 0
    #: Simulated time of the cold runs this service executed — the
    #: service's "work done" on the simulated clock, accumulated from
    #: run entries (telemetry never adds charges of its own).
    sim_time_served: float = 0.0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class QueryService:
    """Batched, cached, sharded asyncio query server over the drivers.

    Use as an async context manager::

        async with QueryService(shards=4) as svc:
            resp = await svc.submit(request("envelope", kind="random",
                                            seed=3, n=8, op="min"))

    ``workers`` selects the shard pool mode: ``"thread"`` (in-process,
    sharing the process's caches; the default) or ``"process"``
    (isolated workers; worker death is survivable).  Thread mode runs
    every shard on one worker thread, because the GIL lets no two Python
    threads run the simulator at once; shards run concurrently only in
    process mode.  ``shards`` partitions the cache and the batch plan in
    both modes.
    """

    def __init__(self, *, shards: int = 2, workers: str = "thread",
                 cache_capacity: int = 256,
                 batching: bool = True, max_batch: int = 64,
                 batch_window: float = 0.0, machine_size: int = 64,
                 retries: int = 1, span_limit: int = 4096,
                 event_capacity: int = 4096,
                 events_path: str | pathlib.Path | None = None,
                 postmortem_dir: str | pathlib.Path | None = None,
                 ) -> None:
        self.n_shards = max(1, int(shards))
        self.worker_mode = workers
        self.batching = bool(batching)
        self.max_batch = max(1, int(max_batch))
        self.batch_window = float(batch_window)
        self.machine_size = int(machine_size)
        self.retries = max(0, int(retries))
        self.span_limit = max(0, int(span_limit))
        self.cache = ShardedResultCache(cache_capacity, shards=self.n_shards)
        self.dynamic = DynamicFamilyStore()
        self.counters = ServiceStats()
        self.obs = ServiceTelemetry(event_capacity=event_capacity,
                                    events_path=events_path)
        self.spans: deque = deque(maxlen=self.span_limit)
        self.recorder = FlightRecorder(self.obs.events, self.spans)
        self.postmortem_dir = postmortem_dir
        self.last_postmortem = None
        self._t0: float | None = None
        self._uptime = 0.0
        self._pending: list[_Pending] = []
        self._inflight: dict[tuple, asyncio.Task] = {}
        self._faults: list[str] = []
        self._pools: ShardPools | None = None
        self._batcher: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._provenance: dict = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryService":
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        config = {
            "shards": self.n_shards, "workers": self.worker_mode,
            "cache_capacity": self.cache.capacity,
            "batching": self.batching, "max_batch": self.max_batch,
            "batch_window": self.batch_window,
            "machine_size": self.machine_size,
        }
        self._provenance = provenance_manifest(config=config)
        self._pools = ShardPools(self.n_shards, self.worker_mode)
        self._wake = asyncio.Event()
        self._batcher = self._loop.create_task(self._batch_loop())
        self._t0 = perf_counter()
        self._started = True
        return self

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        assert self._batcher is not None and self._pools is not None
        self._batcher.cancel()
        try:
            await self._batcher
        except asyncio.CancelledError:
            pass
        err = ServiceError("shutdown", "service stopped with the request "
                                       "still pending")
        for pending in self._pending:
            if not pending.future.done():
                pending.future.set_exception(err)
                self.obs.emit("failed", pending.cid, code="shutdown")
        self._pending.clear()
        inflight = list(self._inflight.values())
        for task in inflight:
            task.cancel()
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        self._inflight.clear()
        self.dynamic.clear()
        self._pools.shutdown()
        if self._t0 is not None:
            self._uptime = perf_counter() - self._t0
            self._t0 = None
        self.obs.close()

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    async def submit(self, req: QueryRequest) -> QueryResponse:
        """Serve one request; raises :class:`ServiceError` on failure."""
        if not self._started:
            raise ServiceError("not_started", "call start() (or use the "
                                              "service as an async context "
                                              "manager) before submitting")
        cid = self.obs.mint("q")
        self.obs.emit("request_received", cid, algorithm=req.algorithm)
        problems = validate_request(req)
        if problems:
            self.obs.emit("failed", cid, code="bad_request")
            raise ServiceError("bad_request", "; ".join(problems),
                               {"request": req.to_dict(), "cid": cid})
        assert self._loop is not None and self._wake is not None
        fut: asyncio.Future = self._loop.create_future()
        self._pending.append(_Pending(req, fut, perf_counter(), cid))
        self.counters.requests += 1
        self._wake.set()
        return await fut

    async def submit_many(
            self, reqs: Iterable[QueryRequest]) -> list[QueryResponse]:
        """Serve many requests concurrently, results in request order."""
        return list(await asyncio.gather(*(self.submit(r) for r in reqs)))

    async def mutate(self, m: MutationRequest) -> QueryResponse:
        """Apply one write to a dynamic family; returns the mutation
        receipt as a response.

        The incremental engine updates the envelope in place (amortized
        incremental cost — never a full simulated recompute), then the
        family's cached run keys are evicted one by one
        (``cache.invalidate``): targeted invalidation with exact
        accounting, leaving every other family's entries untouched.
        State errors (unknown family, unknown curve id) raise
        :class:`ServiceError` with a machine-readable code.
        """
        if not self._started:
            raise ServiceError("not_started", "call start() (or use the "
                                              "service as an async context "
                                              "manager) before mutating")
        cid = self.obs.mint("m")
        problems = validate_mutation(m)
        if problems:
            self.obs.emit("failed", cid, code="bad_mutation")
            raise ServiceError("bad_mutation", "; ".join(problems),
                               {"mutation": m.to_dict(), "cid": cid})
        t0 = perf_counter()
        keys: dict = {}
        if m.action == "drop" and m.name in self.dynamic:
            # The drop discards the family object (and its key
            # registration) — capture the keys first.
            keys = dict(self.dynamic.family(m.name).cached_keys)
        try:
            result = self.dynamic.apply(m.name, m.action, dict(m.params))
        except ServiceError as exc:
            self.obs.emit("failed", cid, code=exc.code, name=m.name,
                          action=m.action)
            raise
        if m.name in self.dynamic:
            keys.update(self.dynamic.take_cached(m.name))
        invalidated = sum(
            1 for key in keys if self.cache.invalidate(key)
        )
        self.counters.mutations += 1
        self.counters.invalidated_keys += invalidated
        latency = perf_counter() - t0
        self.obs.emit("mutation_applied", cid, name=m.name, action=m.action,
                      version=result.get("version"), invalidated=invalidated)
        if invalidated:
            self.obs.emit("cache_invalidated", cid, name=m.name,
                          keys=invalidated)
        self._record_aux_span(f"mutation:{m.action}", "mutation", {
            "cid": cid, "name": m.name, "action": m.action,
            "invalidated": invalidated, "version": result.get("version"),
        }, latency)
        payload = {
            "schema": "repro.service/1",
            "mutation": m.to_dict(),
            "result": result,
            "invalidated": invalidated,
        }
        meta = {"latency_s": latency,
                "invalidated": invalidated,
                "cid": cid}
        return QueryResponse(payload, meta, self._provenance)

    async def submit_dynamic(self, name: str, **params) -> QueryResponse:
        """Serve an envelope query against a dynamic family.

        Read traffic against mutated state: the answer comes from the
        maintained envelope's encoded entry (cached under the family's
        run key until the next mutation evicts it) through the same
        pure ``answer_query`` path as driver results — so after any
        mutation sequence the answer is byte-identical to a cold serial
        driver run over the surviving curves.
        """
        if not self._started:
            raise ServiceError("not_started", "call start() (or use the "
                                              "service as an async context "
                                              "manager) before submitting")
        t0 = perf_counter()
        cid = self.obs.mint("d")
        self.obs.emit("request_received", cid, algorithm="envelope",
                      domain="dynamic", name=name)
        query = dict(params)
        query.setdefault("q", "full")
        shapes = _QUERY_SHAPES["envelope"]
        if query["q"] not in shapes:
            self.obs.emit("failed", cid, code="bad_request", name=name)
            raise ServiceError("bad_request",
                               f"unknown envelope query {query['q']!r}; "
                               f"have {sorted(shapes)}", {"name": name})
        for needed in shapes[query["q"]]:
            if needed not in query:
                self.obs.emit("failed", cid, code="bad_request", name=name)
                raise ServiceError("bad_request",
                                   f"query {query['q']!r} requires "
                                   f"parameter {needed!r}", {"name": name})
        try:
            fam = self.dynamic.family(name)
        except ServiceError as exc:
            self.obs.emit("failed", cid, code=exc.code, name=name)
            raise
        key = self.dynamic.run_key(name)
        t_lookup = perf_counter()
        entry = self.cache.get(key)
        self.obs.observe("cache_lookup_s", perf_counter() - t_lookup)
        cache_hit = entry is not None
        if entry is None:
            entry = self.dynamic.entry(name)
            self.cache.put(key, entry)
            self.dynamic.note_cached(name, key)
        self.counters.dynamic_queries += 1
        if cache_hit:
            self.counters.dynamic_cache_hits += 1
        payload = {
            "schema": "repro.service/1",
            "algorithm": "envelope",
            "family": {"domain": "dynamic", "name": name,
                       "version": fam.engine.version,
                       "size": len(fam.engine)},
            "backend": "incremental",
            "machine_size": 0,
            "executor": None,
            "run_params": {"op": fam.op},
            "query": query,
            "answer": answer_query("envelope", entry["result"], query),
            "sim_time": entry["sim_time"],
        }
        latency = perf_counter() - t0
        self.obs.observe("request_latency_s", latency)
        self.obs.emit("completed", cid, cache_hit=cache_hit, name=name)
        self._record_aux_span("dynamic:envelope", "dynamic", {
            "cid": cid, "name": name, "cache_hit": cache_hit,
            "query": query.get("q"),
        }, latency)
        meta = {"cache_hit": cache_hit,
                "latency_s": latency,
                "cid": cid}
        return QueryResponse(payload, meta, self._provenance)

    def inject_fault(self, mode: str, count: int = 1) -> None:
        """Arm ``count`` one-shot worker faults (test hook).

        ``"raise"`` makes the next batch attempts raise inside the
        worker; ``"die"`` kills the worker process mid-batch (process
        pools only — killing a thread worker would kill the server).
        """
        if mode not in ("raise", "die"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if mode == "die" and self.worker_mode != "process":
            raise ValueError("fault mode 'die' requires process workers")
        self._faults.extend([mode] * max(1, int(count)))

    # ------------------------------------------------------------------
    # Batching loop
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            else:
                await asyncio.sleep(0)
            pending, self._pending = self._pending, []
            if not pending:
                continue
            self.obs.observe("queue_depth", len(pending))
            units = plan_batches(
                pending, machine_size=self.machine_size,
                n_shards=self.n_shards,
                batching=self.batching, max_batch=self.max_batch,
            )
            for unit in units:
                self._dispatch(unit)

    def _dispatch(self, unit: BatchUnit) -> None:
        assert self._loop is not None
        unit.bid = self.obs.mint("b")
        self.counters.batches += 1
        self.counters.batched_requests += unit.size
        self.counters.dedup_hits += unit.dedup_hits
        if unit.size > self.counters.batch_max:
            self.counters.batch_max = unit.size
        self.obs.observe("batch_size", unit.size)
        # One batch-scoped event for the whole unit (like ``dispatched``):
        # ``cids`` carries every attached request, so ``for_cid`` still
        # reconstructs each chain at a fraction of the per-request cost.
        self.obs.emit("batched", unit.bid,
                      cids=[pending.cid for pending in unit.waiters],
                      size=unit.size, shard=unit.shard)
        t_lookup = perf_counter()
        entry = self.cache.get(unit.key)
        self.obs.observe("cache_lookup_s", perf_counter() - t_lookup)
        if entry is not None:
            self.counters.cache_hit_requests += unit.size
            self._resolve(unit, entry, cache_hit=True)
            return
        task = self._inflight.get(unit.key) if self.batching else None
        coalesced = task is not None
        if task is None:
            task = self._loop.create_task(self._run_unit(unit))
            if self.batching:
                self._inflight[unit.key] = task
        self._loop.create_task(self._deliver(unit, task, coalesced))

    async def _run_unit(self, unit: BatchUnit) -> dict:
        try:
            entry = await self._execute_with_retries(unit)
        finally:
            self._inflight.pop(unit.key, None)
        self.counters.sim_time_served += float(entry.get("sim_time") or 0.0)
        self.cache.put(unit.key, entry)
        return entry

    async def _deliver(self, unit: BatchUnit, task: asyncio.Task,
                       coalesced: bool) -> None:
        try:
            entry = await asyncio.shield(task)
        except asyncio.CancelledError:
            entry = None
            err = ServiceError("shutdown", "service stopped mid-batch",
                               {"algorithm": unit.algorithm})
        except ServiceError as exc:
            entry = None
            err = exc
        except Exception as exc:  # defensive: a bug must not hang waiters
            entry = None
            err = ServiceError("internal", f"unexpected batch failure: "
                                           f"{exc!r}",
                               {"algorithm": unit.algorithm})
        if entry is None:
            for pending in unit.waiters:
                if not pending.future.done():
                    pending.future.set_exception(err)
                    self.obs.emit("failed", pending.cid, batch=unit.bid,
                                  code=err.code)
            if err.code == "worker_failed" and not coalesced:
                # Degradation: the batch exhausted its retries.  Dump
                # after the failed events so the postmortem carries each
                # waiter's full chain (received -> ... -> failed).
                self._postmortem("service_error", {
                    "batch": unit.bid, "shard": unit.shard,
                    "algorithm": unit.algorithm, "code": err.code,
                    "cids": [p.cid for p in unit.waiters],
                    "detail": err.detail,
                })
            return
        if coalesced:
            self.counters.coalesced_requests += unit.size
        else:
            self.counters.cold_requests += unit.size
        self._resolve(unit, entry, cache_hit=False, coalesced=coalesced)

    async def _execute_with_retries(self, unit: BatchUnit) -> dict:
        assert self._pools is not None
        attempts = 0
        cids = [pending.cid for pending in unit.waiters]
        while True:
            attempts += 1
            payload = self._build_payload(unit)
            self.obs.emit("dispatched", unit.bid, shard=unit.shard,
                          attempt=attempts, cids=cids)
            try:
                pool = self._pools.pool(unit.shard)
                entry = await asyncio.wrap_future(
                    pool.submit(execute_batch, payload))
                entry["attempts"] = attempts
                self.obs.observe("worker_turnaround_s",
                                 float(entry.get("wall", 0.0)))
                return entry
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                if isinstance(exc, BrokenExecutor):
                    self._pools.restart(unit.shard)
                    self._postmortem("worker_death", {
                        "batch": unit.bid, "shard": unit.shard,
                        "attempt": attempts, "algorithm": unit.algorithm,
                        "cids": cids, "error": repr(exc),
                    })
                if attempts > self.retries:
                    self.counters.errors += 1
                    raise ServiceError(
                        "worker_failed",
                        f"batch failed after {attempts} attempt(s): {exc!r}",
                        {"algorithm": unit.algorithm, "shard": unit.shard,
                         "attempts": attempts,
                         "batch_size": unit.size},
                    ) from exc
                self.counters.retries += 1

    def _build_payload(self, unit: BatchUnit) -> dict:
        proto = unit.waiters[0].request
        fault = self._faults.pop(0) if self._faults else None
        return {
            "algorithm": proto.algorithm,
            "family": proto.family.to_dict(),
            "backend": proto.backend,
            "machine_size": self.machine_size,
            "run_params": proto.run_params(),
            "fault": fault,
            # Correlation coordinates: ignored by the worker (the entry
            # stays a pure function of the run coordinates), carried so
            # a payload capture greps back to its requests.
            "batch": unit.bid,
            "cids": [pending.cid for pending in unit.waiters],
        }

    # ------------------------------------------------------------------
    # Response fan-out
    # ------------------------------------------------------------------
    def _resolve(self, unit: BatchUnit, entry: dict, *, cache_hit: bool,
                 coalesced: bool = False) -> None:
        now = perf_counter()
        children = []
        obs_emit = self.obs.emit
        obs_observe = self.obs.observe
        # Waiters dedup-attached to one unit repeat the same request; the
        # payload is a pure function of (entry, request), so build it once
        # per distinct request per unit (bounded by the unit, no
        # invalidation to track — the memo dies with the batch).
        payloads: dict = {}
        for pending in unit.waiters:
            fut = pending.future
            latency = now - pending.t0
            if fut.done():  # the client cancelled: never poison the batch
                self.counters.cancelled += 1
                continue
            try:
                rk = pending.request.key()
                payload = payloads.get(rk)
                if payload is None:
                    payload = response_payload(
                        pending.request, entry,
                        machine_size=self.machine_size)
                    payloads[rk] = payload
            except Exception as exc:
                fut.set_exception(ServiceError(
                    "answer_failed", f"query evaluation failed: {exc!r}",
                    {"request": pending.request.to_dict()}))
                self.counters.errors += 1
                obs_emit("failed", pending.cid, batch=unit.bid,
                         code="answer_failed")
                continue
            meta = {
                "cache_hit": cache_hit,
                "coalesced": coalesced,
                "batch_size": unit.size,
                "dedup_hits": unit.dedup_hits,
                "shard": unit.shard,
                "attempts": entry.get("attempts", 0),
                "latency_s": latency,
                "cid": pending.cid,
            }
            fut.set_result(QueryResponse(payload, meta, self._provenance))
            self.counters.responses += 1
            obs_observe("request_latency_s", latency)
            obs_emit("completed", pending.cid, batch=unit.bid,
                     cache_hit=cache_hit)
            children.append({
                "name": f"request:{pending.request.algorithm}",
                "cat": "request",
                "attrs": {"latency_s": latency, "cache_hit": cache_hit,
                          "cid": pending.cid},
                "sim": None, "wall": latency, "children": [],
            })
        self._append_span({
            "name": f"batch:{unit.algorithm}",
            "cat": "batch",
            "attrs": {
                "shard": unit.shard,
                "size": unit.size,
                "dedup_hits": unit.dedup_hits,
                "cache_hit": cache_hit,
                "attempts": entry.get("attempts", 0),
                "batch": unit.bid,
            },
            "sim": entry.get("sim"),
            "wall": float(entry.get("wall", 0.0)),
            "children": children,
        })

    def _record_aux_span(self, name: str, cat: str, attrs: dict,
                         wall: float) -> None:
        """A childless host-side span (mutations, dynamic queries)."""
        self._append_span({"name": name, "cat": cat, "attrs": attrs,
                           "sim": None, "wall": wall, "children": []})

    def _append_span(self, span: dict) -> None:
        if self.span_limit <= 0:
            return
        if len(self.spans) >= self.span_limit:
            self.counters.spans_dropped += 1  # the deque evicts the oldest
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def span_forest(self) -> list[dict]:
        """The recorded batch/request span dicts (trace exporter schema).

        The dicts follow :meth:`repro.trace.tracer.Span.to_dict`, so
        ``repro.trace.export`` writers and
        :func:`repro.trace.tracer.span_from_dict` consume them directly.
        """
        return list(self.spans)

    def uptime_s(self) -> float:
        """Host-clock seconds serving: live while started, frozen at stop."""
        if self._t0 is not None:
            return perf_counter() - self._t0
        return self._uptime

    def stats(self) -> dict:
        """The live ``repro.obs/2`` operational snapshot.

        One versioned dict with everything a scraper or an operator
        wants: exact counters, cache/store occupancy, pool state, full
        histogram bucket arrays, event-log accounting, and uptime on
        **both** clocks (host seconds serving,
        simulated time executed in cold runs).  Render it as text with
        :func:`repro.obs.prom.render_prometheus`.
        """
        return {
            "schema": STATS_SCHEMA,
            "uptime": {
                "wall_s": self.uptime_s(),
                "sim_time_served": self.counters.sim_time_served,
            },
            "counters": self.counters.to_dict(),
            "cache": self.cache.stats(),
            "dynamic": self.dynamic.stats(),
            "pools": {
                "shards": self.n_shards,
                "mode": self.worker_mode,
                "restarts": self._pools.restarts if self._pools else 0,
            },
            **self.obs.snapshot(),
        }

    # ------------------------------------------------------------------
    # Postmortems
    # ------------------------------------------------------------------
    def _postmortem(self, reason: str, context: dict) -> None:
        """Dump a postmortem on degradation or worker death.

        Disabled (the rings stay live for :meth:`dump_postmortem`) when
        no ``postmortem_dir`` is configured — a library embedding the
        service opts into file drops explicitly.
        """
        if self.postmortem_dir is None:
            return
        name = (f"postmortem-{self.counters.postmortems + 1:03d}-"
                f"{reason}.json")
        self.last_postmortem = self.dump_postmortem(
            pathlib.Path(self.postmortem_dir) / name, reason, context)

    def dump_postmortem(self, path: str | pathlib.Path,
                        reason: str = "manual",
                        context: dict | None = None) -> pathlib.Path:
        """Write a postmortem of the event and span rings to ``path``
        (also the operator escape hatch); counted in
        ``counters.postmortems``."""
        self.counters.postmortems += 1
        return self.recorder.dump(path, reason, context, self.stats())
